// Tests for the lossy conversion step: the error-bound invariant is THE
// correctness property of the compressor, so it gets a property sweep.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"

namespace cuszp2::core {
namespace {

TEST(Quantizer, PaperRunningExample) {
  // Paper Fig. 5: eb = 0.1, value 1.12 -> integer 6 -> reconstruct 1.2.
  const Quantizer q(0.1);
  EXPECT_EQ(q.quantize(1.12f), 6);
  EXPECT_FLOAT_EQ(q.dequantize<f32>(6), 1.2f);
  EXPECT_LT(std::abs(1.12 - 1.2), 0.1 + 1e-12);
}

TEST(Quantizer, ZeroMapsToZero) {
  const Quantizer q(1e-3);
  EXPECT_EQ(q.quantize(0.0f), 0);
  EXPECT_EQ(q.quantize(0.0), 0);
  EXPECT_EQ(q.dequantize<f32>(0), 0.0f);
}

TEST(Quantizer, NegativeValues) {
  const Quantizer q(0.5);
  EXPECT_EQ(q.quantize(-1.0f), -1);
  EXPECT_EQ(q.quantize(-2.0f), -2);
  EXPECT_FLOAT_EQ(q.dequantize<f32>(-2), -2.0f);
}

TEST(Quantizer, RejectsNonPositiveBound) {
  EXPECT_THROW(Quantizer(0.0), Error);
  EXPECT_THROW(Quantizer(-1.0), Error);
}

TEST(Quantizer, ThrowsOnRangeOverflow) {
  const Quantizer q(1e-12);
  EXPECT_THROW(q.quantize(1.0e6f), Error);
}

TEST(Quantizer, RejectsNonFiniteValues) {
  const Quantizer q(1e-3);
  EXPECT_THROW(q.quantize(std::numeric_limits<f32>::quiet_NaN()), Error);
  EXPECT_THROW(q.quantize(std::numeric_limits<f32>::infinity()), Error);
  EXPECT_THROW(q.quantize(-std::numeric_limits<f64>::infinity()), Error);
}

TEST(Quantizer, CompressorRejectsNonFiniteData) {
  // A NaN anywhere in the field must abort compression cleanly rather
  // than poison the stream (the launcher propagates the block's error).
  std::vector<f32> data(4096, 1.0f);
  data[1234] = std::numeric_limits<f32>::quiet_NaN();
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  core::CompressorStream comp(cfg);
  EXPECT_THROW(comp.compress<f32>(data), Error);
}

TEST(Quantizer, AbsFromRel) {
  EXPECT_DOUBLE_EQ(Quantizer::absFromRel(1e-2, 100.0), 1.0);
  EXPECT_DOUBLE_EQ(Quantizer::absFromRel(1e-3, 50.0), 0.05);
  // Degenerate zero-range field still gets a positive bound.
  EXPECT_GT(Quantizer::absFromRel(1e-3, 0.0), 0.0);
  EXPECT_THROW(Quantizer::absFromRel(0.0, 1.0), Error);
}

// Property: |v - dequantize(quantize(v))| <= eb for all representable
// inputs, across error bounds, magnitudes, and both precisions.
class QuantizerBoundTest : public ::testing::TestWithParam<f64> {};

TEST_P(QuantizerBoundTest, ErrorBoundHoldsF32) {
  const f64 eb = GetParam();
  const Quantizer q(eb);
  Rng rng(101);
  for (int i = 0; i < 20000; ++i) {
    const f32 v = static_cast<f32>(rng.uniform(-1000.0, 1000.0));
    const f32 rec = q.dequantize<f32>(q.quantize(v));
    // The final f64 -> f32 cast can add up to half an ulp of the value on
    // top of the quantization error; the bound holds modulo that rounding
    // (true of any f32 compressor when eb approaches the ulp scale).
    const f64 halfUlp = std::abs(static_cast<f64>(v)) * 6.0e-8;
    ASSERT_LE(std::abs(static_cast<f64>(v) - static_cast<f64>(rec)),
              eb * (1.0 + 1e-6) + halfUlp)
        << "v=" << v << " eb=" << eb;
  }
}

TEST_P(QuantizerBoundTest, ErrorBoundHoldsF64) {
  const f64 eb = GetParam();
  const Quantizer q(eb);
  Rng rng(202);
  for (int i = 0; i < 20000; ++i) {
    const f64 v = rng.uniform(-1000.0, 1000.0);
    const f64 rec = q.dequantize<f64>(q.quantize(v));
    ASSERT_LE(std::abs(v - rec), eb * (1.0 + 1e-12)) << "v=" << v;
  }
}

INSTANTIATE_TEST_SUITE_P(ErrorBounds, QuantizerBoundTest,
                         ::testing::Values(10.0, 1.0, 0.1, 1e-2, 1e-3,
                                           1e-4));

TEST(Quantizer, QuantizationIsIdempotent) {
  const Quantizer q(1e-2);
  Rng rng(303);
  for (int i = 0; i < 1000; ++i) {
    const f32 v = static_cast<f32>(rng.uniform(-10.0, 10.0));
    const i32 code = q.quantize(v);
    const f32 rec = q.dequantize<f32>(code);
    EXPECT_EQ(q.quantize(rec), code) << "v=" << v;
  }
}

TEST(Quantizer, MonotoneInValue) {
  const Quantizer q(0.25);
  i32 prev = q.quantize(-100.0f);
  for (f32 v = -100.0f; v <= 100.0f; v += 0.37f) {
    const i32 code = q.quantize(v);
    EXPECT_GE(code, prev);
    prev = code;
  }
}

TEST(Quantizer, F32AndF64AgreeOnExactValues) {
  const Quantizer q(0.125);
  for (f64 v = -20.0; v <= 20.0; v += 0.5) {
    EXPECT_EQ(q.quantize(static_cast<f32>(v)), q.quantize(v));
  }
}

}  // namespace
}  // namespace cuszp2::core
