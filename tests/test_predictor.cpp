// Tests for the pluggable in-block predictor (first-order = paper
// pipeline; second-order = extension for locally linear data).
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::core {
namespace {

Config withPredictor(Predictor p, f64 absEb = 1e-3) {
  Config cfg;
  cfg.absErrorBound = absEb;
  cfg.predictor = p;
  return cfg;
}

class PredictorRoundTrip
    : public ::testing::TestWithParam<std::tuple<std::string, Predictor>> {};

TEST_P(PredictorRoundTrip, ErrorBoundHolds) {
  const auto [dataset, predictor] = GetParam();
  const auto data = datagen::generateF32(dataset, 0, 1 << 14);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  CompressorStream comp(withPredictor(predictor, absEb));
  const auto c = comp.compress<f32>(data);
  const auto d = comp.decompress<f32>(c.stream);
  EXPECT_TRUE(metrics::computeErrorStats<f32>(data, d.data)
                  .withinBoundFp(absEb, Precision::F32));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, PredictorRoundTrip,
    ::testing::Combine(::testing::Values("cesm_atm", "hacc", "rtm",
                                         "qmcpack", "jetin"),
                       ::testing::Values(Predictor::FirstOrder,
                                         Predictor::SecondOrder)));

TEST(Predictor, HeaderRecordsPredictor) {
  const std::vector<f32> data(1024, 1.5f);
  CompressorStream stream(withPredictor(Predictor::SecondOrder));
  const auto c = stream.compress<f32>(data);
  EXPECT_EQ(StreamHeader::parse(c.stream).predictor,
            Predictor::SecondOrder);
}

TEST(Predictor, StreamIsSelfDescribing) {
  // A default-config compressor must decode a second-order stream
  // correctly: the predictor comes from the header, not the config.
  const auto data = datagen::generateF32("miranda", 0, 1 << 13);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  CompressorStream secondOrder(withPredictor(Predictor::SecondOrder, absEb));
  const auto c = secondOrder.compress<f32>(data);
  Config plainCfg;
  plainCfg.absErrorBound = 1.0;  // irrelevant for decode
  const auto d = CompressorStream(plainCfg).decompress<f32>(c.stream);
  EXPECT_TRUE(metrics::computeErrorStats<f32>(data, d.data)
                  .withinBoundFp(absEb, Precision::F32));
}

TEST(Predictor, SecondOrderCannotBeatTheSingleOutlierFormat) {
  // Design-validation ablation: even on perfectly quadratic data — the
  // best case for a second difference — the block's residual r_1 = d_1
  // still carries the full first-difference magnitude, and the single-
  // outlier block format only exempts r_0 from the fixed length. So the
  // fixed length is pinned by d_1 either way and second order lands at
  // parity (within a few percent). This is structural evidence for the
  // paper's first-order + Outlier-FLE design: deeper prediction cannot
  // pay under this format.
  std::vector<f32> data(1 << 15);
  for (usize i = 0; i < data.size(); ++i) {
    const f64 x = static_cast<f64>(i);
    data[i] = static_cast<f32>(0.5 * x + 1e-5 * x * x / 2.0);
  }
  const f64 absEb =
      Quantizer::absFromRel(1e-6, metrics::valueRange<f32>(data));
  CompressorStream firstOrder(withPredictor(Predictor::FirstOrder, absEb));
  CompressorStream secondOrder(withPredictor(Predictor::SecondOrder, absEb));
  const f64 r1 = firstOrder.compress<f32>(data).ratio;
  const f64 r2 = secondOrder.compress<f32>(data).ratio;
  EXPECT_GT(r2, r1 * 0.8);
  EXPECT_LT(r2, r1 * 1.2);
}

TEST(Predictor, SecondOrderNeverPathologicalOnNoise) {
  // On rough data the second difference doubles the noise, so the ratio
  // may drop — but it must stay within a small factor (the sign/plane
  // format caps the damage at one extra bit).
  const auto data = datagen::generateF32("qmcpack", 0, 1 << 14);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  CompressorStream firstOrder(withPredictor(Predictor::FirstOrder, absEb));
  CompressorStream secondOrder(withPredictor(Predictor::SecondOrder, absEb));
  const f64 r1 = firstOrder.compress<f32>(data).ratio;
  const f64 r2 = secondOrder.compress<f32>(data).ratio;
  EXPECT_GT(r2, r1 * 0.5);
}

TEST(Predictor, FirstOrderStreamsUnchangedByTheFeature) {
  // Guard: adding the predictor field must not perturb default streams
  // (first-order encodes byte-identically to the pre-feature pipeline,
  // modulo the header tag which is 0 for first order).
  const auto data = datagen::generateF32("scale", 1, 1 << 13);
  Config cfg;
  cfg.absErrorBound = 1e-3;
  const auto c = CompressorStream(cfg).compress<f32>(data);
  EXPECT_EQ(StreamHeader::parse(c.stream).predictor, Predictor::FirstOrder);
  const auto d = CompressorStream(cfg).decompress<f32>(c.stream);
  EXPECT_TRUE(metrics::computeErrorStats<f32>(data, d.data)
                  .withinBoundFp(1e-3, Precision::F32));
}

TEST(Predictor, RandomAccessRespectsPredictor) {
  const auto data = datagen::generateF32("cesm_atm", 0, 1 << 13);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  CompressorStream comp(withPredictor(Predictor::SecondOrder, absEb));
  const auto c = comp.compress<f32>(data);
  const auto full = comp.decompress<f32>(c.stream);
  const auto range = comp.decompressBlocks<f32>(c.stream, 5, 7);
  for (usize i = 0; i < range.values.size(); ++i) {
    ASSERT_EQ(range.values[i], full.data[range.firstElement + i]);
  }
}

TEST(Predictor, ReplaceBlocksRespectsPredictor) {
  const auto data = datagen::generateF32("nyx", 1, 1 << 12);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  CompressorStream comp(withPredictor(Predictor::SecondOrder, absEb));
  const auto c = comp.compress<f32>(data);
  const std::vector<f32> replacement(64, 3.25f);
  const auto updated = comp.replaceBlocks<f32>(c.stream, 2, replacement);
  const auto d = comp.decompress<f32>(updated.stream);
  for (usize i = 2 * 32; i < 4 * 32; ++i) {
    ASSERT_NEAR(d.data[i], 3.25f, absEb * (1 + 1e-6) + 3.25 * 6e-8);
  }
}

TEST(Predictor, BothPredictorsReconstructIdentically) {
  // The lossy step is shared: at the same bound, reconstructions are
  // bit-identical regardless of the predictor.
  const auto data = datagen::generateF32("syntruss", 0, 1 << 13);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  CompressorStream firstOrder(withPredictor(Predictor::FirstOrder, absEb));
  CompressorStream secondOrder(withPredictor(Predictor::SecondOrder, absEb));
  const auto d1 = firstOrder.decompress<f32>(
      firstOrder.compress<f32>(data).stream);
  const auto d2 = secondOrder.decompress<f32>(
      secondOrder.compress<f32>(data).stream);
  EXPECT_EQ(d1.data, d2.data);
}

TEST(Predictor, DoublePrecisionSecondOrder) {
  const auto data = datagen::generateF64("s3d", 0, 1 << 13);
  const f64 absEb =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f64>(data));
  CompressorStream comp(withPredictor(Predictor::SecondOrder, absEb));
  const auto d = comp.decompress<f64>(comp.compress<f64>(data).stream);
  EXPECT_TRUE(metrics::computeErrorStats<f64>(data, d.data)
                  .withinBoundFp(absEb, Precision::F64));
}

}  // namespace
}  // namespace cuszp2::core
