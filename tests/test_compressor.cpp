// End-to-end tests for the cuSZp2 compressor: error-bound invariants,
// stream determinism, mode/sync/access equivalences, edge sizes, and both
// precisions.
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::core {
namespace {

Config baseConfig(EncodingMode mode = EncodingMode::Outlier) {
  Config cfg;
  cfg.mode = mode;
  cfg.relErrorBound = 1e-3;
  return cfg;
}

template <FloatingPoint T>
void expectBounded(std::span<const T> original, std::span<const T> rec,
                   f64 absEb) {
  const auto stats = metrics::computeErrorStats<T>(original, rec);
  EXPECT_TRUE(stats.withinBoundFp(absEb, precisionOf<T>()))
      << "max error " << stats.maxAbsError << " bound " << absEb;
}

// ---- Basic round trips ----------------------------------------------------

TEST(Compressor, RoundTripSmallKnownData) {
  Config cfg = baseConfig();
  cfg.absErrorBound = 0.1;
  CompressorStream comp(cfg);
  const std::vector<f32> data = {1.12f, 1.02f, 0.98f, 1.04f,
                                 1.11f, 1.09f, 0.91f, 1.01f};
  const auto c = comp.compress<f32>(data);
  const auto d = comp.decompress<f32>(c.stream);
  ASSERT_EQ(d.data.size(), data.size());
  expectBounded<f32>(data, d.data, 0.1);
}

TEST(Compressor, EmptyInput) {
  CompressorStream comp(baseConfig());
  const std::vector<f32> data;
  const auto c = comp.compress<f32>(data);
  const auto d = comp.decompress<f32>(c.stream);
  EXPECT_TRUE(d.data.empty());
}

class CompressorSizeTest : public ::testing::TestWithParam<usize> {};

TEST_P(CompressorSizeTest, AwkwardSizesRoundTrip) {
  const usize n = GetParam();
  Config cfg = baseConfig();
  cfg.absErrorBound = 1e-3;
  CompressorStream comp(cfg);
  Rng rng(n * 31 + 7);
  std::vector<f32> data(n);
  f64 v = 0.0;
  for (auto& x : data) {
    v += rng.uniform(-0.01, 0.01);
    x = static_cast<f32>(v);
  }
  const auto c = comp.compress<f32>(data);
  const auto d = comp.decompress<f32>(c.stream);
  ASSERT_EQ(d.data.size(), n);
  expectBounded<f32>(data, d.data, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CompressorSizeTest,
                         ::testing::Values<usize>(1, 2, 31, 32, 33, 63, 64,
                                                  4095, 4096, 4097, 100000,
                                                  131072));

// ---- Error-bound property across datasets x bounds x modes -----------------

class CompressorDatasetTest
    : public ::testing::TestWithParam<
          std::tuple<std::string, f64, EncodingMode>> {};

TEST_P(CompressorDatasetTest, ErrorBoundHolds) {
  const auto [dataset, rel, mode] = GetParam();
  const auto data = datagen::generateF32(dataset, 0, 1 << 16);
  const f64 absEb =
      Quantizer::absFromRel(rel, metrics::valueRange<f32>(data));

  Config cfg = baseConfig(mode);
  cfg.absErrorBound = absEb;
  CompressorStream comp(cfg);
  const auto c = comp.compress<f32>(data);
  const auto d = comp.decompress<f32>(c.stream);
  expectBounded<f32>(data, d.data, absEb);
  EXPECT_GT(c.ratio, 1.0) << "compression should not expand " << dataset;
}

INSTANTIATE_TEST_SUITE_P(
    Datasets, CompressorDatasetTest,
    ::testing::Combine(
        ::testing::Values("cesm_atm", "hacc", "rtm", "scale", "qmcpack",
                          "nyx", "jetin", "miranda", "syntruss"),
        ::testing::Values(1e-2, 1e-3, 1e-4),
        ::testing::Values(EncodingMode::Plain, EncodingMode::Outlier)));

// ---- Double precision -------------------------------------------------------

TEST(Compressor, DoublePrecisionRoundTrip) {
  for (const char* dataset : {"s3d", "nwchem"}) {
    const auto data = datagen::generateF64(dataset, 0, 1 << 15);
    const f64 absEb =
        Quantizer::absFromRel(1e-3, metrics::valueRange<f64>(data));
    Config cfg = baseConfig();
    cfg.absErrorBound = absEb;
    CompressorStream comp(cfg);
    const auto c = comp.compress<f64>(data);
    const auto d = comp.decompress<f64>(c.stream);
    expectBounded<f64>(data, d.data, absEb);
  }
}

TEST(Compressor, PrecisionMismatchThrows) {
  CompressorStream comp(baseConfig());
  const std::vector<f32> data(64, 1.0f);
  const auto c = comp.compress<f32>(data);
  EXPECT_THROW(comp.decompress<f64>(c.stream), Error);
}

// ---- Equivalences -----------------------------------------------------------

TEST(Compressor, ModesReconstructIdentically) {
  // P and O share the lossy step: same eb => bit-identical reconstruction
  // (paper Sec. V-D).
  const auto data = datagen::generateF32("cesm_atm", 1, 1 << 14);
  Config p = baseConfig(EncodingMode::Plain);
  p.absErrorBound = 0.01;
  Config o = baseConfig(EncodingMode::Outlier);
  o.absErrorBound = 0.01;
  CompressorStream sp(p);
  CompressorStream so(o);
  const auto dp = sp.decompress<f32>(sp.compress<f32>(data).stream);
  const auto dout = so.decompress<f32>(so.compress<f32>(data).stream);
  EXPECT_EQ(dp.data, dout.data);
}

TEST(Compressor, OutlierRatioAtLeastPlain) {
  for (const char* dataset : {"cesm_atm", "hacc", "miranda", "rtm"}) {
    const auto data = datagen::generateF32(dataset, 0, 1 << 15);
    Config p = baseConfig(EncodingMode::Plain);
    Config o = baseConfig(EncodingMode::Outlier);
    const f64 rp = CompressorStream(p).compress<f32>(data).ratio;
    const f64 ro = CompressorStream(o).compress<f32>(data).ratio;
    EXPECT_GE(ro, rp * (1.0 - 1e-9)) << dataset;
  }
}

TEST(Compressor, SyncAlgorithmDoesNotChangeBytes) {
  const auto data = datagen::generateF32("scale", 2, 1 << 14);
  Config a = baseConfig();
  a.syncAlgorithm = scan::Algorithm::DecoupledLookback;
  Config b = baseConfig();
  b.syncAlgorithm = scan::Algorithm::ChainedScan;
  EXPECT_EQ(CompressorStream(a).compress<f32>(data).stream,
            CompressorStream(b).compress<f32>(data).stream);
}

TEST(Compressor, VectorizationDoesNotChangeBytes) {
  const auto data = datagen::generateF32("nyx", 1, 1 << 14);
  Config a = baseConfig();
  a.vectorizedAccess = true;
  Config b = baseConfig();
  b.vectorizedAccess = false;
  const auto ca = CompressorStream(a).compress<f32>(data);
  const auto cb = CompressorStream(b).compress<f32>(data);
  EXPECT_EQ(ca.stream, cb.stream);
  // ...but it must change the instruction counts (that is the ablation).
  EXPECT_GT(cb.profile.mem.scalarLoadInstr, ca.profile.mem.scalarLoadInstr);
  EXPECT_GT(ca.profile.mem.vectorLoadInstr, 0u);
}

TEST(Compressor, DeterministicStream) {
  const auto data = datagen::generateF32("qmcpack", 0, 1 << 14);
  CompressorStream comp(baseConfig());
  const auto c1 = comp.compress<f32>(data);
  const auto c2 = comp.compress<f32>(data);
  EXPECT_EQ(c1.stream, c2.stream);
}

class BlockSizeTest : public ::testing::TestWithParam<u32> {};

TEST_P(BlockSizeTest, RoundTripAcrossBlockSizes) {
  const u32 bs = GetParam();
  const auto data = datagen::generateF32("miranda", 0, 1 << 14);
  Config cfg = baseConfig();
  cfg.blockSize = bs;
  cfg.absErrorBound = 1e-3;
  CompressorStream comp(cfg);
  const auto d = comp.decompress<f32>(comp.compress<f32>(data).stream);
  expectBounded<f32>(data, d.data, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(BlockSizes, BlockSizeTest,
                         ::testing::Values<u32>(8, 16, 32, 64, 128, 256));

class TileSizeTest : public ::testing::TestWithParam<u32> {};

TEST_P(TileSizeTest, BlocksPerTileDoesNotChangeBytes) {
  const auto data = datagen::generateF32("cesm_atm", 3, 1 << 14);
  Config ref = baseConfig();
  ref.blocksPerTile = 128;
  const auto expected = CompressorStream(ref).compress<f32>(data).stream;
  Config cfg = baseConfig();
  cfg.blocksPerTile = GetParam();
  EXPECT_EQ(CompressorStream(cfg).compress<f32>(data).stream, expected);
}

INSTANTIATE_TEST_SUITE_P(TileSizes, TileSizeTest,
                         ::testing::Values<u32>(1, 2, 17, 64, 512));

// ---- Special content --------------------------------------------------------

TEST(Compressor, AllZeroDataCompressesToOffsetBytes) {
  Config cfg = baseConfig();
  cfg.absErrorBound = 1e-3;
  CompressorStream comp(cfg);
  const std::vector<f32> data(32 * 1024, 0.0f);
  const auto c = comp.compress<f32>(data);
  // 1 offset byte per 32-element block + header, nothing else.
  EXPECT_EQ(c.stream.size(), StreamHeader::kBytes + 1024u);
  EXPECT_GT(c.ratio, 100.0);
  const auto d = comp.decompress<f32>(c.stream);
  for (f32 v : d.data) ASSERT_EQ(v, 0.0f);
  EXPECT_GT(d.profile.mem.memsetBytes, 0u);  // zero-block fast path taken
}

TEST(Compressor, ConstantDataIsCheapInOutlierMode) {
  Config cfg = baseConfig(EncodingMode::Outlier);
  cfg.absErrorBound = 1e-3;
  CompressorStream comp(cfg);
  const std::vector<f32> data(32 * 256, 42.0f);
  const auto c = comp.compress<f32>(data);
  EXPECT_GT(c.ratio, 10.0);
  const auto d = comp.decompress<f32>(c.stream);
  expectBounded<f32>(data, d.data, 1e-3);
}

TEST(Compressor, RelBoundComputesRangePass) {
  // REL-only config must resolve the bound internally and charge the
  // range-reduction time.
  Config cfg;
  cfg.relErrorBound = 1e-3;
  cfg.absErrorBound = 0.0;
  CompressorStream comp(cfg);
  const auto data = datagen::generateF32("scale", 0, 1 << 14);
  const auto c = comp.compress<f32>(data);
  const f64 expectedAbs =
      Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  const auto header = StreamHeader::parse(c.stream);
  EXPECT_DOUBLE_EQ(header.absErrorBound, expectedAbs);
  const auto d = comp.decompress<f32>(c.stream);
  expectBounded<f32>(data, d.data, expectedAbs);
}

// ---- Profiles ---------------------------------------------------------------

TEST(Compressor, ProfileIsPopulated) {
  const auto data = datagen::generateF32("rtm", 2, 1 << 16);
  CompressorStream comp(baseConfig());
  const auto c = comp.compress<f32>(data);
  EXPECT_GT(c.profile.endToEndSeconds, 0.0);
  EXPECT_GT(c.profile.endToEndGBps, 0.0);
  EXPECT_EQ(c.profile.sync.method, gpusim::SyncMethod::DecoupledLookback);
  EXPECT_GT(c.profile.mem.bytesRead, data.size() * 4 - 1);
  EXPECT_GT(c.profile.timing.totalSeconds, 0.0);

  const auto d = comp.decompress<f32>(c.stream);
  EXPECT_GT(d.profile.endToEndGBps, 0.0);
  // Decompression reads less (compressed) and skips the analysis loop:
  // its modelled throughput should beat compression on this dataset.
  EXPECT_GT(d.profile.endToEndGBps, c.profile.endToEndGBps * 0.8);
}

TEST(Compressor, CorruptStreamRejected) {
  CompressorStream comp(baseConfig());
  const std::vector<f32> data(1000, 1.5f);
  auto c = comp.compress<f32>(data);
  // Truncate the payload.
  c.stream.resize(c.stream.size() - 1);
  EXPECT_THROW(comp.decompress<f32>(c.stream), Error);
}

TEST(Compressor, ConcurrentCompressionsOnOneCompressor) {
  // Two streams compressing concurrently share the process-wide worker
  // pool (as the service's workers do) and must not interfere: each
  // stream's output stays byte-identical to its serial reference.
  const auto dataA = datagen::generateF32("nyx", 0, 1 << 14);
  const auto dataB = datagen::generateF32("rtm", 1, 1 << 14);
  Config cfg = baseConfig();
  cfg.absErrorBound = 1e-3;
  CompressorStream streamA(cfg);
  CompressorStream streamB(cfg);
  const auto refA = streamA.compress<f32>(dataA).stream;
  const auto refB = streamB.compress<f32>(dataB).stream;

  std::vector<std::byte> gotA;
  std::vector<std::byte> gotB;
  std::thread ta([&] {
    for (int i = 0; i < 3; ++i) gotA = streamA.compress<f32>(dataA).stream;
  });
  std::thread tb([&] {
    for (int i = 0; i < 3; ++i) gotB = streamB.compress<f32>(dataB).stream;
  });
  ta.join();
  tb.join();
  EXPECT_EQ(gotA, refA);
  EXPECT_EQ(gotB, refB);
}

TEST(Compressor, InvalidConfigRejected) {
  Config cfg;
  cfg.relErrorBound = 0.0;
  cfg.absErrorBound = 0.0;
  EXPECT_THROW(CompressorStream{cfg}, Error);
  Config cfg2 = baseConfig();
  cfg2.blockSize = 12;
  EXPECT_THROW(CompressorStream{cfg2}, Error);
}

}  // namespace
}  // namespace cuszp2::core
