// Tests for random access into compressed streams (paper Sec. VI-B).
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::core {
namespace {

struct Fixture {
  Config cfg;
  std::vector<f32> data;
  Compressed compressed;
  std::vector<f32> full;

  explicit Fixture(const std::string& dataset, usize n = 1 << 15) {
    cfg.mode = EncodingMode::Outlier;
    cfg.relErrorBound = 1e-4;
    data = datagen::generateF32(dataset, 0, n);
    CompressorStream comp(cfg);
    compressed = comp.compress<f32>(data);
    full = comp.decompress<f32>(compressed.stream).data;
  }
};

TEST(RandomAccess, SingleBlockMatchesFullDecode) {
  const Fixture fx("rtm");
  CompressorStream comp(fx.cfg);
  const auto header = StreamHeader::parse(fx.compressed.stream);
  for (u64 blk : {u64{0}, u64{1}, u64{17}, header.numBlocks() - 1}) {
    const auto range =
        comp.decompressBlocks<f32>(fx.compressed.stream, blk, 1);
    ASSERT_LE(range.values.size(), 32u);
    ASSERT_EQ(range.firstElement, blk * 32);
    for (usize i = 0; i < range.values.size(); ++i) {
      ASSERT_EQ(range.values[i], fx.full[range.firstElement + i])
          << "block " << blk << " elem " << i;
    }
  }
}

TEST(RandomAccess, MultiBlockRanges) {
  const Fixture fx("cesm_atm");
  CompressorStream comp(fx.cfg);
  const auto header = StreamHeader::parse(fx.compressed.stream);
  const u64 nb = header.numBlocks();
  const std::vector<std::pair<u64, u64>> ranges = {
      {0, nb}, {0, 1}, {nb / 2, 3}, {nb - 2, 2}, {5, 100}};
  for (const auto& [first, count] : ranges) {
    const auto range =
        comp.decompressBlocks<f32>(fx.compressed.stream, first, count);
    for (usize i = 0; i < range.values.size(); ++i) {
      ASSERT_EQ(range.values[i], fx.full[range.firstElement + i]);
    }
  }
}

TEST(RandomAccess, ErrorBoundHoldsOnRange) {
  const Fixture fx("miranda");
  CompressorStream comp(fx.cfg);
  const auto range = comp.decompressBlocks<f32>(fx.compressed.stream, 10, 50);
  const f64 absEb = StreamHeader::parse(fx.compressed.stream).absErrorBound;
  for (usize i = 0; i < range.values.size(); ++i) {
    const f64 v = fx.data[range.firstElement + i];
    // Allow the half-ulp of the final f32 rounding on top of the bound.
    ASSERT_NEAR(range.values[i], v,
                absEb * (1 + 1e-6) + std::abs(v) * 6.0e-8);
  }
}

TEST(RandomAccess, OutOfRangeRejected) {
  const Fixture fx("scale", 1 << 12);
  CompressorStream comp(fx.cfg);
  const auto header = StreamHeader::parse(fx.compressed.stream);
  const u64 nb = header.numBlocks();
  EXPECT_THROW(comp.decompressBlocks<f32>(fx.compressed.stream, nb, 1),
               Error);
  EXPECT_THROW(comp.decompressBlocks<f32>(fx.compressed.stream, 0, nb + 1),
               Error);
  EXPECT_THROW(comp.decompressBlocks<f32>(fx.compressed.stream, 0, 0),
               Error);
}

TEST(RandomAccess, PartialFinalBlock) {
  // Element count not a multiple of the block size: the final block is
  // short and the returned range must match.
  Config cfg;
  cfg.relErrorBound = 1e-3;
  CompressorStream comp(cfg);
  std::vector<f32> data(1000);  // 1000 = 31*32 + 8
  for (usize i = 0; i < data.size(); ++i) {
    data[i] = static_cast<f32>(i) * 0.01f;
  }
  const auto c = comp.compress<f32>(data);
  const auto header = StreamHeader::parse(c.stream);
  const auto range = comp.decompressBlocks<f32>(
      c.stream, header.numBlocks() - 1, 1);
  EXPECT_EQ(range.values.size(), 1000u - (header.numBlocks() - 1) * 32);
}

TEST(RandomAccess, ReadsFarLessThanFullDecode) {
  const Fixture fx("jetin", 1 << 17);
  CompressorStream comp(fx.cfg);
  const auto one = comp.decompressBlocks<f32>(fx.compressed.stream, 100, 1);
  const auto full = comp.decompress<f32>(fx.compressed.stream);
  // Random access reads the offset array + one payload; far less than the
  // full payload + full output writes.
  EXPECT_LT(one.profile.mem.totalBytes(),
            full.profile.mem.totalBytes() / 4);
  // And the modelled throughput relative to the original size is much
  // higher (the paper's TB-level claim).
  EXPECT_GT(one.profile.endToEndGBps, full.profile.endToEndGBps);
}

TEST(RandomAccess, WorksWithChainedScanConfig) {
  Fixture fx("nyx", 1 << 13);
  Config cfg = fx.cfg;
  cfg.syncAlgorithm = scan::Algorithm::ChainedScan;
  CompressorStream comp(cfg);
  const auto range = comp.decompressBlocks<f32>(fx.compressed.stream, 3, 5);
  for (usize i = 0; i < range.values.size(); ++i) {
    ASSERT_EQ(range.values[i], fx.full[range.firstElement + i]);
  }
}

TEST(RandomAccess, DoublePrecision) {
  Config cfg;
  cfg.relErrorBound = 1e-3;
  CompressorStream comp(cfg);
  const auto data = datagen::generateF64("s3d", 1, 1 << 13);
  const auto c = comp.compress<f64>(data);
  const auto full = comp.decompress<f64>(c.stream);
  const auto range = comp.decompressBlocks<f64>(c.stream, 7, 9);
  for (usize i = 0; i < range.values.size(); ++i) {
    ASSERT_EQ(range.values[i], full.data[range.firstElement + i]);
  }
}

}  // namespace
}  // namespace cuszp2::core
