// Tests for random-access writes: CompressorStream::replaceBlocks splices
// re-encoded blocks into an existing stream (paper Sec. VI-B).
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

struct Fixture {
  Config cfg;
  std::vector<f32> data;
  Compressed compressed;

  explicit Fixture(usize n = 1 << 13, EncodingMode mode =
                                          EncodingMode::Outlier) {
    cfg.mode = mode;
    cfg.relErrorBound = 1e-4;
    data = datagen::generateF32("scale", 1, n);
    cfg.absErrorBound =
        Quantizer::absFromRel(1e-4, metrics::valueRange<f32>(data));
    compressed = CompressorStream(cfg).compress<f32>(data);
  }
};

std::vector<f32> replacementValues(usize n, u64 seed) {
  Rng rng(seed);
  std::vector<f32> v(n);
  f64 x = 50.0;
  for (auto& e : v) {
    x += rng.uniform(-0.5, 0.5);
    e = static_cast<f32>(x);
  }
  return v;
}

TEST(ReplaceBlocks, MiddleRangeSplicesCorrectly) {
  const Fixture fx;
  CompressorStream comp(fx.cfg);
  const auto header = StreamHeader::parse(fx.compressed.stream);
  const u64 firstBlock = header.numBlocks() / 3;
  const auto newValues = replacementValues(32 * 5, 1);

  const auto updated =
      comp.replaceBlocks<f32>(fx.compressed.stream, firstBlock, newValues);
  const auto d = comp.decompress<f32>(updated.stream);
  ASSERT_EQ(d.data.size(), fx.data.size());

  const u64 eFirst = firstBlock * 32;
  for (usize i = 0; i < d.data.size(); ++i) {
    if (i >= eFirst && i < eFirst + newValues.size()) {
      ASSERT_NEAR(d.data[i], newValues[i - eFirst],
                  header.absErrorBound * (1 + 1e-6) +
                      std::abs(newValues[i - eFirst]) * 6e-8)
          << i;
    } else {
      ASSERT_NEAR(d.data[i], fx.data[i],
                  header.absErrorBound * (1 + 1e-6) +
                      std::abs(fx.data[i]) * 6e-8)
          << i;
    }
  }
}

TEST(ReplaceBlocks, UntouchedBlocksAreBitIdentical) {
  const Fixture fx;
  CompressorStream comp(fx.cfg);
  const auto before = comp.decompress<f32>(fx.compressed.stream);
  const auto newValues = replacementValues(32 * 3, 2);
  const auto updated =
      comp.replaceBlocks<f32>(fx.compressed.stream, 10, newValues);
  const auto after = comp.decompress<f32>(updated.stream);
  for (usize i = 0; i < before.data.size(); ++i) {
    if (i >= 10 * 32 && i < 13 * 32) continue;
    ASSERT_EQ(before.data[i], after.data[i]) << i;
  }
}

TEST(ReplaceBlocks, FirstAndLastBlocks) {
  const Fixture fx;
  CompressorStream comp(fx.cfg);
  const auto header = StreamHeader::parse(fx.compressed.stream);

  // First block.
  auto updated = comp.replaceBlocks<f32>(fx.compressed.stream, 0,
                                         replacementValues(32, 3));
  EXPECT_NO_THROW(comp.decompress<f32>(updated.stream));

  // Final (full) block.
  const u64 last = header.numBlocks() - 1;
  const u64 lastElems = header.numElements - last * 32;
  updated = comp.replaceBlocks<f32>(fx.compressed.stream, last,
                                    replacementValues(lastElems, 4));
  const auto d = comp.decompress<f32>(updated.stream);
  EXPECT_EQ(d.data.size(), header.numElements);
}

TEST(ReplaceBlocks, PartialFinalBlockTail) {
  // Stream whose final block is short: replacement must cover exactly the
  // tail.
  Config cfg;
  cfg.absErrorBound = 1e-3;
  CompressorStream comp(cfg);
  const auto data = replacementValues(1000, 5);  // 31 blocks + 8 elems
  const auto c = comp.compress<f32>(data);
  const auto header = StreamHeader::parse(c.stream);
  const u64 last = header.numBlocks() - 1;

  // Correct tail size (8 elements) works.
  const auto updated =
      comp.replaceBlocks<f32>(c.stream, last, replacementValues(8, 6));
  EXPECT_EQ(comp.decompress<f32>(updated.stream).data.size(), 1000u);

  // Wrong sizes are rejected: a full block at the short tail, and a size
  // that neither fills whole blocks nor ends at the stream tail.
  EXPECT_THROW(
      comp.replaceBlocks<f32>(c.stream, last, replacementValues(32, 7)),
      Error);
  EXPECT_THROW(
      comp.replaceBlocks<f32>(c.stream, 0, replacementValues(33, 8)),
      Error);
  // 40 values at the second-to-last block are valid: one full block plus
  // the 8-element tail.
  EXPECT_NO_THROW(
      comp.replaceBlocks<f32>(c.stream, last - 1, replacementValues(40, 8)));
}

// Regression: replacing the final partial block of a version-2 stream.
// The 2-byte-per-block footer sits right after the short tail block, so a
// payload-size miscalculation over-reads into (or past) the footer — run
// under ASan this test catches any such read, and the digest rebuild must
// still validate strictly afterwards.
TEST(ReplaceBlocks, FinalPartialBlockWithBlockChecksums) {
  Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.blockChecksums = true;
  CompressorStream codec(cfg);
  const auto data = replacementValues(1000, 5);  // 31 blocks + 8 elems
  const auto c = codec.compress<f32>(data);
  const auto header = StreamHeader::parse(c.stream);
  ASSERT_TRUE(header.hasBlockChecksums());
  const u64 last = header.numBlocks() - 1;
  const u64 tail = header.numElements - last * header.blockSize;
  ASSERT_LT(tail, header.blockSize);

  // Replace exactly the 8-element tail; strict decode re-verifies every
  // rebuilt digest, including the final partial block's.
  const auto repl = replacementValues(tail, 6);
  const auto updated = codec.replaceBlocks<f32>(c.stream, last, repl);
  EXPECT_EQ(StreamHeader::parse(updated.stream).version, kFormatVersionV2);
  const auto d = codec.decompress<f32>(updated.stream);
  ASSERT_EQ(d.data.size(), data.size());
  for (u64 i = 0; i < tail; ++i) {
    EXPECT_NEAR(d.data[last * header.blockSize + i], repl[i], 1e-3 * 1.01);
  }

  // Full-block-plus-tail replacement crossing into the partial block.
  const auto repl2 = replacementValues(header.blockSize + tail, 7);
  const auto updated2 =
      codec.replaceBlocks<f32>(c.stream, last - 1, repl2);
  EXPECT_EQ(codec.decompress<f32>(updated2.stream).data.size(), data.size());
}

TEST(ReplaceBlocks, Validation) {
  const Fixture fx;
  CompressorStream comp(fx.cfg);
  const auto header = StreamHeader::parse(fx.compressed.stream);
  EXPECT_THROW(comp.replaceBlocks<f32>(fx.compressed.stream,
                                       header.numBlocks(),
                                       replacementValues(32, 9)),
               Error);
  EXPECT_THROW(
      comp.replaceBlocks<f32>(fx.compressed.stream, 0, std::span<const f32>{}),
      Error);
  EXPECT_THROW(comp.replaceBlocks<f64>(fx.compressed.stream, 0,
                                       std::vector<f64>(32, 0.0)),
               Error);
}

TEST(ReplaceBlocks, ShrinksWhenNewBlocksCompressBetter) {
  const Fixture fx;
  CompressorStream comp(fx.cfg);
  // All-zero replacement: blocks become 1-byte (offset only).
  const std::vector<f32> zeros(32 * 8, 0.0f);
  const auto updated = comp.replaceBlocks<f32>(fx.compressed.stream, 4,
                                               zeros);
  EXPECT_LT(updated.stream.size(), fx.compressed.stream.size());
  const auto d = comp.decompress<f32>(updated.stream);
  for (usize i = 4 * 32; i < 12 * 32; ++i) {
    ASSERT_EQ(d.data[i], 0.0f);
  }
}

TEST(ReplaceBlocks, RepeatedUpdatesStayConsistent) {
  Fixture fx(1 << 12);
  CompressorStream comp(fx.cfg);
  std::vector<f32> expected = fx.data;
  auto stream = fx.compressed.stream;
  Rng rng(99);
  const auto header = StreamHeader::parse(stream);
  for (int round = 0; round < 10; ++round) {
    const u64 blk = rng.uniformInt(header.numBlocks() - 3);
    const auto vals = replacementValues(32 * 2, 1000 + round);
    const auto updated = comp.replaceBlocks<f32>(stream, blk, vals);
    stream = updated.stream;
    std::copy(vals.begin(), vals.end(), expected.begin() + blk * 32);
  }
  const auto d = comp.decompress<f32>(stream);
  const auto stats = metrics::computeErrorStats<f32>(expected, d.data);
  EXPECT_TRUE(stats.withinBoundFp(header.absErrorBound, Precision::F32))
      << stats.maxAbsError;
}

TEST(ReplaceBlocks, PlainModeStreams) {
  Fixture fx(1 << 12, EncodingMode::Plain);
  CompressorStream comp(fx.cfg);
  const auto updated = comp.replaceBlocks<f32>(fx.compressed.stream, 2,
                                               replacementValues(32 * 2, 11));
  const auto header = StreamHeader::parse(updated.stream);
  EXPECT_EQ(header.mode, EncodingMode::Plain);
  EXPECT_NO_THROW(comp.decompress<f32>(updated.stream));
}

TEST(ReplaceBlocks, ProfileReportsWriteThroughput) {
  const Fixture fx;
  CompressorStream comp(fx.cfg);
  const auto updated = comp.replaceBlocks<f32>(fx.compressed.stream, 1,
                                               replacementValues(32 * 4, 12));
  EXPECT_GT(updated.profile.endToEndGBps, 0.0);
  EXPECT_GT(updated.profile.mem.bytesRead, 0u);
}

}  // namespace
}  // namespace cuszp2::core
