// Cross-version reader parity: one field under an ABS bound, written as
// v1, v1 SecondOrder, v2 and v3 (--pipeline fle), must read back the same
// through every reader the format versions share — block ranges,
// replaceBlocks and the salvage decoder all run one descriptor walk.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/error.hpp"
#include "core/block_codec.hpp"
#include "core/stream.hpp"

namespace cuszp2::core {
namespace {

constexpr u32 kBlock = 32;
constexpr u64 kBlocks = 48;
constexpr usize kElems = (kBlocks - 1) * kBlock + 13;  // partial tail block

enum class Writer { V1, V1SecondOrder, V2, V3Fle };

constexpr Writer kWriters[] = {Writer::V1, Writer::V1SecondOrder, Writer::V2,
                               Writer::V3Fle};

const char* name(Writer w) {
  switch (w) {
    case Writer::V1: return "v1";
    case Writer::V1SecondOrder: return "v1-second-order";
    case Writer::V2: return "v2";
    default: return "v3-fle";
  }
}

Config configFor(Writer w, bool checksum = false) {
  Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = checksum;
  cfg.blocksPerTile = 4;  // several tiles, so ranges straddle tiles
  if (w == Writer::V1SecondOrder) cfg.predictor = Predictor::SecondOrder;
  if (w == Writer::V2) cfg.blockChecksums = true;
  if (w == Writer::V3Fle) cfg.pipeline = PipelineMode::Fle;
  return cfg;
}

/// Smooth walk with jumps (outlier blocks) and one aligned zero block.
template <FloatingPoint T>
std::vector<T> makeField(usize n, f64 phase = 0.0) {
  std::vector<T> v(n);
  f64 x = 10.0 + phase;
  for (usize i = 0; i < n; ++i) {
    x += 0.01 * static_cast<f64>((i * 7919 + 13) % 11) - 0.05;
    if (i % 211 == 0) x += 40.0;
    v[i] = (i >= 5 * kBlock && i < 6 * kBlock) ? T{} : static_cast<T>(x);
  }
  return v;
}

template <FloatingPoint T>
void expectRangesMatchFullDecode() {
  const std::vector<T> field = makeField<T>(kElems);
  for (const Writer w : kWriters) {
    CompressorStream codec(configFor(w));
    const auto c = codec.compress<T>(std::span<const T>(field));
    ASSERT_EQ(StreamHeader::parse(c.stream).numBlocks(), kBlocks);
    const std::vector<T> full = codec.template decompress<T>(c.stream).data;
    const std::pair<u64, u64> ranges[] = {
        {0, 1}, {3, 7}, {5, 1}, {kBlocks - 1, 1}, {kBlocks - 6, 6},
        {0, kBlocks}};
    for (const auto& [first, count] : ranges) {
      const auto r = codec.template decompressBlocks<T>(c.stream, first,
                                                        count);
      const u64 eFirst = first * kBlock;
      const u64 eLast = std::min<u64>(kElems, (first + count) * kBlock);
      ASSERT_EQ(r.firstElement, eFirst) << name(w);
      ASSERT_EQ(r.values.size(), eLast - eFirst) << name(w);
      EXPECT_TRUE(std::equal(r.values.begin(), r.values.end(),
                             full.begin() + eFirst))
          << name(w) << " blocks [" << first << ", " << first + count
          << ")";
    }
  }
}

TEST(ReaderParity, BlockRangesMatchFullDecodeF32) {
  expectRangesMatchFullDecode<f32>();
}

TEST(ReaderParity, BlockRangesMatchFullDecodeF64) {
  expectRangesMatchFullDecode<f64>();
}

template <FloatingPoint T>
void expectReplaceMatchesCompressOfSplicedField() {
  const std::vector<T> field = makeField<T>(kElems);
  const std::vector<T> other = makeField<T>(kElems, -3.5);
  for (const Writer w : kWriters) {
    for (const bool checksum : {false, true}) {
      CompressorStream codec(configFor(w, checksum));
      const auto c = codec.compress<T>(std::span<const T>(field));
      // Single blocks at the head, middle and partial tail, and a run.
      const std::pair<u64, u64> splices[] = {
          {0, 1}, {17, 1}, {kBlocks - 1, 1}, {4, 9}};
      for (const auto& [first, count] : splices) {
        const u64 eFirst = first * kBlock;
        const u64 eLast = std::min<u64>(kElems, (first + count) * kBlock);
        std::vector<T> spliced = field;
        std::copy(other.begin() + eFirst, other.begin() + eLast,
                  spliced.begin() + eFirst);
        const auto replaced = codec.template replaceBlocks<T>(
            c.stream, first,
            std::span<const T>(other.data() + eFirst, eLast - eFirst));
        const auto direct = codec.compress<T>(std::span<const T>(spliced));
        EXPECT_EQ(replaced.stream, direct.stream)
            << name(w) << " checksum " << checksum << " blocks [" << first
            << ", " << first + count << ")";
      }
    }
  }
}

TEST(ReaderParity, ReplaceBlocksEqualsCompressOfSplicedFieldF32) {
  expectReplaceMatchesCompressOfSplicedField<f32>();
}

TEST(ReaderParity, ReplaceBlocksEqualsCompressOfSplicedFieldF64) {
  expectReplaceMatchesCompressOfSplicedField<f64>();
}

/// Payload-relative start and size of block `blk`, from the legacy offset
/// bytes (v3 FLE descriptors are the same bytes).
std::pair<usize, usize> blockSpan(ConstByteSpan stream, u64 blk) {
  const StreamHeader header = StreamHeader::parse(stream);
  const PayloadSizeTable psize(header.blockSize);
  usize cursor = 0;
  for (u64 b = 0; b < blk; ++b) {
    cursor += psize[stream[StreamHeader::offsetsBegin() + b]];
  }
  return {cursor, psize[stream[StreamHeader::offsetsBegin() + blk]]};
}

template <FloatingPoint T>
void expectSameQuarantineInV2AndV3() {
  const std::vector<T> field = makeField<T>(kElems);
  constexpr u64 kDamaged = 21;
  for (const Writer w : {Writer::V2, Writer::V3Fle}) {
    CompressorStream codec(configFor(w));
    auto stream = codec.compress<T>(std::span<const T>(field)).stream;
    const std::vector<T> clean = codec.template decompress<T>(stream).data;
    const auto [start, size] = blockSpan(stream, kDamaged);
    ASSERT_GT(size, 1u) << name(w);
    const usize at = StreamHeader::parse(stream).payloadBegin() + start;
    stream[at + 1] ^= std::byte{0x10};

    const auto s = codec.decompressResilient<T>(stream, T{-7});
    EXPECT_EQ(s.report.badBlocks, 1u) << name(w);
    EXPECT_FALSE(s.report.framingDamaged) << name(w);
    EXPECT_EQ(s.report.firstCorruptOffset, at) << name(w);
    for (u64 blk = 0; blk < kBlocks; ++blk) {
      const u64 eFirst = blk * kBlock;
      const u64 eLast = std::min<u64>(kElems, eFirst + kBlock);
      if (blk == kDamaged) {
        EXPECT_EQ(s.report.verdicts[blk], BlockVerdict::ChecksumMismatch)
            << name(w);
        for (u64 e = eFirst; e < eLast; ++e) EXPECT_EQ(s.data[e], T{-7});
      } else {
        EXPECT_EQ(s.report.verdicts[blk], BlockVerdict::Good)
            << name(w) << " block " << blk;
        EXPECT_TRUE(std::equal(s.data.begin() + eFirst,
                               s.data.begin() + eLast,
                               clean.begin() + eFirst))
            << name(w) << " block " << blk;
      }
    }
    EXPECT_THROW((void)codec.template decompress<T>(stream), Error);
  }
}

TEST(ReaderParity, FlippedPayloadByteQuarantinesSameBlockF32) {
  expectSameQuarantineInV2AndV3<f32>();
}

TEST(ReaderParity, FlippedPayloadByteQuarantinesSameBlockF64) {
  expectSameQuarantineInV2AndV3<f64>();
}

/// Which strict readers throw, and the salvage report, for one mutant.
struct Outcome {
  bool decompressThrows;
  bool rangeBeforeThrows;  // decompressBlocks of blocks [0, damaged)
  bool rangeAfterThrows;   // decompressBlocks of blocks after the damage
  bool replaceThrows;      // replaceBlocks of block 0
  u64 badBlocks;
  u64 checksumMismatches;
  u64 truncated;
  bool framingDamaged;
  u64 firstBadBlock;
};

Outcome observe(CompressorStream& codec, ConstByteSpan stream, u64 damaged,
                std::span<const f32> block0) {
  const auto throws = [](auto&& fn) {
    try {
      fn();
      return false;
    } catch (const Error&) {
      return true;
    }
  };
  Outcome o{};
  o.decompressThrows = throws([&] { (void)codec.decompress<f32>(stream); });
  o.rangeBeforeThrows = throws(
      [&] { (void)codec.decompressBlocks<f32>(stream, 0, damaged); });
  o.rangeAfterThrows = throws([&] {
    (void)codec.decompressBlocks<f32>(stream, damaged + 1, 4);
  });
  o.replaceThrows =
      throws([&] { (void)codec.replaceBlocks<f32>(stream, 0, block0); });
  const auto s = codec.decompressResilient<f32>(stream);
  o.badBlocks = s.report.badBlocks;
  o.framingDamaged = s.report.framingDamaged;
  o.firstBadBlock = kBlocks;
  for (u64 blk = 0; blk < s.report.verdicts.size(); ++blk) {
    const BlockVerdict v = s.report.verdicts[blk];
    if (v == BlockVerdict::ChecksumMismatch) ++o.checksumMismatches;
    if (v == BlockVerdict::Truncated) ++o.truncated;
    if (v != BlockVerdict::Good && o.firstBadBlock == kBlocks) {
      o.firstBadBlock = blk;
    }
  }
  return o;
}

/// Before v3 every descriptor byte is a legacy FLE offset byte: 0x40 (in
/// v3 the Rle pipeline id) reads as a Plain zero block, so every later
/// block shifts. The expected values are what the separate v1/v2 readers
/// produced before they were folded into the shared walk.
TEST(ReaderParity, LegacyOffsetByte0x40KeepsItsOutcome) {
  const std::vector<f32> field = makeField<f32>(kElems);
  constexpr u64 kDamaged = 9;
  for (const Writer w : {Writer::V1, Writer::V2}) {
    CompressorStream codec(configFor(w));
    auto stream = codec.compress<f32>(std::span<const f32>(field)).stream;
    ASSERT_GT(blockSpan(stream, kDamaged).second, 0u);
    stream[StreamHeader::offsetsBegin() + kDamaged] = std::byte{0x40};
    const Outcome o = observe(codec, stream, kDamaged,
                              std::span<const f32>(field.data(), kBlock));
    if (w == Writer::V1) {
      // No digests and no footer: every reader accepts the shifted
      // layout, and salvage has nothing to flag.
      EXPECT_FALSE(o.decompressThrows);
      EXPECT_FALSE(o.rangeBeforeThrows);
      EXPECT_FALSE(o.rangeAfterThrows);
      EXPECT_FALSE(o.replaceThrows);
      EXPECT_EQ(o.badBlocks, 0u);
      EXPECT_FALSE(o.framingDamaged);
    } else {
      EXPECT_TRUE(o.decompressThrows);
      EXPECT_TRUE(o.rangeBeforeThrows);
      EXPECT_TRUE(o.rangeAfterThrows);
      EXPECT_TRUE(o.replaceThrows);
      // The damaged block and every shifted block after it fail their
      // digests, and the payload ends short of the footer.
      EXPECT_EQ(o.badBlocks, kBlocks - kDamaged);
      EXPECT_EQ(o.checksumMismatches, kBlocks - kDamaged);
      EXPECT_EQ(o.truncated, 0u);
      EXPECT_TRUE(o.framingDamaged);
      EXPECT_EQ(o.firstBadBlock, kDamaged);
    }
  }
}

}  // namespace
}  // namespace cuszp2::core
