// Format-v3 pipeline tests: stage primitives (symbol mapping, Huffman
// table, RLE, Lorenzo-2D), the per-block selector's guarantees, the
// mixed-pipeline salvage regression (a corrupted Huffman block between
// intact FLE blocks quarantines exactly one block), dictionary-damage
// quarantine, v3 random access / block replacement, and the strict
// in-kernel digest check's failure order.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/error.hpp"
#include "core/pipeline.hpp"
#include "core/stream.hpp"

namespace cuszp2 {
namespace {

using core::BlockCandidates;
using core::CompressorStream;
using core::Config;
using core::HuffDecoder;
using core::HuffTable;
using core::PipelineId;
using core::PipelineMode;
using core::StreamHeader;
using core::V3BlockDesc;

// ---- deterministic data shaped to force a mixed Auto selection ----------
//
// Even blocks are all-zero (FLE encodes them in 0 payload bytes — nothing
// can beat that); odd blocks carry skewed small-alphabet noise plus a few
// in-alphabet spikes, so plain FLE must widen every element to the spike
// magnitude while the shared-table Huffman encoding pays for the spikes
// only where they occur (comfortably beating FLE even with the u16
// entropy size prefix charged).
// With abs bound 0.01 the quantization step is 0.02 and every value below
// is an exact multiple, so the quantizer reproduces the intended residuals.

constexpr u32 kBlock = 32;
constexpr f64 kAbsBound = 0.01;

u64 lcgNext(u64& state) {
  state = state * 6364136223846793005ull + 1442695040888963407ull;
  return state >> 33;
}

/// Residual drawn from a skewed small alphabet: mostly 0/±1, rare ±3.
i32 skewedResidual(u64& state) {
  const u64 r = lcgNext(state) % 16;
  if (r < 7) return 0;
  if (r < 10) return 1;
  if (r < 13) return -1;
  if (r < 14) return 2;
  if (r < 15) return -2;
  return 3;
}

std::vector<f32> mixedSelectionField(usize numBlocks, usize tailElems = 0) {
  std::vector<f32> field;
  field.reserve(numBlocks * kBlock + tailElems);
  u64 state = 0x5eed5eedULL;
  // Values are produced exactly as the decoder dequantizes (f64 multiply,
  // then narrow), so a clean round trip is bit-identical to the input.
  const f64 step = 2.0 * kAbsBound;
  for (usize blk = 0; blk < numBlocks; ++blk) {
    i32 q = 0;
    for (usize i = 0; i < kBlock; ++i) {
      if (blk % 2 == 1) {
        q += skewedResidual(state);
        if (i == 10) q += 37;  // rare large residuals: FLE widens the
        if (i == 20) q -= 53;  // whole block, Huffman pays per occurrence
      }
      field.push_back(static_cast<f32>(static_cast<f64>(q) * step));
    }
  }
  for (usize i = 0; i < tailElems; ++i) {
    field.push_back(static_cast<f32>(static_cast<f64>(i % 3) * step));
  }
  return field;
}

Config v3Config(PipelineMode mode) {
  Config cfg;
  cfg.absErrorBound = kAbsBound;
  cfg.blockSize = kBlock;
  cfg.pipeline = mode;
  return cfg;
}

/// Per-block pipeline ids of a v3 stream, from the descriptor array.
std::vector<PipelineId> streamPipelines(ConstByteSpan stream) {
  const StreamHeader header = StreamHeader::parse(stream);
  std::vector<PipelineId> ids;
  for (u64 blk = 0; blk < header.numBlocks(); ++blk) {
    const V3BlockDesc desc = V3BlockDesc::unpack(
        stream.data() + StreamHeader::offsetsBegin() + blk * core::kV3DescBytes);
    ids.push_back(desc.pipeline);
  }
  return ids;
}

/// Stream-relative byte offset of one block's payload in a v3 stream.
usize v3PayloadOffset(ConstByteSpan stream, u64 block) {
  const StreamHeader header = StreamHeader::parse(stream);
  const core::PayloadSizeTable psize(header.blockSize);
  const usize payloadEnd = stream.size() - header.footerBytes();
  usize cursor = header.payloadBegin();
  for (u64 blk = 0; blk < block; ++blk) {
    const V3BlockDesc desc = V3BlockDesc::unpack(
        stream.data() + StreamHeader::offsetsBegin() + blk * core::kV3DescBytes);
    cursor += desc.payloadBytes(psize, stream.data() + cursor,
                                payloadEnd - cursor);
  }
  return cursor;
}

// ---- stage primitives ---------------------------------------------------

TEST(PipelineStages, ZigzagAndSymbolMapping) {
  for (const i32 v : {0, 1, -1, 2, -2, 511, -511, 1 << 20, -(1 << 20)}) {
    EXPECT_EQ(core::zigzagDecode(core::zigzagEncode(v)), v) << v;
  }
  EXPECT_EQ(core::symbolOf(0), 0u);
  EXPECT_EQ(core::symbolOf(-1), 1u);
  EXPECT_EQ(core::symbolOf(1), 2u);
  // 511 zigzags to 1022 (last in-alphabet symbol); anything larger escapes.
  EXPECT_EQ(core::symbolOf(511), 1022u);
  EXPECT_EQ(core::symbolOf(-512), core::kEscapeSymbol);
  EXPECT_EQ(core::symbolOf(1 << 29), core::kEscapeSymbol);
}

TEST(PipelineStages, RleRoundTripWithRunsAndEscapes) {
  std::vector<i32> residuals;
  residuals.insert(residuals.end(), 300, 5);  // run longer than the 256 cap
  residuals.insert(residuals.end(), 10, -2);
  residuals.push_back(1 << 25);  // escape
  residuals.insert(residuals.end(), 40, 0);
  residuals.push_back(-(1 << 28));  // escape

  const usize bytes = core::rleBlockBytes([&] {
    std::vector<u16> symbols;
    for (const i32 r : residuals) symbols.push_back(core::symbolOf(r));
    return symbols;
  }());
  std::vector<std::byte> payload(bytes);
  ASSERT_EQ(core::encodeRleBlock(residuals, payload.data()), bytes);

  std::vector<i32> decoded(residuals.size());
  core::decodeRleBlock(payload, decoded);
  EXPECT_EQ(decoded, residuals);
}

TEST(PipelineStages, HuffmanTableAndBlockRoundTrip) {
  std::vector<u64> freq(core::kSymbolAlphabet, 0);
  freq[0] = 1000;
  freq[1] = 400;
  freq[2] = 380;
  freq[3] = 70;
  freq[4] = 60;
  freq[5] = 90;
  freq[6] = 85;
  freq[core::kEscapeSymbol] = 3;
  const HuffTable table = HuffTable::fromFrequencies(freq);
  ASSERT_FALSE(table.empty());

  // Wire round trip.
  std::vector<std::byte> wire(table.serializedBytes());
  table.serialize(wire.data());
  const HuffTable parsed = HuffTable::parse(wire);
  EXPECT_EQ(parsed.lengths, table.lengths);
  EXPECT_EQ(parsed.codes, table.codes);

  // Block round trip, escapes included.
  std::vector<i32> residuals = {0,  -1, 1,  0, 0, 2, -3, 0,
                                0,  1,  -1, 0, 0, 0, 1,  0,
                                -1, 0,  0,  1, 0, 0, -1, 1 << 26,
                                0,  0,  1,  0, 0, 0, -1, 0};
  std::vector<u16> symbols;
  for (const i32 r : residuals) symbols.push_back(core::symbolOf(r));
  const usize bytes = core::huffmanBlockBytes(symbols, table);
  ASSERT_NE(bytes, core::kInvalidSize);
  std::vector<std::byte> payload(bytes);
  ASSERT_EQ(core::encodeHuffmanBlock(residuals, table, payload.data()), bytes);

  const HuffDecoder decoder(table);
  std::vector<i32> decoded(residuals.size());
  core::decodeHuffmanBlock(payload, decoder, decoded);
  EXPECT_EQ(decoded, residuals);
}

TEST(PipelineStages, Lorenzo2dRoundTrip) {
  // A 4x8 tile (block of 32) with row/column structure Lorenzo removes.
  std::vector<i32> quants(32);
  for (usize r = 0; r < 4; ++r) {
    for (usize c = 0; c < 8; ++c) {
      quants[r * 8 + c] = static_cast<i32>(10 * r + 3 * c) - 15;
    }
  }
  std::vector<i32> residuals(32);
  ASSERT_TRUE(core::lorenzo2dResiduals(quants, residuals));
  std::vector<i32> rebuilt(32);
  core::lorenzo2dReconstruct(residuals, rebuilt);
  EXPECT_EQ(rebuilt, quants);
  // Interior of a bilinear surface predicts exactly.
  EXPECT_EQ(residuals[9], 0);
  EXPECT_EQ(residuals[31], 0);
}

TEST(PipelineStages, PipelineTableMatchesWireIds) {
  const auto table = core::pipelineTable();
  ASSERT_EQ(table.size(), core::kPipelineCount);
  for (u32 i = 0; i < core::kPipelineCount; ++i) {
    EXPECT_EQ(static_cast<u32>(table[i].id), i);
  }
  EXPECT_EQ(table[0].predict, core::PredictStage::Delta1);
  EXPECT_EQ(table[0].encode, core::EncodeStage::Fle);
  EXPECT_EQ(table[3].predict, core::PredictStage::Lorenzo2D);
  EXPECT_EQ(table[3].encode, core::EncodeStage::Fle);
}

// ---- selector -----------------------------------------------------------

TEST(PipelineSelector, AutoPicksPerBlockMinimumAndChargesTable) {
  std::vector<BlockCandidates> blocks(3);
  // Block 0: FLE wins outright.
  blocks[0].bytes[0] = 4;
  blocks[0].bytes[1] = 10;
  blocks[0].bytes[2] = 12;
  blocks[0].bytes[3] = 9;
  // Block 1: Huffman would save 20 bytes.
  blocks[1].bytes[0] = 30;
  blocks[1].bytes[1] = 10;
  blocks[1].bytes[2] = 40;
  blocks[1].bytes[3] = 28;
  // Block 2: RLE wins.
  blocks[2].bytes[0] = 20;
  blocks[2].bytes[1] = 18;
  blocks[2].bytes[2] = 6;
  blocks[2].bytes[3] = 22;

  // Table cheaper than Huffman's savings: admitted.
  auto sel = core::selectPipelines(blocks, PipelineMode::Auto, 15);
  EXPECT_TRUE(sel.usesHuffman);
  EXPECT_EQ(sel.choice[0], PipelineId::Fle);
  EXPECT_EQ(sel.choice[1], PipelineId::Huffman);
  EXPECT_EQ(sel.choice[2], PipelineId::Rle);
  EXPECT_EQ(sel.totalPayload, 4u + 10u + 6u);

  // Table dearer than the savings: Huffman rejected stream-wide.
  sel = core::selectPipelines(blocks, PipelineMode::Auto, 100);
  EXPECT_FALSE(sel.usesHuffman);
  EXPECT_EQ(sel.choice[1], PipelineId::LorenzoFle);
  EXPECT_EQ(sel.totalPayload, 4u + 28u + 6u);
}

TEST(PipelineSelector, PinnedFallsBackToFleWhenInvalid) {
  std::vector<BlockCandidates> blocks(2);
  blocks[0].bytes[0] = 7;
  blocks[0].bytes[3] = 5;
  blocks[1].bytes[0] = 9;
  blocks[1].bytes[3] = core::kInvalidSize;  // Lorenzo residual overflow

  const auto sel =
      core::selectPipelines(blocks, PipelineMode::LorenzoFle, 0);
  EXPECT_EQ(sel.choice[0], PipelineId::LorenzoFle);
  EXPECT_EQ(sel.choice[1], PipelineId::Fle);
  EXPECT_EQ(sel.totalPayload, 5u + 9u);
  EXPECT_FALSE(sel.usesHuffman);
}

// ---- mixed-stream behaviour and the salvage regression ------------------

TEST(PipelineV3, AutoSelectsMixedPipelinesOnShapedData) {
  const std::vector<f32> field = mixedSelectionField(64);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));

  const StreamHeader header = StreamHeader::parse(c.stream);
  EXPECT_EQ(header.version, core::kFormatVersionV3);
  EXPECT_GT(header.dictBytes, 8u);  // shared Huffman table admitted

  usize fle = 0;
  usize huff = 0;
  for (const PipelineId id : streamPipelines(c.stream)) {
    fle += id == PipelineId::Fle;
    huff += id == PipelineId::Huffman;
  }
  EXPECT_GE(fle, 16u);
  EXPECT_GE(huff, 16u);

  // The mixed stream must also beat pinned-FLE on this data.
  CompressorStream pinned(v3Config(PipelineMode::Fle));
  const auto cFle = pinned.compress<f32>(std::span<const f32>(field));
  EXPECT_LT(c.stream.size(), cFle.stream.size());

  const auto d = codec.decompress<f32>(c.stream);
  ASSERT_EQ(d.data.size(), field.size());
  EXPECT_EQ(std::memcmp(d.data.data(), field.data(),
                        field.size() * sizeof(f32)),
            0);
}

/// Regression (the satellite fix): one corrupted Huffman block between two
/// intact FLE blocks quarantines exactly that block; both neighbours and
/// every other block decode bit-exactly, and the dictionary stays good.
TEST(PipelineV3, SalvageQuarantinesOneHuffmanBlockBetweenFleBlocks) {
  const std::vector<f32> field = mixedSelectionField(64);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto clean = codec.decompress<f32>(c.stream);

  // Find a Huffman block with FLE blocks on both sides (the shaped data's
  // even/odd structure guarantees one exists).
  const std::vector<PipelineId> ids = streamPipelines(c.stream);
  usize victim = ids.size();
  for (usize blk = 1; blk + 1 < ids.size(); ++blk) {
    if (ids[blk] == PipelineId::Huffman && ids[blk - 1] == PipelineId::Fle &&
        ids[blk + 1] == PipelineId::Fle) {
      victim = blk;
      break;
    }
  }
  ASSERT_LT(victim, ids.size()) << "shaped data produced no FLE/Huffman/FLE "
                                   "sandwich; selection changed?";

  std::vector<std::byte> corrupt = c.stream;
  const usize payloadAt = v3PayloadOffset(corrupt, victim);
  corrupt[payloadAt + 2] ^= std::byte{0x5a};

  const auto s = codec.decompressResilient<f32>(
      ConstByteSpan(corrupt), std::numeric_limits<f32>::quiet_NaN());
  EXPECT_TRUE(s.report.headerOk);
  EXPECT_TRUE(s.report.blockChecksums);
  EXPECT_TRUE(s.report.dictionaryOk);
  EXPECT_FALSE(s.report.framingDamaged);
  EXPECT_EQ(s.report.badBlocks, 1u);
  EXPECT_EQ(s.report.goodBlocks, ids.size() - 1);
  EXPECT_EQ(s.report.firstCorruptOffset, payloadAt);
  ASSERT_EQ(s.report.verdicts.size(), ids.size());
  for (usize blk = 0; blk < ids.size(); ++blk) {
    if (blk == victim) {
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::ChecksumMismatch);
    } else {
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::Good) << blk;
    }
  }

  // Quarantined elements hold the fill; every other element is bit-exact.
  ASSERT_EQ(s.data.size(), field.size());
  for (usize i = 0; i < s.data.size(); ++i) {
    if (i / kBlock == victim) {
      EXPECT_TRUE(std::isnan(s.data[i])) << i;
    } else {
      EXPECT_EQ(std::memcmp(&s.data[i], &clean.data[i], sizeof(f32)), 0) << i;
    }
  }
}

/// Dictionary damage quarantines exactly the Huffman blocks: the shared
/// table fails its CRC, so table-free pipelines still decode bit-exactly.
TEST(PipelineV3, SalvageSurvivesDictionaryCorruption) {
  const std::vector<f32> field = mixedSelectionField(64);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto clean = codec.decompress<f32>(c.stream);
  const StreamHeader header = StreamHeader::parse(c.stream);
  ASSERT_GT(header.dictBytes, 8u);

  std::vector<std::byte> corrupt = c.stream;
  corrupt[header.dictBegin() + 8 + 3] ^= std::byte{0xff};

  const auto s = codec.decompressResilient<f32>(ConstByteSpan(corrupt), 0.0f);
  const std::vector<PipelineId> ids = streamPipelines(c.stream);
  EXPECT_TRUE(s.report.headerOk);
  EXPECT_FALSE(s.report.dictionaryOk);
  EXPECT_FALSE(s.report.clean());
  ASSERT_EQ(s.report.verdicts.size(), ids.size());
  usize huffBlocks = 0;
  for (usize blk = 0; blk < ids.size(); ++blk) {
    if (ids[blk] == PipelineId::Huffman) {
      ++huffBlocks;
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::DecodeError)
          << blk;
      for (usize i = blk * kBlock; i < (blk + 1) * kBlock; ++i) {
        EXPECT_EQ(s.data[i], 0.0f) << i;
      }
    } else {
      EXPECT_EQ(s.report.verdicts[blk], core::BlockVerdict::Good) << blk;
      for (usize i = blk * kBlock; i < (blk + 1) * kBlock; ++i) {
        EXPECT_EQ(std::memcmp(&s.data[i], &clean.data[i], sizeof(f32)), 0)
            << i;
      }
    }
  }
  EXPECT_EQ(s.report.badBlocks, huffBlocks);
  EXPECT_GT(huffBlocks, 0u);
}

TEST(PipelineV3, IntactStreamSalvagesClean) {
  const std::vector<f32> field = mixedSelectionField(16, 13);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto s = codec.decompressResilient<f32>(ConstByteSpan(c.stream));
  EXPECT_TRUE(s.report.clean());
  EXPECT_EQ(s.report.badBlocks, 0u);
  EXPECT_EQ(s.report.goodBlocks, s.report.totalBlocks);
}

// ---- v3 random access and replacement -----------------------------------

TEST(PipelineV3, RandomAccessMatchesFullDecode) {
  const std::vector<f32> field = mixedSelectionField(32, 7);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto full = codec.decompress<f32>(c.stream);

  const StreamHeader header = StreamHeader::parse(c.stream);
  const std::vector<std::pair<u64, u64>> ranges = {
      {0, 1}, {3, 5}, {30, 3}, {0, header.numBlocks()}};
  for (const auto& [first, count] : ranges) {
    const auto r = codec.decompressBlocks<f32>(c.stream, first, count);
    EXPECT_EQ(r.firstElement, first * kBlock);
    const usize begin = static_cast<usize>(r.firstElement);
    ASSERT_LE(begin + r.values.size(), full.data.size());
    EXPECT_EQ(std::memcmp(r.values.data(), full.data.data() + begin,
                          r.values.size() * sizeof(f32)),
              0)
        << "blocks [" << first << ", " << first + count << ")";
  }
}

TEST(PipelineV3, ReplaceBlocksReencodesAndPreservesTheRest) {
  const std::vector<f32> field = mixedSelectionField(32);
  CompressorStream codec(v3Config(PipelineMode::Auto));
  const auto c = codec.compress<f32>(std::span<const f32>(field));

  // Overwrite two blocks (one of them Huffman-coded) with fresh values.
  const u64 firstBlock = 4;
  std::vector<f32> replacement(2 * kBlock);
  for (usize i = 0; i < replacement.size(); ++i) {
    replacement[i] = static_cast<f32>(static_cast<i32>(i) - 20) * 0.02f;
  }
  const auto patched = codec.replaceBlocks<f32>(
      ConstByteSpan(c.stream), firstBlock, std::span<const f32>(replacement));

  const StreamHeader header = StreamHeader::parse(patched.stream);
  EXPECT_EQ(header.version, core::kFormatVersionV3);

  const auto d = codec.decompress<f32>(patched.stream);
  ASSERT_EQ(d.data.size(), field.size());
  for (usize i = 0; i < d.data.size(); ++i) {
    const usize blk = i / kBlock;
    if (blk >= firstBlock && blk < firstBlock + 2) {
      const f32 want = replacement[i - firstBlock * kBlock];
      EXPECT_NEAR(d.data[i], want, kAbsBound * (1.0 + 1e-6)) << i;
    } else {
      EXPECT_EQ(std::memcmp(&d.data[i], &field[i], sizeof(f32)), 0) << i;
    }
  }
}

// ---- strict digest failures: in-kernel check, deterministic order -------

/// A v3 stream with the footer digests of blocks `lo` and `hi` damaged.
std::vector<std::byte> withDamagedDigests(std::vector<std::byte> stream,
                                          u64 lo, u64 hi) {
  const StreamHeader header = StreamHeader::parse(stream);
  const usize footer = stream.size() - header.footerBytes();
  stream[footer + 2 * lo] ^= std::byte{0x01};
  stream[footer + 2 * hi + 1] ^= std::byte{0x80};
  return stream;
}

std::string strictError(CompressorStream& codec, ConstByteSpan stream,
                        u64 firstBlock = 0, u64 blockCount = 0) {
  try {
    if (blockCount == 0) {
      codec.decompress<f32>(stream);
    } else {
      codec.decompressBlocks<f32>(stream, firstBlock, blockCount);
    }
  } catch (const Error& e) {
    return e.what();
  }
  return "";
}

/// Two damaged blocks in different tiles: the decode kernel's tiles race
/// (ctest runs this suite on 4 workers), yet the error always names the
/// lower block with its payload offset.
TEST(PipelineV3, StrictDigestErrorNamesLowestBlockAtAnyTileOrder) {
  const std::vector<f32> field = mixedSelectionField(64);
  Config cfg = v3Config(PipelineMode::Auto);
  cfg.blocksPerTile = 4;
  CompressorStream codec(cfg);
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const u64 lo = 9;   // tile 2
  const u64 hi = 50;  // tile 12
  const std::vector<std::byte> corrupt = withDamagedDigests(c.stream, lo, hi);

  const std::string want =
      "decompress: per-block checksum mismatch at block " +
      std::to_string(lo) + " (stream byte offset " +
      std::to_string(v3PayloadOffset(corrupt, lo)) +
      ") — the stream is corrupted";
  for (int run = 0; run < 20; ++run) {
    EXPECT_EQ(strictError(codec, ConstByteSpan(corrupt)), want) << run;
  }
}

TEST(PipelineV3, BlockRangeChecksOnlyTheRequestedDigests) {
  const std::vector<f32> field = mixedSelectionField(64);
  Config cfg = v3Config(PipelineMode::Auto);
  cfg.blocksPerTile = 4;
  CompressorStream codec(cfg);
  const auto c = codec.compress<f32>(std::span<const f32>(field));
  const auto clean = codec.decompress<f32>(c.stream);
  const std::vector<std::byte> corrupt = withDamagedDigests(c.stream, 9, 50);

  // A range covering a damaged block throws, naming it.
  const std::string err = strictError(codec, ConstByteSpan(corrupt), 40, 16);
  EXPECT_NE(err.find("decompressBlocks: per-block checksum mismatch at "
                     "block 50 "),
            std::string::npos)
      << err;

  // A range between the damaged blocks decodes bit-exactly.
  const auto r = codec.decompressBlocks<f32>(ConstByteSpan(corrupt), 10, 40);
  EXPECT_EQ(r.firstElement, 10u * kBlock);
  ASSERT_EQ(r.values.size(), 40u * kBlock);
  EXPECT_EQ(std::memcmp(r.values.data(), clean.data.data() + 10 * kBlock,
                        r.values.size() * sizeof(f32)),
            0);
}

}  // namespace
}  // namespace cuszp2
