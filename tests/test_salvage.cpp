// Corruption-matrix tests for format v2 (per-block CRC footer) and the
// salvage decoder: strict decode must reject damage with a precise Error,
// decompressResilient must quarantine exactly the damaged blocks and
// recover every other block bit-exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/block_codec.hpp"
#include "core/segmented.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::core {
namespace {

constexpr f32 kFill = -7.0f;

struct V2Fixture {
  std::vector<f32> data;
  std::vector<std::byte> stream;    // version 2, stream CRC + block CRCs
  std::vector<std::byte> v1Stream;  // same data, version 1
  std::vector<f32> clean;           // reference decode
  StreamHeader header;
  std::vector<usize> blockPos;   // payload-relative start per block
  std::vector<usize> blockSize;  // payload bytes per block

  V2Fixture() {
    data = datagen::generateF32("scale", 3, 1 << 12);
    // A full aligned zero block, to distinguish "decoded zero" from the
    // salvage fill value.
    std::fill(data.begin() + 64, data.begin() + 96, 0.0f);

    Config cfg;
    cfg.absErrorBound = 1e-2;
    cfg.checksum = true;
    cfg.blockChecksums = true;
    CompressorStream codec(cfg);
    stream = codec.compress<f32>(data).stream;
    clean = codec.decompress<f32>(stream).data;

    cfg.blockChecksums = false;
    codec.reconfigure(cfg);
    v1Stream = codec.compress<f32>(data).stream;

    header = StreamHeader::parse(stream);
    usize cursor = 0;
    for (u64 blk = 0; blk < header.numBlocks(); ++blk) {
      const auto h = BlockHeader::unpack(std::to_integer<u8>(
          stream[StreamHeader::offsetsBegin() + blk]));
      blockPos.push_back(cursor);
      blockSize.push_back(payloadSize(h, header.blockSize));
      cursor += blockSize.back();
    }
  }

  /// Elements covered by one block.
  std::pair<u64, u64> blockElems(u64 blk) const {
    const u64 first = blk * header.blockSize;
    return {first,
            std::min<u64>(header.numElements, first + header.blockSize)};
  }
};

CompressorStream& salvageCodec() {
  static CompressorStream codec(Config{.absErrorBound = 1e-2});
  return codec;
}

/// Every Good-verdict block must match the clean decode bit-exactly;
/// every quarantined block must hold the fill value.
void expectVerdictsHonoured(const V2Fixture& fx, const Salvaged<f32>& s) {
  ASSERT_TRUE(s.report.headerOk);
  ASSERT_EQ(s.report.verdicts.size(), fx.header.numBlocks());
  ASSERT_EQ(s.data.size(), fx.clean.size());
  for (u64 blk = 0; blk < fx.header.numBlocks(); ++blk) {
    const auto [first, last] = fx.blockElems(blk);
    if (s.report.verdicts[blk] == BlockVerdict::Good) {
      EXPECT_EQ(0, std::memcmp(s.data.data() + first,
                               fx.clean.data() + first,
                               (last - first) * sizeof(f32)))
          << "good block " << blk << " not bit-exact";
    } else {
      for (u64 e = first; e < last; ++e) {
        EXPECT_EQ(s.data[e], kFill) << "bad block " << blk << " elem " << e;
      }
    }
  }
}

TEST(FormatV2, LayoutIsV1PlusFooter) {
  const V2Fixture fx;
  EXPECT_EQ(fx.header.version, kFormatVersionV2);
  EXPECT_TRUE(fx.header.hasBlockChecksums());
  EXPECT_EQ(StreamHeader::parse(fx.v1Stream).version, kFormatVersion);

  // Offsets + payload are byte-identical to the version-1 stream; only
  // the header words and the appended footer differ.
  ASSERT_EQ(fx.stream.size(),
            fx.v1Stream.size() + 2 * fx.header.numBlocks());
  EXPECT_EQ(0, std::memcmp(fx.stream.data() + StreamHeader::kBytes,
                           fx.v1Stream.data() + StreamHeader::kBytes,
                           fx.v1Stream.size() - StreamHeader::kBytes));
}

TEST(FormatV2, StrictRoundTripAndRandomAccess) {
  const V2Fixture fx;
  CompressorStream& codec = salvageCodec();
  EXPECT_EQ(codec.decompress<f32>(fx.stream).data, fx.clean);
  const auto range = codec.decompressBlocks<f32>(fx.stream, 3, 5);
  for (usize i = 0; i < range.values.size(); ++i) {
    EXPECT_EQ(range.values[i], fx.clean[range.firstElement + i]);
  }
}

TEST(FormatV2, ReplaceBlocksRebuildsFooter) {
  const V2Fixture fx;
  CompressorStream& codec = salvageCodec();
  std::vector<f32> repl(fx.header.blockSize * 2, 3.25f);
  const auto patched = codec.replaceBlocks<f32>(fx.stream, 4, repl);
  EXPECT_EQ(StreamHeader::parse(patched.stream).version, kFormatVersionV2);
  // The patched stream must still pass full strict validation.
  const auto d = codec.decompress<f32>(patched.stream);
  for (u32 i = 0; i < fx.header.blockSize * 2; ++i) {
    EXPECT_NEAR(d.data[4 * fx.header.blockSize + i], 3.25f, 1e-2);
  }
}

TEST(Salvage, CleanStreamReportsClean) {
  const V2Fixture fx;
  const auto s = salvageCodec().decompressResilient<f32>(fx.stream, kFill);
  EXPECT_TRUE(s.report.clean());
  EXPECT_TRUE(s.report.blockChecksums);
  EXPECT_TRUE(s.report.streamChecksumOk);
  EXPECT_EQ(s.report.goodBlocks, fx.header.numBlocks());
  EXPECT_EQ(s.report.badBlocks, 0u);
  EXPECT_EQ(s.report.firstCorruptOffset, DecodeReport::kNoCorruption);
  EXPECT_EQ(s.data, fx.clean);
}

// The ISSUE's acceptance shape: k damaged blocks -> exactly k quarantined,
// everything else recovered bit-exactly.
TEST(Salvage, ExactlyKCorruptBlocksQuarantined) {
  const V2Fixture fx;
  // Pick 3 spread-out blocks with non-empty payloads.
  std::vector<u64> victims;
  for (u64 blk = 2; blk < fx.header.numBlocks() && victims.size() < 3;
       blk += 41) {
    if (fx.blockSize[blk] > 0) victims.push_back(blk);
  }
  ASSERT_EQ(victims.size(), 3u);

  auto corrupted = fx.stream;
  const usize payloadBegin = fx.header.payloadBegin();
  for (const u64 blk : victims) {
    corrupted[payloadBegin + fx.blockPos[blk]] ^= std::byte{0x10};
  }

  CompressorStream& codec = salvageCodec();
  EXPECT_THROW((void)codec.decompress<f32>(corrupted), Error);

  const auto s = codec.decompressResilient<f32>(corrupted, kFill);
  EXPECT_EQ(s.report.badBlocks, victims.size());
  EXPECT_EQ(s.report.goodBlocks,
            fx.header.numBlocks() - victims.size());
  EXPECT_FALSE(s.report.streamChecksumOk);
  EXPECT_EQ(s.report.firstCorruptOffset,
            payloadBegin + fx.blockPos[victims.front()]);
  for (const u64 blk : victims) {
    EXPECT_EQ(s.report.verdicts[blk], BlockVerdict::ChecksumMismatch);
  }
  expectVerdictsHonoured(fx, s);
}

TEST(Salvage, ZeroBlocksDecodeToZeroNotFill) {
  const V2Fixture fx;
  const u64 zeroBlk = 64 / fx.header.blockSize;  // the zeroed range
  ASSERT_EQ(fx.blockSize[zeroBlk], 0u);

  auto corrupted = fx.stream;
  corrupted[fx.header.payloadBegin() + fx.blockPos[2]] ^= std::byte{1};
  const auto s = salvageCodec().decompressResilient<f32>(corrupted, kFill);
  ASSERT_EQ(s.report.verdicts[zeroBlk], BlockVerdict::Good);
  const auto [first, last] = fx.blockElems(zeroBlk);
  for (u64 e = first; e < last; ++e) EXPECT_EQ(s.data[e], 0.0f);
}

// Truncation at every region boundary (and just past each): strict must
// throw, salvage must survive and honour its verdicts.
TEST(Salvage, TruncationMatrix) {
  const V2Fixture fx;
  CompressorStream& codec = salvageCodec();
  const usize payloadBegin = fx.header.payloadBegin();
  const usize payloadEnd = fx.stream.size() - fx.header.footerBytes();
  const usize cuts[] = {0,
                        1,
                        StreamHeader::kBytes / 2,     // mid-header
                        StreamHeader::kBytes - 1,
                        StreamHeader::kBytes,         // header/offsets edge
                        StreamHeader::kBytes + 5,     // mid-offsets
                        payloadBegin - 1,
                        payloadBegin,                 // offsets/payload edge
                        payloadBegin + 1,
                        (payloadBegin + payloadEnd) / 2,  // mid-payload
                        payloadEnd - 1,
                        payloadEnd,                   // payload/footer edge
                        payloadEnd + 1,               // mid-footer
                        fx.stream.size() - 1};
  for (const usize cut : cuts) {
    auto truncated = fx.stream;
    truncated.resize(cut);
    EXPECT_THROW((void)codec.decompress<f32>(truncated), Error)
        << "cut " << cut;
    const auto s = codec.decompressResilient<f32>(truncated, kFill);
    EXPECT_FALSE(s.report.clean()) << "cut " << cut;
    if (!s.report.headerOk) {
      EXPECT_TRUE(s.data.empty()) << "cut " << cut;
      EXPECT_FALSE(s.report.headerError.empty()) << "cut " << cut;
    } else {
      expectVerdictsHonoured(fx, s);
    }
  }
}

// 200 seeded single-bit mutants over offsets + payload + footer: strict
// either rejects or succeeds, salvage honours verdicts (never crashes,
// Good blocks stay bit-exact).
TEST(Salvage, SeededByteFlipMutants) {
  const V2Fixture fx;
  CompressorStream& codec = salvageCodec();
  Rng rng(0xC0FFEEull);
  for (int trial = 0; trial < 200; ++trial) {
    auto corrupted = fx.stream;
    const usize pos =
        StreamHeader::kBytes +
        rng.uniformInt(corrupted.size() - StreamHeader::kBytes);
    corrupted[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    try {
      (void)codec.decompress<f32>(corrupted);
      FAIL() << "stream-CRC'd mutant accepted, trial " << trial;
    } catch (const Error&) {
    }
    const auto s = codec.decompressResilient<f32>(corrupted, kFill);
    expectVerdictsHonoured(fx, s);
    EXPECT_GT(s.report.badBlocks + (s.report.streamChecksumOk ? 0 : 1), 0u)
        << "trial " << trial;
  }
}

// Version-1 salvage is structural only: a truncated stream splits into a
// bit-exact Good prefix and a Truncated suffix.
TEST(Salvage, V1TruncationSplitsPrefixSuffix) {
  const V2Fixture fx;
  CompressorStream& codec = salvageCodec();
  auto truncated = fx.v1Stream;
  truncated.resize(truncated.size() * 3 / 4);
  const auto s = codec.decompressResilient<f32>(truncated, kFill);
  ASSERT_TRUE(s.report.headerOk);
  EXPECT_FALSE(s.report.blockChecksums);
  EXPECT_GT(s.report.badBlocks, 0u);
  EXPECT_GT(s.report.goodBlocks, 0u);
  bool seenBad = false;
  for (u64 blk = 0; blk < fx.header.numBlocks(); ++blk) {
    const bool good = s.report.verdicts[blk] == BlockVerdict::Good;
    if (!good) {
      EXPECT_EQ(s.report.verdicts[blk], BlockVerdict::Truncated);
      seenBad = true;
    } else {
      EXPECT_FALSE(seenBad) << "Good block after a Truncated one";
      const auto [first, last] = fx.blockElems(blk);
      EXPECT_EQ(0, std::memcmp(s.data.data() + first,
                               fx.clean.data() + first,
                               (last - first) * sizeof(f32)));
    }
  }
}

// Regression: degenerate streams (unparseable header, zero elements) must
// not push bogus block or byte counts into the telemetry registry — only
// the salvage call counter moves, and a zero-element strict decode records
// its true (header-only, zero-output) byte counts.
TEST(Salvage, DegenerateStreamsKeepRegistrySane) {
  telemetry::MetricsRegistry& reg = telemetry::registry();
  reg.setEnabled(true);
  reg.reset();
  CompressorStream codec(Config{.absErrorBound = 1e-2});

  // Empty byte stream: header unparseable, nothing beyond the call
  // counter is trustworthy.
  const auto empty = codec.decompressResilient<f32>({}, kFill);
  EXPECT_FALSE(empty.report.headerOk);
  EXPECT_TRUE(empty.data.empty());
  EXPECT_EQ(reg.counter("stream.salvage.calls").value(), 1u);
  EXPECT_EQ(reg.counter("stream.salvage.bad_blocks").value(), 0u);
  EXPECT_EQ(reg.counter("stream.decompress.bytes_out").value(), 0u);

  // Zero-element stream: a bare 40-byte header. Salvage parses it, finds
  // zero blocks, and reports nothing bad.
  const auto zc = codec.compress<f32>(std::span<const f32>{});
  ASSERT_EQ(zc.stream.size(), StreamHeader::kBytes);
  const auto zs = codec.decompressResilient<f32>(zc.stream, kFill);
  EXPECT_TRUE(zs.report.headerOk);
  EXPECT_EQ(zs.report.totalBlocks, 0u);
  EXPECT_TRUE(zs.data.empty());
  EXPECT_EQ(reg.counter("stream.salvage.calls").value(), 2u);
  EXPECT_EQ(reg.counter("stream.salvage.bad_blocks").value(), 0u);

  // Strict decode of the same stream records accurate byte counts: the
  // header-only input, zero bytes out.
  const auto zd = codec.decompress<f32>(zc.stream);
  EXPECT_TRUE(zd.data.empty());
  EXPECT_EQ(reg.counter("stream.decompress.bytes_in").value(),
            zc.stream.size());
  EXPECT_EQ(reg.counter("stream.decompress.bytes_out").value(), 0u);

  reg.reset();
  reg.setEnabled(false);
}

TEST(Salvage, UnusableHeadersNeverThrow) {
  CompressorStream& codec = salvageCodec();
  // Garbage bytes.
  std::vector<std::byte> junk(200, std::byte{0xAB});
  auto s = codec.decompressResilient<f32>(junk, kFill);
  EXPECT_FALSE(s.report.headerOk);
  EXPECT_FALSE(s.report.headerError.empty());
  EXPECT_TRUE(s.data.empty());
  // Empty input.
  s = codec.decompressResilient<f32>(ConstByteSpan{}, kFill);
  EXPECT_FALSE(s.report.headerOk);
  // Precision mismatch is a header-level failure, not a throw.
  const V2Fixture fx;
  const auto s64 = codec.decompressResilient<f64>(fx.stream, -7.0);
  EXPECT_FALSE(s64.report.headerOk);
  EXPECT_FALSE(s64.report.headerError.empty());
}

// Satellite: strict decode errors must name the failing block and byte
// offset.
TEST(Salvage, StrictErrorsNameBlockAndOffset) {
  // No stream CRC so the layout validator (not the checksum) rejects.
  Config cfg;
  cfg.absErrorBound = 1e-2;
  CompressorStream codec(cfg);
  const auto data = datagen::generateF32("scale", 3, 1 << 12);
  auto stream = codec.compress<f32>(data).stream;
  const auto header = StreamHeader::parse(stream);
  stream.resize(header.payloadBegin() + 3);  // deep payload truncation
  try {
    (void)codec.decompress<f32>(stream);
    FAIL() << "expected a payload-overrun Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("block"), std::string::npos) << msg;
    EXPECT_NE(msg.find("byte offset"), std::string::npos) << msg;
  }
  try {
    (void)codec.decompressBlocks<f32>(stream, 0, 2);
    FAIL() << "expected a payload-overrun Error";
  } catch (const Error& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("decompressBlocks"), std::string::npos) << msg;
    EXPECT_NE(msg.find("block"), std::string::npos) << msg;
  }
}

TEST(Salvage, SegmentedReaderSalvagesDamagedSegment) {
  Config cfg;
  cfg.absErrorBound = 1e-2;
  cfg.blockChecksums = true;
  SegmentedCompressor<f32> sc(cfg, 512);
  const auto data = datagen::generateF32("scale", 0, 2048);
  sc.append(data);
  auto container = sc.finish();

  // Damage one payload byte of segment 1 (its stream sits after the TOC).
  SegmentedReader<f32> probe(container);
  ASSERT_EQ(probe.segmentCount(), 4u);
  const auto seg0 = probe.segment(0);
  container[container.size() - 300] ^= std::byte{0x40};

  SegmentedReader<f32> reader(container);
  EXPECT_EQ(reader.segment(0), seg0);  // undamaged segment unaffected
  bool anyDamaged = false;
  for (usize i = 0; i < reader.segmentCount(); ++i) {
    const auto s = reader.segmentResilient(i, kFill);
    ASSERT_TRUE(s.report.headerOk) << "segment " << i;
    anyDamaged |= !s.report.clean();
  }
  EXPECT_TRUE(anyDamaged);
}

}  // namespace
}  // namespace cuszp2::core
