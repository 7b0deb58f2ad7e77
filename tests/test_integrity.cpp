// Tests for CRC-32, the optional stream checksum, and the Ceiling
// rounding mode.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2 {
namespace {

ConstByteSpan asBytes(const std::string& s) {
  return ConstByteSpan(reinterpret_cast<const std::byte*>(s.data()),
                       s.size());
}

// ---- CRC-32 ---------------------------------------------------------------

TEST(Crc32, KnownVectors) {
  // Standard test vector: CRC32("123456789") = 0xCBF43926.
  EXPECT_EQ(crc32(asBytes("123456789")), 0xCBF43926u);
  EXPECT_EQ(crc32(asBytes("")), 0u);
  // CRC32("a") = 0xE8B7BE43.
  EXPECT_EQ(crc32(asBytes("a")), 0xE8B7BE43u);
}

TEST(Crc32, ChainingMatchesWhole) {
  const std::string s = "the quick brown fox jumps over the lazy dog";
  for (usize split : {usize{0}, usize{1}, usize{10}, s.size()}) {
    const u32 part1 = crc32(asBytes(s.substr(0, split)));
    const u32 chained = crc32(asBytes(s.substr(split)), part1);
    EXPECT_EQ(chained, crc32(asBytes(s))) << "split " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  Rng rng(1);
  std::vector<std::byte> data(4096);
  for (auto& b : data) {
    b = static_cast<std::byte>(rng.uniformInt(256));
  }
  const u32 base = crc32(data);
  for (int trial = 0; trial < 64; ++trial) {
    auto copy = data;
    const usize pos = rng.uniformInt(copy.size());
    const u32 bit = static_cast<u32>(rng.uniformInt(8));
    copy[pos] ^= static_cast<std::byte>(1u << bit);
    EXPECT_NE(crc32(copy), base) << "trial " << trial;
  }
}

// ---- Stream checksum --------------------------------------------------------

core::Config checksumConfig() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = true;
  return cfg;
}

TEST(Checksum, RoundTripsCleanly) {
  const auto data = datagen::generateF32("nyx", 0, 1 << 13);
  core::CompressorStream comp(checksumConfig());
  const auto c = comp.compress<f32>(data);
  const auto header = core::StreamHeader::parse(c.stream);
  EXPECT_NE(header.checksum, 0u);
  EXPECT_NO_THROW(comp.decompress<f32>(c.stream));
}

TEST(Checksum, CorruptionDetected) {
  const auto data = datagen::generateF32("miranda", 0, 1 << 13);
  core::CompressorStream comp(checksumConfig());
  auto c = comp.compress<f32>(data);
  // Flip a payload byte (past header + offsets).
  const auto header = core::StreamHeader::parse(c.stream);
  const usize pos = header.payloadBegin() + 17;
  ASSERT_LT(pos, c.stream.size());
  c.stream[pos] ^= std::byte{0x40};
  EXPECT_THROW(comp.decompress<f32>(c.stream), Error);
}

TEST(Checksum, OffsetCorruptionDetected) {
  const auto data = datagen::generateF32("scale", 0, 1 << 13);
  core::CompressorStream comp(checksumConfig());
  auto c = comp.compress<f32>(data);
  c.stream[core::StreamHeader::offsetsBegin() + 3] ^= std::byte{0x01};
  EXPECT_THROW(comp.decompress<f32>(c.stream), Error);
}

TEST(Checksum, DisabledStreamsSkipVerification) {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = false;
  core::CompressorStream comp(cfg);
  const auto data = datagen::generateF32("nyx", 1, 1 << 12);
  const auto c = comp.compress<f32>(data);
  EXPECT_EQ(core::StreamHeader::parse(c.stream).checksum, 0u);
}

TEST(Checksum, SurvivesReplaceBlocks) {
  const auto data = datagen::generateF32("cesm_atm", 0, 1 << 12);
  core::CompressorStream comp(checksumConfig());
  const auto c = comp.compress<f32>(data);
  const std::vector<f32> replacement(64, 1.25f);
  const auto updated = comp.replaceBlocks<f32>(c.stream, 5, replacement);
  // The spliced stream must carry a re-computed, valid checksum.
  EXPECT_NE(core::StreamHeader::parse(updated.stream).checksum, 0u);
  EXPECT_NO_THROW(comp.decompress<f32>(updated.stream));
}

TEST(Checksum, ChecksumCostsExtraModelledTime) {
  const auto data = datagen::generateF32("qmcpack", 0, 1 << 15);
  core::Config plain;
  plain.absErrorBound = 1e-3;
  core::Config checked = plain;
  checked.checksum = true;
  const auto cPlain = core::CompressorStream(plain).compress<f32>(data);
  const auto cChecked = core::CompressorStream(checked).compress<f32>(data);
  EXPECT_GT(cChecked.profile.endToEndSeconds,
            cPlain.profile.endToEndSeconds);
}

// ---- Ceiling rounding mode --------------------------------------------------

TEST(RoundingMode, CeilingNeverUndershoots) {
  const f64 eb = 0.05;
  const core::Quantizer q(eb, core::RoundingMode::Ceiling);
  Rng rng(7);
  for (int i = 0; i < 20000; ++i) {
    const f64 v = rng.uniform(-100.0, 100.0);
    const f64 rec = q.dequantize<f64>(q.quantize(v));
    // One-sided error: rec >= v, rec - v < 2*eb.
    ASSERT_GE(rec, v - 1e-12);
    ASSERT_LT(rec - v, 2.0 * eb * (1.0 + 1e-9));
  }
}

TEST(RoundingMode, CeilingCompressorRoundTrip) {
  const auto data = datagen::generateF32("hacc", 0, 1 << 13);
  core::Config cfg;
  cfg.absErrorBound =
      core::Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
  cfg.roundingMode = core::RoundingMode::Ceiling;
  core::CompressorStream comp(cfg);
  const auto d = comp.decompress<f32>(comp.compress<f32>(data).stream);
  for (usize i = 0; i < data.size(); ++i) {
    const f64 err = static_cast<f64>(d.data[i]) -
                    static_cast<f64>(data[i]);
    ASSERT_GE(err, -cfg.absErrorBound * 1e-6 -
                       std::abs(data[i]) * 6e-8)
        << i;  // never (meaningfully) below the original
    ASSERT_LT(err, 2.0 * cfg.absErrorBound * (1.0 + 1e-6) +
                       std::abs(data[i]) * 6e-8)
        << i;
  }
}

TEST(RoundingMode, NearestIsDefault) {
  const core::Quantizer q(0.5);
  EXPECT_EQ(q.rounding(), core::RoundingMode::Nearest);
  EXPECT_EQ(q.quantize(0.4f), 0);   // nearest
  const core::Quantizer qc(0.5, core::RoundingMode::Ceiling);
  EXPECT_EQ(qc.quantize(0.4f), 1);  // ceiling of 0.4
}

}  // namespace
}  // namespace cuszp2
