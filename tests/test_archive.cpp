// Tests for the multi-field archive container.
#include <gtest/gtest.h>

#include <algorithm>
#include <span>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/archive.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::io {
namespace {

std::vector<std::byte> bytesOf(std::initializer_list<int> vals) {
  std::vector<std::byte> out;
  for (int v : vals) out.push_back(static_cast<std::byte>(v));
  return out;
}

TEST(Archive, EmptyArchiveRoundTrips) {
  ArchiveWriter w;
  const auto bytes = w.finalize();
  ArchiveReader r(bytes);
  EXPECT_EQ(r.fieldCount(), 0u);
  EXPECT_TRUE(r.fieldNames().empty());
  EXPECT_FALSE(r.hasField("x"));
}

TEST(Archive, SingleFieldRoundTrips) {
  ArchiveWriter w;
  const auto payload = bytesOf({1, 2, 3, 4, 5});
  w.addField("vx", payload);
  const auto bytes = w.finalize();
  ArchiveReader r(bytes);
  ASSERT_TRUE(r.hasField("vx"));
  const auto got = r.field("vx");
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
}

TEST(Archive, ManyFieldsPreserveOrderAndContent) {
  ArchiveWriter w;
  std::vector<std::vector<std::byte>> payloads;
  for (int f = 0; f < 20; ++f) {
    std::vector<std::byte> p(static_cast<usize>(f * 13 + 1));
    for (usize i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>((f * 31 + i) & 0xFF);
    }
    payloads.push_back(p);
    w.addField("field_" + std::to_string(f), p);
  }
  const auto bytes = w.finalize();
  ArchiveReader r(bytes);
  EXPECT_EQ(r.fieldCount(), 20u);
  const auto names = r.fieldNames();
  for (int f = 0; f < 20; ++f) {
    EXPECT_EQ(names[static_cast<usize>(f)], "field_" + std::to_string(f));
    const auto got = r.field("field_" + std::to_string(f));
    ASSERT_EQ(got.size(), payloads[static_cast<usize>(f)].size());
    EXPECT_TRUE(std::equal(got.begin(), got.end(),
                           payloads[static_cast<usize>(f)].begin()));
  }
}

TEST(Archive, EmptyFieldPayloadAllowed) {
  ArchiveWriter w;
  w.addField("empty", ConstByteSpan{});
  w.addField("other", bytesOf({9}));
  ArchiveReader r1(w.finalize());
  // finalize() must be re-runnable and consistent.
  const auto bytes = w.finalize();
  ArchiveReader r(bytes);
  EXPECT_EQ(r.field("empty").size(), 0u);
  EXPECT_EQ(r.field("other").size(), 1u);
}

TEST(Archive, WriterValidation) {
  ArchiveWriter w;
  EXPECT_THROW(w.addField("", bytesOf({1})), Error);
  w.addField("dup", bytesOf({1}));
  EXPECT_THROW(w.addField("dup", bytesOf({2})), Error);
}

TEST(Archive, ReaderRejectsCorruption) {
  ArchiveWriter w;
  w.addField("a", bytesOf({1, 2, 3}));
  auto bytes = w.finalize();

  // Bad magic.
  auto bad = bytes;
  bad[0] = std::byte{0};
  EXPECT_THROW(ArchiveReader{bad}, Error);

  // Truncated payload region.
  auto truncated = bytes;
  truncated.resize(truncated.size() - 2);
  EXPECT_THROW(ArchiveReader{truncated}, Error);

  // Truncated header.
  EXPECT_THROW(ArchiveReader(ConstByteSpan(bytes.data(), 4)), Error);
}

TEST(Archive, MissingFieldThrows) {
  ArchiveWriter w;
  w.addField("present", bytesOf({1}));
  const auto bytes = w.finalize();
  ArchiveReader r(bytes);
  EXPECT_THROW(r.field("absent"), Error);
}

// End-to-end: a whole multi-field dataset archived and restored.
TEST(Archive, CompressedDatasetRoundTrip) {
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  core::CompressorStream compressor(cfg);

  ArchiveWriter w;
  std::vector<std::vector<f32>> originals;
  std::vector<std::vector<std::byte>> streams;
  for (u32 f = 0; f < 4; ++f) {
    originals.push_back(datagen::generateF32("hacc", f, 1 << 13));
    streams.push_back(
        compressor.compress<f32>(originals.back()).stream);
    w.addField(datagen::haccFieldNames()[f], streams.back());
  }
  const auto archive = w.finalize();

  ArchiveReader r(archive);
  for (u32 f = 0; f < 4; ++f) {
    const auto stream = r.field(datagen::haccFieldNames()[f]);
    const auto header = core::StreamHeader::parse(stream);
    const auto d = compressor.decompress<f32>(stream);
    EXPECT_TRUE(metrics::computeErrorStats<f32>(originals[f], d.data)
                    .withinBoundFp(header.absErrorBound, Precision::F32))
        << "field " << f;
  }
}

// ---- XOR parity trailer ----------------------------------------------------

// Small chunks so a modest archive spans several parity groups.
constexpr ParityOptions kParity{.chunkBytes = 64, .groupSize = 4};

std::vector<std::byte> parityArchive(std::vector<std::byte>* firstField =
                                         nullptr) {
  ArchiveWriter w;
  std::vector<std::byte> payload(1500);
  for (usize i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::byte>((i * 7 + 3) & 0xFF);
  }
  w.addField("a", payload);
  w.addField("b", bytesOf({9, 8, 7}));
  if (firstField != nullptr) *firstField = payload;
  return w.finalize(kParity);
}

TEST(ArchiveParity, TrailerIsInvisibleToPlainReaders) {
  std::vector<std::byte> payload;
  const auto bytes = parityArchive(&payload);
  ArchiveReader r(bytes);  // old reader: tolerates the trailing bytes
  EXPECT_EQ(r.fieldCount(), 2u);
  const auto got = r.field("a");
  ASSERT_EQ(got.size(), payload.size());
  EXPECT_TRUE(std::equal(got.begin(), got.end(), payload.begin()));
  EXPECT_TRUE(isArchive(bytes));
}

TEST(ArchiveParity, CleanArchiveVerifies) {
  const auto bytes = parityArchive();
  const auto rep = verifyParity(bytes);
  EXPECT_TRUE(rep.parityPresent);
  EXPECT_TRUE(rep.trailerOk);
  EXPECT_EQ(rep.badChunks, 0u);
  EXPECT_GT(rep.totalChunks, 8u);  // several groups with 64-byte chunks
  EXPECT_TRUE(rep.clean());

  // An archive finalized without parity reports absence, not damage.
  ArchiveWriter w;
  w.addField("x", bytesOf({1}));
  const auto plain = verifyParity(w.finalize());
  EXPECT_FALSE(plain.parityPresent);
  EXPECT_TRUE(plain.clean());
}

// Acceptance path: one damaged chunk per group is repaired bit-exactly.
TEST(ArchiveParity, RepairsOneChunkPerGroup) {
  const auto original = parityArchive();
  auto damaged = original;
  const auto rep0 = verifyParity(original);
  // Damage one chunk in each of three different groups (chunk indices 1,
  // 5, 9 with groupSize 4), several bytes each.
  for (const usize chunk : {1u, 5u, 9u}) {
    ASSERT_LT(chunk, rep0.totalChunks);
    for (usize i = 0; i < 5; ++i) {
      damaged[chunk * kParity.chunkBytes + i * 11] ^= std::byte{0xFF};
    }
  }

  auto report = verifyParity(damaged);
  EXPECT_EQ(report.badChunks, 3u);
  EXPECT_EQ(report.repairableChunks, 3u);
  EXPECT_EQ(report.unrepairableChunks, 0u);
  EXPECT_EQ(report.repairedChunks, 0u);  // verify never mutates

  report = repairParity(damaged);
  EXPECT_EQ(report.repairedChunks, 3u);
  EXPECT_EQ(report.unrepairableChunks, 0u);
  EXPECT_EQ(damaged, original);  // bit-exact restoration
  EXPECT_TRUE(verifyParity(damaged).clean());
}

TEST(ArchiveParity, TwoBadChunksInOneGroupAreUnrepairable) {
  const auto original = parityArchive();
  auto damaged = original;
  damaged[0 * kParity.chunkBytes] ^= std::byte{1};  // group 0, chunk 0
  damaged[1 * kParity.chunkBytes] ^= std::byte{1};  // group 0, chunk 1

  const auto report = repairParity(damaged);
  EXPECT_EQ(report.badChunks, 2u);
  EXPECT_EQ(report.repairedChunks, 0u);
  EXPECT_EQ(report.unrepairableChunks, 2u);
  EXPECT_FALSE(report.clean());
  EXPECT_NE(damaged, original);  // left untouched, not half-repaired
}

TEST(ArchiveParity, DamagedTrailerIsReportedNotTrusted) {
  const auto original = parityArchive();

  // Flip a byte inside the parity data: the trailer CRC must catch it.
  auto bytes = original;
  bytes[bytes.size() - 25] ^= std::byte{0x10};
  auto rep = verifyParity(bytes);
  EXPECT_TRUE(rep.parityPresent);
  EXPECT_FALSE(rep.trailerOk);
  EXPECT_FALSE(rep.clean());

  // Destroy the trailing magic: no parity is detected at all.
  bytes = original;
  bytes[bytes.size() - 1] ^= std::byte{0xFF};
  rep = verifyParity(bytes);
  EXPECT_FALSE(rep.parityPresent);
}

// End-to-end: a damaged compressed stream inside a parity archive is
// repaired and then decodes bit-exactly.
TEST(ArchiveParity, RepairedStreamDecodesBitExactly) {
  core::Config cfg;
  cfg.absErrorBound = 1e-2;
  cfg.checksum = true;
  cfg.blockChecksums = true;
  core::CompressorStream compressor(cfg);
  const auto data = datagen::generateF32("hacc", 0, 1 << 12);
  const auto stream = compressor.compress<f32>(data).stream;
  const auto clean = compressor.decompress<f32>(stream).data;

  ArchiveWriter w;
  w.addField("vx", stream);
  const auto original = w.finalize(ParityOptions{.chunkBytes = 256,
                                                 .groupSize = 8});
  auto damaged = original;
  damaged[damaged.size() / 2] ^= std::byte{0x42};  // inside the payload

  const auto report = repairParity(damaged);
  EXPECT_EQ(report.repairedChunks, 1u);
  ASSERT_EQ(damaged, original);
  const auto restored = ArchiveReader(damaged).field("vx");
  EXPECT_EQ(compressor.decompress<f32>(restored).data, clean);
}

}  // namespace
}  // namespace cuszp2::io
