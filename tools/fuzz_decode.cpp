// fuzz_decode — seeded structured fuzzer for the decode surface.
//
// Builds a pool of valid streams (both format versions, both precisions,
// with and without checksums, tails, zero runs), then applies structured
// mutations — truncations at region boundaries, bit/byte flips aimed at
// the header / offset array / payload / footer, garbage extension — and
// drives every reader on every mutant:
//
//   strict  decompress()           must throw core::Error or succeed —
//                                  never crash, hang, or read out of
//                                  bounds (run under ASan/UBSan in CI);
//   range   decompressBlocks()     over a seeded block range, and
//   splice  replaceBlocks()        of one seeded block: the same rule;
//   salvage decompressResilient()  must never throw and must return a
//                                  self-consistent DecodeReport.
//
// The summary line counts strict decompress() rejections and salvage
// reports that are not clean.
//
//   usage: fuzz_decode [iterations=500] [seed=1]
//
// Exit 0 when every mutant held the invariants; 1 otherwise, printing the
// (seed, iteration) needed to replay the failure.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"

using namespace cuszp2;

namespace {

struct BaseStream {
  std::vector<std::byte> bytes;
  Precision precision;
};

template <FloatingPoint T>
std::vector<T> makeField(Rng& rng, usize n) {
  std::vector<T> data(n);
  f64 v = 0.0;
  for (usize i = 0; i < n; ++i) {
    // Smooth walk with occasional jumps and a zero run: exercises outlier
    // selection, dense blocks, and the zero-block memset path.
    if (i % 97 == 0) v = rng.uniform(-100.0, 100.0);
    v += rng.normal(0.0, 0.3);
    data[i] = (i > n / 2 && i < n / 2 + 200) ? T{} : static_cast<T>(v);
  }
  return data;
}

std::vector<BaseStream> makeBasePool(core::CompressorStream& codec) {
  Rng rng(0xF00DF00Dull);
  std::vector<BaseStream> pool;
  const usize sizes[] = {1, 31, 1024, 4096 + 17};
  for (const usize n : sizes) {
    for (const bool v2 : {false, true}) {
      for (const bool checksum : {false, true}) {
        core::Config cfg;
        cfg.absErrorBound = 1e-2;
        cfg.checksum = checksum;
        cfg.blockChecksums = v2;
        codec.reconfigure(cfg);
        const auto f32Field = makeField<f32>(rng, n);
        pool.push_back({codec.compress<f32>(f32Field).stream,
                        Precision::F32});
        const auto f64Field = makeField<f64>(rng, n);
        pool.push_back({codec.compress<f64>(f64Field).stream,
                        Precision::F64});
      }
    }
    // Format-v3 bases: mixed per-block selection (Auto) and a pinned
    // Huffman stream, so mutants cover 4-byte descriptors, the shared
    // dictionary section and every pipeline's payload structure.
    for (const core::PipelineMode mode :
         {core::PipelineMode::Auto, core::PipelineMode::Huffman}) {
      core::Config cfg;
      cfg.absErrorBound = 1e-2;
      cfg.pipeline = mode;
      codec.reconfigure(cfg);
      const auto f32Field = makeField<f32>(rng, n);
      pool.push_back({codec.compress<f32>(f32Field).stream,
                      Precision::F32});
      const auto f64Field = makeField<f64>(rng, n);
      pool.push_back({codec.compress<f64>(f64Field).stream,
                      Precision::F64});
    }
  }
  return pool;
}

/// Structured mutation: pick a region-aware corruption. Returns a
/// human-readable description for failure replay.
std::string mutate(Rng& rng, std::vector<std::byte>& s) {
  const auto flipIn = [&](usize begin, usize end, const char* name) {
    if (begin >= end || end > s.size()) {
      begin = 0;
      end = s.size();
    }
    const usize pos = begin + rng.uniformInt(end - begin);
    s[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
    return std::string("bit flip in ") + name + " at byte " +
           std::to_string(pos);
  };

  // Region boundaries from the (still valid) header; fall back to whole-
  // stream positions if it no longer parses.
  usize offsetsBegin = 0;
  usize payloadBegin = 0;
  usize footerBegin = s.size();
  usize dictBegin = 0;
  u64 numBlocks = 0;
  bool isV3 = false;
  if (const auto h = core::StreamHeader::tryParse(s)) {
    offsetsBegin = core::StreamHeader::offsetsBegin();
    payloadBegin = h->payloadBegin();
    footerBegin = s.size() - h->footerBytes();
    dictBegin = h->dictBegin();
    numBlocks = h->numBlocks();
    isV3 = h->version >= core::kFormatVersionV3;
  }

  switch (rng.uniformInt(11)) {
    case 0: {  // truncate at a uniformly random point
      const usize keep = rng.uniformInt(s.size() + 1);
      s.resize(keep);
      return "truncate to " + std::to_string(keep);
    }
    case 1: {  // truncate at/around a region boundary
      const usize anchors[] = {offsetsBegin, payloadBegin, footerBegin};
      usize at = anchors[rng.uniformInt(3)];
      if (rng.uniformInt(2) == 0 && at > 0) at -= 1;
      s.resize(std::min(at, s.size()));
      return "truncate at boundary " + std::to_string(s.size());
    }
    case 2:
      return flipIn(0, offsetsBegin, "header");
    case 3:
      return flipIn(offsetsBegin, payloadBegin, "offset array");
    case 4:
      return flipIn(payloadBegin, footerBegin, "payload");
    case 5:
      return flipIn(footerBegin, s.size(), "footer");
    case 6: {  // burst: several byte rewrites in one area
      const usize pos = rng.uniformInt(s.size());
      const usize len = std::min<usize>(s.size() - pos,
                                        1 + rng.uniformInt(16));
      for (usize i = 0; i < len; ++i) {
        s[pos + i] = static_cast<std::byte>(rng.uniformInt(256));
      }
      return "burst rewrite at " + std::to_string(pos);
    }
    case 7: {  // append garbage (framing damage for v2/v3)
      const usize extra = 1 + rng.uniformInt(64);
      for (usize i = 0; i < extra; ++i) {
        s.push_back(static_cast<std::byte>(rng.uniformInt(256)));
      }
      return "append " + std::to_string(extra) + " bytes";
    }
    case 8: {  // v3: corrupt one descriptor's pipeline-id byte
      if (!isV3 || numBlocks == 0) {
        return flipIn(offsetsBegin, payloadBegin, "offset array");
      }
      const usize blk = rng.uniformInt(static_cast<usize>(numBlocks));
      const usize pos = offsetsBegin + blk * core::kV3DescBytes;
      s[pos] = static_cast<std::byte>(rng.uniformInt(256));
      return "pipeline id rewrite in descriptor " + std::to_string(blk);
    }
    case 9: {  // v3: damage or truncate the dictionary section
      if (!isV3 || dictBegin >= payloadBegin) {
        return flipIn(0, offsetsBegin, "header");
      }
      if (rng.uniformInt(2) == 0) {
        const usize keep =
            dictBegin + rng.uniformInt(payloadBegin - dictBegin);
        s.resize(keep);
        return "truncate inside dictionary to " + std::to_string(keep);
      }
      return flipIn(dictBegin, payloadBegin, "dictionary");
    }
    default: {  // v3: cross-pipeline splice — copy one descriptor over
                // another, so its payload bytes are parsed as the wrong
                // pipeline at the wrong size
      if (!isV3 || numBlocks < 2) {
        return flipIn(payloadBegin, footerBegin, "payload");
      }
      const usize src = rng.uniformInt(static_cast<usize>(numBlocks));
      const usize dst = rng.uniformInt(static_cast<usize>(numBlocks));
      for (usize b = 0; b < core::kV3DescBytes; ++b) {
        s[offsetsBegin + dst * core::kV3DescBytes + b] =
            s[offsetsBegin + src * core::kV3DescBytes + b];
      }
      return "descriptor splice " + std::to_string(src) + " -> " +
             std::to_string(dst);
    }
  }
}

/// Runs every reader over one mutant, drawing the block range and the
/// spliced block from `rng`; returns an empty string when all invariants
/// held, else a description of the violation.
template <FloatingPoint T>
std::string driveTyped(core::CompressorStream& codec, ConstByteSpan s,
                       Rng& rng) {
  // Rejection (core::Error) is a correct outcome for every strict reader.
  try {
    (void)codec.decompress<T>(s);
  } catch (const Error&) {
  }
  const auto header = core::StreamHeader::tryParse(s);
  const u64 numBlocks = header ? header->numBlocks() : 0;
  const u64 blockSize = header ? header->blockSize : 32;
  const u64 numElements = header ? header->numElements : blockSize;
  const u64 first = rng.uniformInt(std::max<u64>(numBlocks, 1));
  const u64 count =
      1 + rng.uniformInt(std::max<u64>(numBlocks, first + 1) - first);
  try {
    (void)codec.decompressBlocks<T>(s, first, count);
  } catch (const Error&) {
  }
  const u64 eFirst = first * blockSize;
  std::vector<T> values(
      eFirst < numElements ? std::min(blockSize, numElements - eFirst)
                           : blockSize);
  for (usize i = 0; i < values.size(); ++i) {
    values[i] = static_cast<T>(rng.uniform(-100.0, 100.0));
  }
  try {
    (void)codec.replaceBlocks<T>(s, first, std::span<const T>(values));
  } catch (const Error&) {
  }

  const auto salvaged = codec.decompressResilient<T>(s, T{-1});
  const auto& rep = salvaged.report;
  if (!rep.headerOk) {
    if (rep.headerError.empty()) return "headerOk=false without an error";
    if (!salvaged.data.empty()) return "data not empty on header failure";
    return "";
  }
  if (rep.goodBlocks + rep.badBlocks != rep.totalBlocks) {
    return "block counts do not add up";
  }
  if (rep.verdicts.size() != rep.totalBlocks) return "verdict count wrong";
  u64 bad = 0;
  for (const auto v : rep.verdicts) {
    if (v != core::BlockVerdict::Good) ++bad;
  }
  if (bad != rep.badBlocks) return "verdicts disagree with badBlocks";
  if (rep.badBlocks == 0 &&
      rep.firstCorruptOffset != core::DecodeReport::kNoCorruption) {
    return "firstCorruptOffset set with no bad blocks";
  }
  if (rep.badBlocks > 0 &&
      rep.firstCorruptOffset == core::DecodeReport::kNoCorruption) {
    return "firstCorruptOffset missing with bad blocks";
  }
  return "";
}

std::string drive(core::CompressorStream& codec, const BaseStream& base,
                  ConstByteSpan mutant, Rng& rng) {
  return base.precision == Precision::F32
             ? driveTyped<f32>(codec, mutant, rng)
             : driveTyped<f64>(codec, mutant, rng);
}

}  // namespace

int main(int argc, char** argv) {
  const u64 iterations =
      argc > 1 ? std::strtoull(argv[1], nullptr, 10) : 500;
  const u64 seed = argc > 2 ? std::strtoull(argv[2], nullptr, 10) : 1;

  core::CompressorStream codec(core::Config{.absErrorBound = 1e-2});
  const auto pool = makeBasePool(codec);
  codec.reconfigure(core::Config{.absErrorBound = 1e-2});

  u64 strictRejected = 0;
  u64 salvageDamaged = 0;
  for (u64 i = 0; i < iterations; ++i) {
    Rng rng(SplitMix64(seed ^ (i * 0x9E3779B97F4A7C15ull)).next());
    const BaseStream& base = pool[rng.uniformInt(pool.size())];
    std::vector<std::byte> mutant = base.bytes;
    const std::string what = mutate(rng, mutant);

    const std::string violation = drive(codec, base, mutant, rng);
    if (!violation.empty()) {
      std::fprintf(stderr,
                   "fuzz_decode FAILED: %s (mutation: %s, seed %llu, "
                   "iteration %llu)\n",
                   violation.c_str(), what.c_str(),
                   static_cast<unsigned long long>(seed),
                   static_cast<unsigned long long>(i));
      return 1;
    }

    // Tally outcomes for the summary line (coverage sanity, not pass/fail).
    try {
      if (base.precision == Precision::F32) {
        (void)codec.decompress<f32>(mutant);
      } else {
        (void)codec.decompress<f64>(mutant);
      }
    } catch (const Error&) {
      ++strictRejected;
    }
    const bool clean =
        base.precision == Precision::F32
            ? codec.decompressResilient<f32>(mutant).report.clean()
            : codec.decompressResilient<f64>(mutant).report.clean();
    if (!clean) ++salvageDamaged;
  }

  std::printf("fuzz_decode: %llu mutants ok (%llu strict-rejected, %llu "
              "salvage-flagged, seed %llu)\n",
              static_cast<unsigned long long>(iterations),
              static_cast<unsigned long long>(strictRejected),
              static_cast<unsigned long long>(salvageDamaged),
              static_cast<unsigned long long>(seed));
  return 0;
}
