// cuszp2 — command-line front end, mirroring the paper artifact's gsz_p /
// gsz_o binaries plus inspection utilities.
//
//   cuszp2 compress   <in.f32|in.f64> <out.czp2> [--rel 1e-3|--abs X]
//                     [--mode outlier|plain] [--precision f32|f64]
//                     [--block 32]
//   cuszp2 decompress <in.czp2> <out.raw> [--salvage] [--fill X]
//   cuszp2 info       <in.czp2>
//   cuszp2 verify     <original.raw> <in.czp2>
//   cuszp2 verify     <in.czp2|archive>          (integrity only)
//   cuszp2 repair     <archive> [--dry-run]
//   cuszp2 profile    <in.raw> [compress options]
//   cuszp2 serve      --jobs <manifest> [--workers N] [--depth N]
//                     [--quota BYTES] [--chaos-seed N] [--shards N]
//                     [--replicas R] [--cas]
//   cuszp2 store      put|get|rm|gc|compact|stat against an on-disk
//                     content-addressed block store (docs/CAS.md)
//
// `--trace <out.json>` before any subcommand's options writes a
// chrome://tracing / Perfetto-compatible trace of every simulated kernel
// launch (see docs/OBSERVABILITY.md). The trace is flushed on every exit
// path — errors and usage failures included — with any open spans closed
// synthetically, so an aborted run still produces loadable JSON.
//
// Exit codes: 0 on success; 1 on operational errors and error-bound
// violations; 2 on integrity failures (corrupt stream, failed parity).
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cas/block_store.hpp"
#include "cas/compaction.hpp"
#include "cluster/cluster.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/archive.hpp"
#include "io/raw.hpp"
#include "metrics/error_stats.hpp"
#include "service/chaos.hpp"
#include "service/service.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

using namespace cuszp2;

namespace {

struct Options {
  f64 rel = 1e-3;
  f64 abs = 0.0;
  EncodingMode mode = EncodingMode::Outlier;
  Precision precision = Precision::F32;
  u32 blockSize = 32;
  Predictor predictor = Predictor::FirstOrder;
  bool checksum = false;
  bool blockChecksums = false;
  core::PipelineMode pipeline = core::PipelineMode::Legacy;
};

// --trace session state lives at file scope so every exit path — the
// normal return, the catch-all in main, and usage()'s std::exit — can
// flush the JSON. Without this, a bad argument after --trace would leave
// an empty/partial file.
std::unique_ptr<telemetry::TraceSession> g_trace;
std::unique_ptr<telemetry::ScopedTrace> g_traceScope;
std::string g_tracePath;

/// Closes any spans left open by an aborted run and writes the trace.
/// Idempotent; returns false only on an I/O failure.
bool flushTrace() {
  if (!g_trace) return true;
  g_traceScope.reset();
  g_trace->closeOpenSpans();
  const bool ok = g_trace->writeJson(g_tracePath);
  g_trace.reset();
  return ok;
}

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  cuszp2 compress   <in.raw> <out.czp2> [--rel X|--abs X]\n"
      "                    [--mode outlier|plain] [--precision f32|f64]\n"
      "                    [--block N] [--predictor first|second]\n"
      "                    [--checksum] [--block-checksum]\n"
      "                    [--pipeline legacy|auto|fle|huffman|rle|\n"
      "                                lorenzo-fle]\n"
      "  cuszp2 decompress <in.czp2> <out.raw> [--salvage] [--fill X]\n"
      "  cuszp2 info       <in.czp2>\n"
      "  cuszp2 verify     <original.raw> <in.czp2>\n"
      "  cuszp2 verify     <in.czp2|archive>       (integrity only)\n"
      "  cuszp2 repair     <archive> [--dry-run]\n"
      "  cuszp2 profile    <in.raw> [compress options]\n"
      "  cuszp2 serve      --jobs <manifest> [--workers N] [--depth N]\n"
      "                    [--quota BYTES] [--chaos-seed N] [--shards N]\n"
      "                    [--replicas R] [--cas]\n"
      "  cuszp2 store put     <store.cas> <tenant> <name> <file>\n"
      "  cuszp2 store get     <store.cas> <tenant> <name> <out-file>\n"
      "  cuszp2 store rm      <store.cas> <tenant> <name>\n"
      "  cuszp2 store gc      <store.cas>\n"
      "  cuszp2 store compact <store.cas> [--cold-ticks N] [--max N]\n"
      "                       [--pipeline auto|huffman|rle|lorenzo-fle]\n"
      "  cuszp2 store stat    <store.cas>\n"
      "  cuszp2 store recover <store.cas> [--journal <p>] [--dry-run]\n"
      "                       (replay the write-ahead journal onto the\n"
      "                        last good snapshot; default journal is\n"
      "                        <store.cas>.jnl; exit 2 = unrecoverable)\n"
      "\n"
      "  serve manifest lines: <tenant> <dataset> <elems> <jobs> [rel]\n"
      "  --cas           route each completed job's compressed stream\n"
      "                  through a content-addressed store and print the\n"
      "                  dedup health line (docs/CAS.md)\n"
      "  --shards N      route tenants across N in-process shards on a\n"
      "                  consistent-hash ring (heterogeneous fleet);\n"
      "                  --workers is then workers per shard\n"
      "  --chaos-seed N  seeded fault drill: injects bit flips, aborted\n"
      "                  blocks, stalls, wedged workers and arena\n"
      "                  exhaustion; every job must still resolve via\n"
      "                  retries, the watchdog, and degraded decode\n"
      "\n"
      "  --trace <out.json>  (any subcommand) write a chrome://tracing\n"
      "                      compatible kernel trace\n");
  flushTrace();
  std::exit(2);
}

Options parseOptions(int argc, char** argv, int first) {
  Options opt;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--rel") {
      opt.rel = std::stod(next());
      opt.abs = 0.0;
    } else if (arg == "--abs") {
      opt.abs = std::stod(next());
    } else if (arg == "--mode") {
      const std::string m = next();
      if (m == "outlier") {
        opt.mode = EncodingMode::Outlier;
      } else if (m == "plain") {
        opt.mode = EncodingMode::Plain;
      } else {
        usage();
      }
    } else if (arg == "--precision") {
      const std::string p = next();
      if (p == "f32") {
        opt.precision = Precision::F32;
      } else if (p == "f64") {
        opt.precision = Precision::F64;
      } else {
        usage();
      }
    } else if (arg == "--block") {
      opt.blockSize = static_cast<u32>(std::stoul(next()));
    } else if (arg == "--predictor") {
      const std::string p = next();
      if (p == "first") {
        opt.predictor = Predictor::FirstOrder;
      } else if (p == "second") {
        opt.predictor = Predictor::SecondOrder;
      } else {
        usage();
      }
    } else if (arg == "--checksum") {
      opt.checksum = true;
    } else if (arg == "--block-checksum") {
      opt.blockChecksums = true;
    } else if (arg == "--pipeline") {
      try {
        opt.pipeline = core::parsePipelineMode(next());
      } catch (const Error&) {
        usage();
      }
    } else {
      usage();
    }
  }
  return opt;
}

/// The codec Config the compress options select for `data`. Every
/// subcommand that compresses (`compress`, `profile`) builds its Config
/// here, so they all produce the same stream for the same flags.
template <FloatingPoint T>
core::Config compressConfig(const Options& opt, std::span<const T> data) {
  core::Config cfg;
  cfg.mode = opt.mode;
  cfg.blockSize = opt.blockSize;
  cfg.predictor = opt.predictor;
  cfg.checksum = opt.checksum;
  cfg.blockChecksums = opt.blockChecksums;
  cfg.pipeline = opt.pipeline;
  cfg.absErrorBound =
      opt.abs > 0.0 ? opt.abs
                    : core::Quantizer::absFromRel(
                          opt.rel, metrics::valueRange<T>(data));
  return cfg;
}

template <FloatingPoint T>
int doCompress(const std::string& in, const std::string& out,
               const Options& opt) {
  const io::MappedBytes mapped(in);
  const std::span<const T> data = mapped.view<T>();
  const core::Config cfg = compressConfig(opt, data);
  core::CompressorStream codec(cfg);
  const auto c = codec.compress<T>(std::span<const T>(data));
  io::writeBytes(out, c.stream);
  std::printf("compressed %zu values (%zu bytes) -> %zu bytes\n",
              data.size(), data.size() * sizeof(T), c.stream.size());
  std::printf("ratio: %.4f | mode: %s | pipeline: %s | "
              "abs error bound: %g\n",
              c.ratio, toString(cfg.mode), core::toString(cfg.pipeline),
              cfg.absErrorBound);
  std::printf("modelled end-to-end: %.2f GB/s on %s\n",
              c.profile.endToEndGBps, codec.device().name.c_str());
  return 0;
}

int doDecompress(const std::string& in, const std::string& out) {
  const io::MappedBytes mapped(in);
  const ConstByteSpan stream = mapped.bytes();
  const auto header = core::StreamHeader::parse(stream);
  core::CompressorStream codec(
      core::Config{.absErrorBound = header.absErrorBound});
  if (header.precision == Precision::F32) {
    const auto d = codec.decompress<f32>(stream);
    io::writeRaw<f32>(out, d.data);
    std::printf("decompressed %zu f32 values (%.2f GB/s modelled)\n",
                d.data.size(), d.profile.endToEndGBps);
  } else {
    const auto d = codec.decompress<f64>(stream);
    io::writeRaw<f64>(out, d.data);
    std::printf("decompressed %zu f64 values (%.2f GB/s modelled)\n",
                d.data.size(), d.profile.endToEndGBps);
  }
  return 0;
}

void printDecodeReport(const core::DecodeReport& rep) {
  if (!rep.headerOk) {
    std::printf("salvage: header unusable (%s)\n", rep.headerError.c_str());
    return;
  }
  std::printf("salvage: %llu/%llu blocks recovered",
              static_cast<unsigned long long>(rep.goodBlocks),
              static_cast<unsigned long long>(rep.totalBlocks));
  if (rep.badBlocks > 0) {
    std::printf(", %llu quarantined (first damage at byte %llu)",
                static_cast<unsigned long long>(rep.badBlocks),
                static_cast<unsigned long long>(rep.firstCorruptOffset));
  }
  std::printf("\n");
  if (!rep.streamChecksumOk) std::printf("salvage: stream CRC mismatch\n");
  if (rep.framingDamaged) std::printf("salvage: stream framing damaged\n");
}

/// Salvage decode: quarantined blocks hold the fill value; always writes
/// the output. Exit 0 when the stream was clean, 2 when damage was found.
int doSalvageDecompress(const std::string& in, const std::string& out,
                        f64 fill) {
  const io::MappedBytes mapped(in);
  const ConstByteSpan stream = mapped.bytes();
  std::string headerError;
  const auto header = core::StreamHeader::tryParse(stream, &headerError);
  if (!header) {
    std::fprintf(stderr, "salvage: header unusable (%s)\n",
                 headerError.c_str());
    return 2;
  }
  core::CompressorStream codec(
      core::Config{.absErrorBound = header->absErrorBound});
  core::DecodeReport rep;
  if (header->precision == Precision::F32) {
    const auto d =
        codec.decompressResilient<f32>(stream, static_cast<f32>(fill));
    io::writeRaw<f32>(out, d.data);
    rep = d.report;
  } else {
    const auto d = codec.decompressResilient<f64>(stream, fill);
    io::writeRaw<f64>(out, d.data);
    rep = d.report;
  }
  printDecodeReport(rep);
  return rep.clean() ? 0 : 2;
}

/// Shared dedup health line: unique vs. logical blocks and the bytes the
/// content-addressed sharing saved (printed by `info` on a store file and
/// by `serve --cas`).
void printCasLine(const cas::StoreStats& s) {
  std::printf("cas: %llu objects, %llu unique / %llu logical blocks, "
              "%llu bytes saved (%.2fx dedup)\n",
              static_cast<unsigned long long>(s.objects),
              static_cast<unsigned long long>(s.uniqueChunks),
              static_cast<unsigned long long>(s.logicalChunks),
              static_cast<unsigned long long>(s.bytesSaved()),
              s.dedupRatio());
}

/// Journal status in one line (docs/DURABILITY.md). For a live store the
/// status comes from the attached writer; for `store stat` the sibling
/// journal file is probed read-only instead.
void printJournalLine(const io::JournalStatus& js) {
  if (!js.attached) {
    std::printf("journal: detached\n");
    return;
  }
  std::printf("journal: %s, baseTick %llu, %llu records appended "
              "(%llu synced)\n",
              js.path.c_str(), static_cast<unsigned long long>(js.baseTick),
              static_cast<unsigned long long>(js.recordsAppended),
              static_cast<unsigned long long>(js.recordsSynced));
}

/// `info` on a saved BlockStore file: dedup stats instead of stream
/// fields (a store is an archive, not a cuSZp2 stream).
int doInfoStore(const std::string& in) {
  const auto store = cas::BlockStore::load(in, {.deferGc = true});
  const cas::StoreStats s = store->stats();
  std::printf("cuSZp2 CAS store: %s\n", in.c_str());
  std::printf("  chunk bytes:     %zu\n", store->config().chunkBytes);
  std::printf("  objects:         %llu\n",
              static_cast<unsigned long long>(s.objects));
  std::printf("  logical blocks:  %llu\n",
              static_cast<unsigned long long>(s.logicalChunks));
  std::printf("  unique blocks:   %llu (%llu parked for gc)\n",
              static_cast<unsigned long long>(s.uniqueChunks),
              static_cast<unsigned long long>(s.parkedChunks));
  std::printf("  logical bytes:   %llu\n",
              static_cast<unsigned long long>(s.logicalBytes));
  std::printf("  physical bytes:  %llu\n",
              static_cast<unsigned long long>(s.physicalBytes));
  std::printf("  bytes saved:     %llu\n",
              static_cast<unsigned long long>(s.bytesSaved()));
  std::printf("  dedup ratio:     %.4f\n", s.dedupRatio());
  u64 hot = 0;
  u64 v3 = 0;
  u64 opaque = 0;
  for (const auto& obj : store->objects()) {
    if (obj.formatVersion == core::kFormatVersionV3) ++v3;
    else if (obj.formatVersion != 0) ++hot;
    else ++opaque;
  }
  std::printf("  encodings:       %llu hot (v1/v2), %llu v3, %llu opaque\n",
              static_cast<unsigned long long>(hot),
              static_cast<unsigned long long>(v3),
              static_cast<unsigned long long>(opaque));
  // Journal status: probe the sibling WAL read-only (docs/DURABILITY.md).
  // A torn tail here is advisory — `store recover` is the repair verb.
  const std::string jpath = in + ".jnl";
  if (std::filesystem::exists(jpath)) {
    try {
      const io::ReplayResult rep = io::replayJournal(jpath);
      std::printf("  journal:         %s: %zu records past tick %llu, %s\n",
                  jpath.c_str(), rep.records.size(),
                  static_cast<unsigned long long>(rep.baseTick),
                  rep.torn
                      ? ("TORN tail (" + std::to_string(rep.discardedBytes) +
                         " bytes to discard)")
                            .c_str()
                      : "clean tail");
    } catch (const Error& e) {
      std::printf("  journal:         %s: UNRECOVERABLE (%s)\n",
                  jpath.c_str(), e.what());
    }
  } else {
    std::printf("  journal:         none\n");
  }
  printCasLine(s);
  return 0;
}

int doInfo(const std::string& in) {
  const io::MappedBytes mapped(in);
  const ConstByteSpan stream = mapped.bytes();
  if (cas::BlockStore::isStoreFile(stream)) return doInfoStore(in);
  const auto header = core::StreamHeader::parse(stream);
  std::printf("cuSZp2 stream: %s\n", in.c_str());
  std::printf("  format version:  %u\n", header.version);
  std::printf("  precision:       %s\n", toString(header.precision));
  std::printf("  encoding mode:   %s\n", toString(header.mode));
  std::printf("  predictor:       %s\n", toString(header.predictor));
  std::printf("  checksum:        %s\n",
              header.checksum != 0 ? "yes" : "no");
  std::printf("  block checksums: %s\n",
              header.hasBlockChecksums() ? "yes" : "no");
  std::printf("  block size:      %u\n", header.blockSize);
  std::printf("  elements:        %llu\n",
              static_cast<unsigned long long>(header.numElements));
  std::printf("  blocks:          %llu\n",
              static_cast<unsigned long long>(header.numBlocks()));
  std::printf("  abs error bound: %g\n", header.absErrorBound);
  if (header.version >= core::kFormatVersionV3) {
    // Per-pipeline block tally from the 4-byte descriptor array.
    u64 counts[core::kPipelineCount] = {};
    for (u64 blk = 0; blk < header.numBlocks(); ++blk) {
      const auto desc = core::V3BlockDesc::unpack(
          stream.data() + core::StreamHeader::offsetsBegin() +
          blk * core::kV3DescBytes);
      require(desc.knownPipeline(), "info: unknown pipeline id in stream");
      counts[static_cast<u8>(desc.pipeline)] += 1;
    }
    std::printf("  pipeline blocks:");
    for (u32 p = 0; p < core::kPipelineCount; ++p) {
      if (counts[p] == 0) continue;
      std::printf(" %s=%llu", core::toString(static_cast<core::PipelineId>(p)),
                  static_cast<unsigned long long>(counts[p]));
    }
    std::printf("\n");
    std::printf("  dict bytes:      %u\n", header.dictBytes);
  }
  std::printf("  stream bytes:    %zu\n", stream.size());
  std::printf("  ratio:           %.4f\n",
              static_cast<f64>(header.originalBytes()) /
                  static_cast<f64>(stream.size()));
  return 0;
}

template <FloatingPoint T>
int doVerifyTyped(const std::string& original, ConstByteSpan stream,
                  const core::StreamHeader& header) {
  const io::MappedBytes mappedOriginal(original);
  const std::span<const T> data = mappedOriginal.view<T>();
  require(data.size() == header.numElements,
          "verify: original size does not match the stream");
  core::CompressorStream codec(
      core::Config{.absErrorBound = header.absErrorBound});
  core::Decompressed<T> d;
  try {
    d = codec.decompress<T>(stream);
  } catch (const Error& e) {
    // Integrity failures (checksum/digest/layout) are distinct from an
    // error-bound violation: exit 2, not 1.
    std::fprintf(stderr, "integrity failure: %s\n", e.what());
    return 2;
  }
  const auto stats = metrics::computeErrorStats<T>(
      std::span<const T>(data), std::span<const T>(d.data));
  std::printf("max abs error: %g (bound %g)\n", stats.maxAbsError,
              header.absErrorBound);
  std::printf("PSNR: %.2f dB\n", stats.psnrDb);
  const bool ok = stats.withinBoundFp(header.absErrorBound,
                                      header.precision);
  std::printf("%s\n", ok ? "Pass error check!" : "ERROR CHECK FAILED");
  return ok ? 0 : 1;
}

/// Per-kernel summary table from the telemetry registry: launches, DRAM
/// bytes, modelled seconds, each kernel's share of the total modelled
/// time, the throughput the host substrate actually achieved, and the
/// wall/modelled ratio (host-seconds per modelled device-second).
void printKernelTable() {
  const auto rows = telemetry::registry().snapshotKernels();
  if (rows.empty()) return;
  f64 totalModelled = 0.0;
  for (const auto& r : rows) totalModelled += r.modelledSeconds;
  std::printf("per-kernel summary:\n");
  std::printf("  %-22s %9s %14s %14s %7s %12s %9s\n", "kernel", "launches",
              "DRAM bytes", "modelled us", "% time", "achieved GB/s",
              "wall/mdl");
  for (const auto& r : rows) {
    std::printf("  %-22s %9llu %14llu %14.2f %6.1f%% %13.2f %9.1f\n",
                r.name.c_str(),
                static_cast<unsigned long long>(r.launches),
                static_cast<unsigned long long>(r.dramBytes),
                r.modelledSeconds * 1e6,
                totalModelled > 0.0
                    ? 100.0 * r.modelledSeconds / totalModelled
                    : 0.0,
                r.achievedGbps(), r.modelRatio());
  }
}

/// Compresses in memory and prints the per-kernel telemetry table plus the
/// modelled timing-term breakdown — the observability view of
/// docs/MODEL.md and docs/OBSERVABILITY.md.
template <FloatingPoint T>
int doProfileTyped(const std::string& in, const Options& opt) {
  const io::MappedBytes mapped(in);
  const std::span<const T> data = mapped.view<T>();
  const core::Config cfg = compressConfig(opt, data);
  telemetry::registry().setEnabled(true);
  telemetry::registry().reset();
  core::CompressorStream codec(cfg);
  const auto c = codec.compress<T>(std::span<const T>(data));
  const auto d = codec.decompress<T>(c.stream);

  auto show = [](const char* phase, const core::KernelProfile& p) {
    std::printf("%s kernel (modelled):\n", phase);
    std::printf("  bandwidth  %10.2f us\n", p.timing.bandwidthSeconds * 1e6);
    std::printf("  issue      %10.2f us\n", p.timing.issueSeconds * 1e6);
    std::printf("  compute    %10.2f us\n", p.timing.computeSeconds * 1e6);
    std::printf("  memset     %10.2f us\n", p.timing.memsetSeconds * 1e6);
    std::printf("  sync       %10.2f us (%s, %llu tiles, depth %llu)\n",
                p.timing.syncSeconds * 1e6,
                p.sync.method == gpusim::SyncMethod::DecoupledLookback
                    ? "decoupled lookback"
                    : "other",
                static_cast<unsigned long long>(p.sync.tiles),
                static_cast<unsigned long long>(p.sync.maxLookbackDepth));
    std::printf("  launch     %10.2f us\n", p.timing.launchSeconds * 1e6);
    std::printf("  total      %10.2f us -> %.2f GB/s end-to-end\n",
                p.endToEndSeconds * 1e6, p.endToEndGBps);
    std::printf("  traffic    %.2f MB read, %.2f MB written, %.2f MB "
                "on-chip\n",
                p.mem.bytesRead / 1e6, p.mem.bytesWritten / 1e6,
                p.mem.l1Bytes / 1e6);
    std::printf("  mem pipeline throughput %.2f GB/s\n",
                p.timing.memThroughputGBps);
  };
  std::printf("device: %s | ratio: %.4f\n\n", codec.device().name.c_str(),
              c.ratio);
  printKernelTable();
  std::printf("\n");
  show("compression", c.profile);
  std::printf("\n");
  show("decompression", d.profile);
  return 0;
}

int doVerify(const std::string& original, const std::string& in) {
  const io::MappedBytes mapped(in);
  const ConstByteSpan stream = mapped.bytes();
  core::StreamHeader header;
  try {
    header = core::StreamHeader::parse(stream);
  } catch (const Error& e) {
    std::fprintf(stderr, "integrity failure: %s\n", e.what());
    return 2;
  }
  return header.precision == Precision::F32
             ? doVerifyTyped<f32>(original, stream, header)
             : doVerifyTyped<f64>(original, stream, header);
}

void printParityReport(const io::RepairReport& rep) {
  std::printf("parity: %llu chunks over %llu bytes, %llu damaged",
              static_cast<unsigned long long>(rep.totalChunks),
              static_cast<unsigned long long>(rep.protectedBytes),
              static_cast<unsigned long long>(rep.badChunks));
  if (rep.repairableChunks > 0) {
    std::printf(" (%llu repairable)",
                static_cast<unsigned long long>(rep.repairableChunks));
  }
  if (rep.repairedChunks > 0) {
    std::printf(" (%llu repaired)",
                static_cast<unsigned long long>(rep.repairedChunks));
  }
  if (rep.unrepairableChunks > 0) {
    std::printf(" (%llu beyond repair)",
                static_cast<unsigned long long>(rep.unrepairableChunks));
  }
  std::printf("\n");
}

/// Integrity-only verify of a stream or an archive (no original needed).
int doVerifyIntegrity(const std::string& in) {
  const io::MappedBytes mapped(in);
  const ConstByteSpan bytes = mapped.bytes();

  if (io::isArchive(bytes)) {
    const auto rep = io::verifyParity(bytes);
    if (!rep.parityPresent) {
      std::fprintf(stderr,
                   "verify: archive has no parity trailer — integrity "
                   "unknown\n");
      return 1;
    }
    if (!rep.trailerOk) {
      std::fprintf(stderr, "integrity failure: parity trailer damaged\n");
      return 2;
    }
    printParityReport(rep);
    return rep.badChunks == 0 ? 0 : 2;
  }

  std::string headerError;
  const auto header = core::StreamHeader::tryParse(bytes, &headerError);
  if (!header) {
    std::fprintf(stderr, "integrity failure: %s\n", headerError.c_str());
    return 2;
  }
  core::CompressorStream codec(
      core::Config{.absErrorBound = header->absErrorBound});
  const core::DecodeReport rep =
      header->precision == Precision::F32
          ? codec.decompressResilient<f32>(bytes).report
          : codec.decompressResilient<f64>(bytes).report;
  printDecodeReport(rep);
  if (!rep.clean()) return 2;
  std::printf("integrity ok (format v%u, %s per-block checksums)\n",
              header->version,
              header->hasBlockChecksums() ? "with" : "without");
  return 0;
}

/// Verifies an archive's parity and (unless dry-run) rebuilds damaged
/// chunks in place, rewriting the file.
int doRepair(const std::string& path, bool dryRun) {
  auto bytes = io::readBytes(path);
  if (!io::isArchive(bytes)) {
    std::fprintf(stderr, "repair: %s is not a cuSZp2 archive\n",
                 path.c_str());
    return 1;
  }
  const io::RepairReport rep =
      dryRun ? io::verifyParity(bytes)
             : io::repairParity(std::span<std::byte>(bytes));
  if (!rep.parityPresent) {
    std::fprintf(stderr, "repair: archive has no parity trailer\n");
    return 1;
  }
  if (!rep.trailerOk) {
    std::fprintf(stderr, "integrity failure: parity trailer damaged\n");
    return 2;
  }
  printParityReport(rep);
  if (!dryRun && rep.repairedChunks > 0) {
    io::writeBytes(path, bytes);
    std::printf("repair: rewrote %s\n", path.c_str());
  }
  if (rep.unrepairableChunks > 0) return 2;
  if (dryRun && rep.badChunks > 0) return 2;
  return 0;
}

/// One manifest line of the serve subcommand: `tenant dataset elems jobs
/// [rel]`. Blank lines and `#` comments are skipped.
struct ManifestEntry {
  std::string tenant;
  std::string dataset;
  usize elems = 0;
  u32 jobs = 0;
  f64 rel = 1e-3;
};

std::vector<ManifestEntry> parseManifest(const std::string& path) {
  std::ifstream in(path);
  require(in.good(), "serve: cannot open manifest " + path);
  std::vector<ManifestEntry> out;
  std::string line;
  usize lineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    ManifestEntry e;
    if (!(fields >> e.tenant >> e.dataset >> e.elems >> e.jobs)) {
      std::string word;
      require(!(std::istringstream(line) >> word),
              "serve: malformed manifest line " + std::to_string(lineNo));
      continue;  // blank or comment-only line
    }
    fields >> e.rel;
    require(e.elems > 0 && e.jobs > 0 && e.rel > 0.0,
            "serve: manifest line " + std::to_string(lineNo) +
                ": elems, jobs and rel must be positive");
    datagen::datasetInfo(e.dataset);  // throws on unknown dataset
    out.push_back(std::move(e));
  }
  require(!out.empty(), "serve: manifest has no job lines");
  return out;
}

/// Per-outcome job tally behind the `health:` line. A serve run succeeds
/// only when at least one job was actually served (Completed or Degraded).
struct OutcomeTally {
  u64 completed = 0;
  u64 failed = 0;
  u64 degraded = 0;
  u64 abandoned = 0;
  u64 canceled = 0;

  void count(service::Outcome outcome) {
    switch (outcome) {
      case service::Outcome::Completed: ++completed; break;
      case service::Outcome::Degraded: ++degraded; break;
      case service::Outcome::Canceled: ++canceled; break;
      case service::Outcome::Abandoned: ++abandoned; break;
      default: ++failed; break;
    }
  }
  bool served() const { return completed + degraded > 0; }
};

/// Runs a multi-tenant workload from a manifest through a
/// CompressionService and prints per-tenant and scheduler summaries. Job
/// inputs are deterministic synthetic fields (datagen), so two runs of the
/// same manifest produce identical compressed bytes.
int doServe(const std::string& manifestPath, u32 workers, usize depth,
            u64 quota, bool chaos, u64 chaosSeed, bool useCas) {
  const auto entries = parseManifest(manifestPath);
  telemetry::registry().setEnabled(true);
  telemetry::registry().reset();

  std::shared_ptr<cas::BlockStore> store;
  if (useCas) store = std::make_shared<cas::BlockStore>();
  service::ServiceConfig cfg;
  cfg.store = store;
  cfg.workers = workers;
  cfg.maxQueueDepth = depth;
  cfg.tenantQuotaBytes = quota;
  // Paused start: with the whole manifest queued before dispatch begins,
  // the dispatch order is deterministic. The submit loop resumes early if
  // the queue fills (see below), so a manifest larger than --depth still
  // drains.
  cfg.startPaused = true;
  if (chaos) {
    // Seeded fault drill: the schedule only faults first attempts, so
    // with retries + watchdog every job still resolves. Short stalls and
    // a tight watchdog deadline keep the drill interactive.
    service::ChaosConfig ccfg;
    ccfg.seed = chaosSeed;
    ccfg.stallTicks = 150;
    ccfg.wedgeTicks = 150;
    cfg.chaosHook = service::SeededChaosSchedule(ccfg).hook();
    cfg.watchdog.minTimeoutMillis = 100;
    cfg.breaker.threshold = 4;
  }
  service::CompressionService svc(cfg);

  struct Pending {
    const ManifestEntry* entry;
    service::Ticket ticket;
  };
  std::vector<Pending> pending;

  // Submit round-robin across tenants so lanes genuinely interleave.
  // Admission rejections are backpressure, not errors: QueueFull and
  // QuotaExceeded drain-and-retry, anything else is fatal.
  u32 maxJobs = 0;
  for (const auto& e : entries) maxJobs = std::max(maxJobs, e.jobs);
  u64 rejections = 0;
  for (u32 j = 0; j < maxJobs; ++j) {
    for (const auto& e : entries) {
      if (j >= e.jobs) continue;
      const auto& info = datagen::datasetInfo(e.dataset);
      const auto field =
          datagen::generateF32(e.dataset, j % info.numFields, e.elems);
      core::Config jobCfg;
      jobCfg.relErrorBound = e.rel;
      if (chaos) {
        // Checksums make injected bit flips detectable; in-stream retries
        // absorb them before they ever surface as a job failure.
        jobCfg.checksum = true;
        jobCfg.blockChecksums = true;
        jobCfg.faultRetries = 2;
      }
      for (;;) {
        auto submitted = svc.submitCompress<f32>(
            e.tenant, std::span<const f32>(field), jobCfg);
        if (submitted.accepted()) {
          pending.push_back(Pending{&e, std::move(submitted.ticket)});
          break;
        }
        // CircuitOpen clears on its own once the tenant's cooldown admits
        // a successful probe, so it drains just like backpressure.
        require(submitted.reason == service::RejectReason::QueueFull ||
                    submitted.reason == service::RejectReason::QuotaExceeded ||
                    submitted.reason == service::RejectReason::CircuitOpen,
                "serve: submission rejected: " + submitted.detail);
        ++rejections;
        svc.resume();  // start draining so a retried slot can free up
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  svc.resume();
  svc.shutdown();

  struct TenantSummary {
    u32 jobs = 0;
    u32 failed = 0;
    u64 bytesIn = 0;
    u64 bytesOut = 0;
    f64 waitUs = 0.0;
    f64 serviceUs = 0.0;
  };
  std::vector<std::pair<std::string, TenantSummary>> tenants;
  auto summaryFor = [&](const std::string& t) -> TenantSummary& {
    for (auto& [name, s] : tenants) {
      if (name == t) return s;
    }
    tenants.emplace_back(t, TenantSummary{});
    return tenants.back().second;
  };
  int rc = 0;
  OutcomeTally tally;
  for (const Pending& p : pending) {
    const service::JobResult& r = p.ticket.wait();
    TenantSummary& s = summaryFor(p.entry->tenant);
    s.jobs += 1;
    tally.count(r.outcome);
    // Degraded is an acceptable end state (salvaged output, typed
    // report); only hard losses fail the run.
    if (!r.ok && r.outcome != service::Outcome::Degraded) {
      s.failed += 1;
      std::fprintf(stderr, "serve: tenant %s job %llu failed: %s\n",
                   p.entry->tenant.c_str(),
                   static_cast<unsigned long long>(r.jobId),
                   r.error.c_str());
      rc = 1;
      continue;
    }
    s.bytesIn += r.compressed.originalBytes;
    s.bytesOut += r.compressed.stream.size();
    s.waitUs += r.waitUs;
    s.serviceUs += r.serviceUs;
    // Route each completed stream through the tenant's logical CAS
    // namespace: jobs from different tenants compressing the same field
    // land on the same physical chunks (the dedup line below shows it).
    if (store && !r.compressed.stream.empty()) {
      svc.putObject(p.entry->tenant,
                    "job-" + std::to_string(r.jobId),
                    ConstByteSpan(r.compressed.stream));
    }
  }
  // A run that served nothing is a failure even when nothing hard-failed
  // (e.g. every job was abandoned or canceled before dispatch).
  if (!tally.served()) rc = 1;

  std::printf("served %zu jobs from %zu tenants on %u workers\n",
              pending.size(), tenants.size(), svc.workerCount());
  if (rejections > 0) {
    std::printf("backpressure: %llu submissions retried\n",
                static_cast<unsigned long long>(rejections));
  }
  std::printf("per-tenant summary:\n");
  std::printf("  %-12s %6s %12s %12s %8s %12s %12s\n", "tenant", "jobs",
              "bytes in", "bytes out", "ratio", "avg wait us",
              "avg svc us");
  for (const auto& [name, s] : tenants) {
    const f64 n = s.jobs > 0 ? static_cast<f64>(s.jobs) : 1.0;
    std::printf("  %-12s %6u %12llu %12llu %8.3f %12.1f %12.1f\n",
                name.c_str(), s.jobs,
                static_cast<unsigned long long>(s.bytesIn),
                static_cast<unsigned long long>(s.bytesOut),
                s.bytesOut > 0 ? static_cast<f64>(s.bytesIn) /
                                     static_cast<f64>(s.bytesOut)
                               : 0.0,
                s.waitUs / n, s.serviceUs / n);
    if (s.failed > 0) {
      std::printf("  %-12s %6u jobs FAILED\n", name.c_str(), s.failed);
    }
  }
  const service::ServiceStats stats = svc.stats();
  std::printf("scheduler: %llu jobs dispatched\n",
              static_cast<unsigned long long>(stats.dispatched));
  std::printf("health: %llu completed, %llu failed, %llu degraded, "
              "%llu abandoned, %llu canceled; watchdog recoveries %llu, "
              "retries %llu, stream relaunches %llu, breaker opens %llu, "
              "chaos injections %llu\n",
              static_cast<unsigned long long>(tally.completed),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.degraded),
              static_cast<unsigned long long>(tally.abandoned),
              static_cast<unsigned long long>(tally.canceled),
              static_cast<unsigned long long>(stats.watchdogRecoveries),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.streamFaultRelaunches),
              static_cast<unsigned long long>(stats.breakerOpens),
              static_cast<unsigned long long>(stats.chaosInjected));
  if (store) {
    printCasLine(store->stats());
    printJournalLine(store->journalStatus());
  }
  printKernelTable();
  return rc;
}

/// serve --shards N: the same manifest through a sharded
/// CompressionCluster — consistent-hash tenant routing over a
/// heterogeneous fleet, with a per-shard summary and a cluster-level
/// health line on top of the per-tenant table.
int doServeCluster(const std::string& manifestPath, u32 shards,
                   u32 replicas, u32 workers, usize depth, u64 quota,
                   bool chaos, u64 chaosSeed, bool useCas) {
  const auto entries = parseManifest(manifestPath);
  telemetry::registry().setEnabled(true);
  telemetry::registry().reset();

  cluster::ClusterConfig cfg;
  cfg.shards = shards;
  cfg.replicas = replicas;
  cfg.shard.workers = workers;
  cfg.shard.maxQueueDepth = depth;
  cfg.shard.tenantQuotaBytes = quota;
  cfg.startPaused = true;
  if (chaos) {
    service::ChaosConfig ccfg;
    ccfg.seed = chaosSeed;
    ccfg.stallTicks = 150;
    ccfg.wedgeTicks = 150;
    cfg.shard.chaosHook = service::SeededChaosSchedule(ccfg).hook();
    cfg.shard.watchdog.minTimeoutMillis = 100;
    cfg.shard.breaker.threshold = 4;
  }
  cluster::CompressionCluster cl(cfg);

  struct Pending {
    const ManifestEntry* entry;
    cluster::ClusterTicket ticket;
  };
  std::vector<Pending> pending;

  u32 maxJobs = 0;
  for (const auto& e : entries) maxJobs = std::max(maxJobs, e.jobs);
  u64 rejections = 0;
  for (u32 j = 0; j < maxJobs; ++j) {
    for (const auto& e : entries) {
      if (j >= e.jobs) continue;
      const auto& info = datagen::datasetInfo(e.dataset);
      const auto field =
          datagen::generateF32(e.dataset, j % info.numFields, e.elems);
      core::Config jobCfg;
      jobCfg.relErrorBound = e.rel;
      if (chaos) {
        jobCfg.checksum = true;
        jobCfg.blockChecksums = true;
        jobCfg.faultRetries = 2;
      }
      for (;;) {
        auto submitted = cl.submitCompress<f32>(
            e.tenant, std::span<const f32>(field), jobCfg);
        if (submitted.accepted()) {
          pending.push_back(Pending{&e, std::move(submitted.ticket)});
          break;
        }
        require(submitted.reason == service::RejectReason::QueueFull ||
                    submitted.reason ==
                        service::RejectReason::QuotaExceeded ||
                    submitted.reason == service::RejectReason::CircuitOpen,
                "serve: submission rejected: " + submitted.detail);
        ++rejections;
        cl.resume();  // start draining so a retried slot can free up
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
  }
  cl.resume();
  cl.shutdown();

  struct TenantSummary {
    u32 jobs = 0;
    u32 failed = 0;
    u32 shard = 0;
    u64 bytesIn = 0;
    u64 bytesOut = 0;
  };
  std::vector<std::pair<std::string, TenantSummary>> tenants;
  auto summaryFor = [&](const std::string& t) -> TenantSummary& {
    for (auto& [name, s] : tenants) {
      if (name == t) return s;
    }
    tenants.emplace_back(t, TenantSummary{});
    return tenants.back().second;
  };

  int rc = 0;
  OutcomeTally tally;
  for (const Pending& p : pending) {
    const cluster::ClusterJobResult& r = p.ticket.wait();
    TenantSummary& s = summaryFor(p.entry->tenant);
    s.jobs += 1;
    s.shard = r.shard;
    tally.count(r.job.outcome);
    if (!r.job.ok && r.job.outcome != service::Outcome::Degraded) {
      s.failed += 1;
      std::fprintf(stderr, "serve: tenant %s job %llu failed: %s\n",
                   p.entry->tenant.c_str(),
                   static_cast<unsigned long long>(p.ticket.id()),
                   r.job.error.c_str());
      rc = 1;
      continue;
    }
    s.bytesIn += r.job.compressed.originalBytes;
    s.bytesOut += r.job.compressed.stream.size();
    // Replicate each completed stream as a sealed archive: identical
    // streams from different tenants dedup inside every shard's replica
    // store, and casTotals() below sums the fleet-wide saving.
    if (useCas && !r.job.compressed.stream.empty()) {
      cl.putArchive(p.entry->tenant,
                    "job-" + std::to_string(p.ticket.id()),
                    ConstByteSpan(r.job.compressed.stream));
    }
  }
  if (!tally.served()) rc = 1;

  std::printf("served %zu jobs from %zu tenants on %u shards "
              "(replicas %u)\n",
              pending.size(), tenants.size(), cl.shardCount(),
              cfg.replicas);
  if (rejections > 0) {
    std::printf("backpressure: %llu submissions retried\n",
                static_cast<unsigned long long>(rejections));
  }
  std::printf("per-tenant summary:\n");
  std::printf("  %-12s %6s %6s %12s %12s %8s\n", "tenant", "jobs",
              "shard", "bytes in", "bytes out", "ratio");
  for (const auto& [name, s] : tenants) {
    std::printf("  %-12s %6u %6u %12llu %12llu %8.3f\n", name.c_str(),
                s.jobs, s.shard,
                static_cast<unsigned long long>(s.bytesIn),
                static_cast<unsigned long long>(s.bytesOut),
                s.bytesOut > 0 ? static_cast<f64>(s.bytesIn) /
                                     static_cast<f64>(s.bytesOut)
                               : 0.0);
    if (s.failed > 0) {
      std::printf("  %-12s %6u jobs FAILED\n", name.c_str(), s.failed);
    }
  }
  std::printf("per-shard summary:\n");
  std::printf("  %-6s %-28s %-10s %10s %10s\n", "shard", "device",
              "state", "completed", "dispatched");
  for (const cluster::ShardInfo& info : cl.shardInfos()) {
    std::printf("  %-6u %-28s %-10s %10llu %10llu\n", info.id,
                info.device.c_str(), cluster::toString(info.state),
                static_cast<unsigned long long>(info.stats.completed),
                static_cast<unsigned long long>(info.stats.dispatched));
  }
  const cluster::ClusterStats cstats = cl.stats();
  std::printf("health: %llu completed, %llu failed, %llu degraded, "
              "%llu abandoned, %llu canceled; failovers %llu, "
              "steals %llu, spills %llu, shard kills %llu, "
              "kills vetoed %llu\n",
              static_cast<unsigned long long>(tally.completed),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.degraded),
              static_cast<unsigned long long>(tally.abandoned),
              static_cast<unsigned long long>(tally.canceled),
              static_cast<unsigned long long>(cstats.failovers),
              static_cast<unsigned long long>(cstats.steals),
              static_cast<unsigned long long>(cstats.spills),
              static_cast<unsigned long long>(cstats.shardKills),
              static_cast<unsigned long long>(cstats.killsVetoed));
  if (useCas) printCasLine(cl.casTotals());
  printKernelTable();
  return rc;
}

/// `cuszp2 store <verb> <store.cas> ...` — an on-disk content-addressed
/// block store (docs/CAS.md). Every mutating verb re-saves the store
/// sealed with the XOR-parity trailer, so `cuszp2 verify`/`repair` work
/// on store files too. The CLI opens stores with deferGc so `rm` parks
/// chunks and `store gc` is an observable, separate sweep.
int doStore(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string verb = argv[2];
  const std::string path = argv[3];

  const auto open = [&]() -> std::unique_ptr<cas::BlockStore> {
    return cas::BlockStore::load(path, {.deferGc = true});
  };
  const auto openOrCreate = [&]() -> std::unique_ptr<cas::BlockStore> {
    if (std::filesystem::exists(path)) return open();
    cas::StoreConfig cfg;
    cfg.deferGc = true;
    return std::make_unique<cas::BlockStore>(cfg);
  };
  const auto seal = [&](cas::BlockStore& store) {
    const io::ParityOptions parity;
    store.save(path, &parity);
  };

  if (verb == "put") {
    if (argc != 7) usage();
    const std::string tenant = argv[4];
    const std::string name = argv[5];
    const io::MappedBytes mapped(argv[6]);
    auto store = openOrCreate();
    const cas::PutResult r = store->put(tenant, name, mapped.bytes());
    seal(*store);
    std::printf("put %s/%s: %llu bytes, %llu new + %llu dedup chunks "
                "(%llu physical bytes added)%s\n",
                tenant.c_str(), name.c_str(),
                static_cast<unsigned long long>(r.logicalBytes),
                static_cast<unsigned long long>(r.newChunks),
                static_cast<unsigned long long>(r.dedupChunks),
                static_cast<unsigned long long>(r.physicalBytesAdded),
                r.replaced ? " (replaced)" : "");
    printCasLine(store->stats());
    return 0;
  }
  if (verb == "get") {
    if (argc != 7) usage();
    const std::string tenant = argv[4];
    const std::string name = argv[5];
    auto store = open();
    const std::vector<std::byte> bytes = store->get(tenant, name);
    io::writeBytes(argv[6], ConstByteSpan(bytes));
    std::printf("get %s/%s: %zu bytes -> %s\n", tenant.c_str(),
                name.c_str(), bytes.size(), argv[6]);
    return 0;
  }
  if (verb == "rm") {
    if (argc != 6) usage();
    const std::string tenant = argv[4];
    const std::string name = argv[5];
    auto store = open();
    if (!store->erase(tenant, name)) {
      std::fprintf(stderr, "store rm: no such object %s/%s\n",
                   tenant.c_str(), name.c_str());
      return 1;
    }
    seal(*store);
    const cas::StoreStats s = store->stats();
    std::printf("rm %s/%s: ok (%llu chunks parked for gc)\n",
                tenant.c_str(), name.c_str(),
                static_cast<unsigned long long>(s.parkedChunks));
    return 0;
  }
  if (verb == "gc") {
    if (argc != 4) usage();
    auto store = open();
    const cas::StoreStats before = store->stats();
    const u64 freed = store->gc();
    seal(*store);
    std::printf("gc: freed %llu chunks, %llu bytes\n",
                static_cast<unsigned long long>(freed),
                static_cast<unsigned long long>(
                    store->stats().gcFreedBytes - before.gcFreedBytes));
    printCasLine(store->stats());
    return 0;
  }
  if (verb == "compact") {
    u64 coldTicks = 0;  // CLI compaction is explicit: default everything
    usize maxPerSweep = 0;
    core::PipelineMode pipeline = core::PipelineMode::Auto;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) usage();
        return argv[++i];
      };
      if (arg == "--cold-ticks") coldTicks = std::stoull(next());
      else if (arg == "--max") maxPerSweep = std::stoull(next());
      else if (arg == "--pipeline") {
        const std::string p = next();
        if (p == "auto") pipeline = core::PipelineMode::Auto;
        else if (p == "huffman") pipeline = core::PipelineMode::Huffman;
        else if (p == "rle") pipeline = core::PipelineMode::Rle;
        else if (p == "lorenzo-fle") pipeline = core::PipelineMode::LorenzoFle;
        else usage();
      } else {
        usage();
      }
    }
    auto store = open();
    cas::CompactionConfig ccfg;
    ccfg.coldTicks = coldTicks;
    ccfg.maxPerSweep =
        maxPerSweep > 0 ? maxPerSweep : std::max<usize>(1, store->objects().size());
    ccfg.pipeline = pipeline;
    cas::CompactionWorker worker(*store, ccfg);
    const usize migrated = worker.runOnce();
    seal(*store);
    const cas::CompactionStats cs = worker.stats();
    std::printf("compact: scanned %llu, migrated %zu to v3, "
                "%llu bytes reclaimed (%llu round-trip rejects, "
                "%llu not-smaller, %llu unsupported, %llu stale)\n",
                static_cast<unsigned long long>(cs.scanned), migrated,
                static_cast<unsigned long long>(cs.bytesReclaimed),
                static_cast<unsigned long long>(cs.roundTripRejects),
                static_cast<unsigned long long>(cs.notSmallerSkips),
                static_cast<unsigned long long>(cs.unsupportedSkips),
                static_cast<unsigned long long>(cs.staleDrops));
    printCasLine(store->stats());
    return 0;
  }
  if (verb == "stat") {
    if (argc != 4) usage();
    return doInfoStore(path);
  }
  if (verb == "recover") {
    std::string jpath = path + ".jnl";
    bool dryRun = false;
    for (int i = 4; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--journal") {
        if (i + 1 >= argc) usage();
        jpath = argv[++i];
      } else if (arg == "--dry-run") {
        dryRun = true;
      } else {
        usage();
      }
    }
    if (!std::filesystem::exists(jpath)) {
      std::fprintf(stderr, "store recover: no journal at %s\n",
                   jpath.c_str());
      return 1;
    }
    // recover() resumes the journal for appending, which trims a torn
    // tail in place — so a dry run replays a scratch copy and the real
    // journal stays byte-identical.
    std::string recoverJournal = jpath;
    if (dryRun) {
      recoverJournal = jpath + ".dry-run";
      std::filesystem::copy_file(
          jpath, recoverJournal,
          std::filesystem::copy_options::overwrite_existing);
    }
    cas::RecoveryReport rep;
    std::unique_ptr<cas::BlockStore> store;
    try {
      store = cas::BlockStore::recover(path, recoverJournal,
                                       {.deferGc = true}, &rep);
    } catch (const Error& e) {
      // Damaged journal header / foreign ownerTag: the tail cannot be
      // trusted, so recovery refuses rather than guessing. Exit 2 is the
      // documented "operator intervention" code (docs/DURABILITY.md).
      if (dryRun) std::filesystem::remove(recoverJournal);
      std::fprintf(stderr, "store recover: unrecoverable: %s\n", e.what());
      return 2;
    }
    std::printf("recover: snapshot %s (tick %llu), %llu journal records: "
                "%llu replayed, %llu already in snapshot%s\n",
                rep.snapshotLoaded ? path.c_str() : "absent (fresh store)",
                static_cast<unsigned long long>(rep.snapshotTick),
                static_cast<unsigned long long>(rep.journalRecords),
                static_cast<unsigned long long>(rep.replayedRecords),
                static_cast<unsigned long long>(rep.skippedRecords),
                rep.tornTail
                    ? (" (torn tail: " + std::to_string(rep.discardedBytes) +
                       " bytes discarded)")
                          .c_str()
                    : "");
    std::string verifyError;
    if (!store->verifyAll(&verifyError)) {
      if (dryRun) {
        store.reset();
        std::filesystem::remove(recoverJournal);
      }
      std::fprintf(stderr, "store recover: recovered store fails verify: "
                           "%s\n",
                   verifyError.c_str());
      return 2;
    }
    printCasLine(store->stats());
    if (dryRun) {
      store.reset();  // drop the resumed writer before removing its file
      std::filesystem::remove(recoverJournal);
      std::printf("recover: dry-run, snapshot and journal left untouched\n");
    } else {
      // Seal a fresh snapshot; the attached journal resets behind it, so
      // the next crash replays from this point.
      seal(*store);
      std::printf("recover: snapshot rewritten, journal reset\n");
      printJournalLine(store->journalStatus());
    }
    return 0;
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  // `--trace <path>` works with every subcommand: strip it here, activate
  // a session for the whole run, and write the JSON on the way out.
  std::string tracePath;
  std::vector<char*> args;
  args.reserve(static_cast<usize>(argc));
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 >= argc) usage();
      tracePath = argv[++i];
    } else {
      args.push_back(argv[i]);
    }
  }
  argc = static_cast<int>(args.size());
  argv = args.data();

  if (!tracePath.empty()) {
    g_tracePath = tracePath;
    g_trace = std::make_unique<telemetry::TraceSession>();
    g_traceScope = std::make_unique<telemetry::ScopedTrace>(*g_trace);
  }

  if (argc < 2) usage();
  const std::string cmd = argv[1];
  const auto dispatch = [&]() -> int {
    if (cmd == "compress") {
      if (argc < 4) usage();
      const Options opt = parseOptions(argc, argv, 4);
      return opt.precision == Precision::F32
                 ? doCompress<f32>(argv[2], argv[3], opt)
                 : doCompress<f64>(argv[2], argv[3], opt);
    }
    if (cmd == "decompress") {
      if (argc < 4) usage();
      bool salvage = false;
      f64 fill = 0.0;
      for (int i = 4; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--salvage") {
          salvage = true;
        } else if (arg == "--fill" && i + 1 < argc) {
          fill = std::stod(argv[++i]);
        } else {
          usage();
        }
      }
      return salvage ? doSalvageDecompress(argv[2], argv[3], fill)
                     : doDecompress(argv[2], argv[3]);
    }
    if (cmd == "info") {
      if (argc != 3) usage();
      return doInfo(argv[2]);
    }
    if (cmd == "verify") {
      if (argc == 3) return doVerifyIntegrity(argv[2]);
      if (argc != 4) usage();
      return doVerify(argv[2], argv[3]);
    }
    if (cmd == "repair") {
      if (argc < 3 || argc > 4) usage();
      bool dryRun = false;
      if (argc == 4) {
        if (std::string(argv[3]) != "--dry-run") usage();
        dryRun = true;
      }
      return doRepair(argv[2], dryRun);
    }
    if (cmd == "profile") {
      if (argc < 3) usage();
      const Options opt = parseOptions(argc, argv, 3);
      return opt.precision == Precision::F32
                 ? doProfileTyped<f32>(argv[2], opt)
                 : doProfileTyped<f64>(argv[2], opt);
    }
    if (cmd == "serve") {
      std::string manifest;
      u32 shards = 0;
      u32 replicas = 2;
      u32 workers = 2;
      usize depth = 256;
      u64 quota = 0;
      bool chaos = false;
      u64 chaosSeed = 0;
      bool useCas = false;
      for (int i = 2; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
          if (i + 1 >= argc) usage();
          return argv[++i];
        };
        if (arg == "--jobs") manifest = next();
        else if (arg == "--shards") shards = static_cast<u32>(std::stoul(next()));
        else if (arg == "--replicas") replicas = static_cast<u32>(std::stoul(next()));
        else if (arg == "--workers") workers = static_cast<u32>(std::stoul(next()));
        else if (arg == "--depth") depth = static_cast<usize>(std::stoull(next()));
        else if (arg == "--quota") quota = std::stoull(next());
        else if (arg == "--chaos-seed") { chaos = true; chaosSeed = std::stoull(next()); }
        else if (arg == "--cas") useCas = true;
        else usage();
      }
      if (manifest.empty()) usage();
      if (shards > 0) {
        return doServeCluster(manifest, shards, replicas, workers, depth,
                              quota, chaos, chaosSeed, useCas);
      }
      return doServe(manifest, workers, depth, quota, chaos, chaosSeed,
                     useCas);
    }
    if (cmd == "store") return doStore(argc, argv);
    usage();
  };

  int rc;
  try {
    rc = dispatch();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    rc = 1;
  }
  if (!flushTrace() && rc == 0) rc = 1;
  return rc;
}
