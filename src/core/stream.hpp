// cuSZp2 public API: single-kernel error-bounded lossy compression and
// decompression under the GPU execution model (paper Secs. III and IV).
// CompressorStream is the library's only codec object.
//
// compress():   Lossy Conversion -> Lossless Encoding -> Global Prefix-sum
//               (decoupled lookback) -> Block Concatenation, all inside one
//               simulated kernel launch.
// decompress(): offset scan -> payload decode -> reconstruction, also one
//               kernel; all-zero blocks are flushed via device memset.
// decompressBlocks(): random access to a block range (paper Sec. VI-B):
//               a host walk over the offset (descriptor) array positions
//               the blocks, then one kernel decodes only the requested
//               ones. It shares that walk with replaceBlocks() and
//               decompressResilient() for every format version.
//
// Every call returns a KernelProfile with the recorded memory counters,
// sync statistics, and the modelled device timing used by the bench
// harness; wall-clock time of the host simulation is reported separately
// and is never used for the figures.
//
// A stream owns every piece of per-call state the pipeline needs — a
// scratch arena backing quantization scratch, per-block plans, scan flag
// arrays, tile prefix sums and the payload staging area, plus a launcher on
// the process-shared worker pool — so repeated calls reuse warm buffers
// instead of paying malloc/free and pool startup per invocation. After one
// warm-up call at the peak input size the arena performs no further heap
// allocations (arenaStats().slabAllocations stays constant; asserted in
// tests/test_stream_reuse.cpp). Callers construct one stream and reuse it
// (the service, the archive writer, the allreduce codec, segmented
// streaming and the CLI each hold theirs); a freshly constructed stream and
// a warm, reused one write identical bytes in every configuration.
#pragma once

#include <string>
#include <vector>

#include "common/arena.hpp"
#include "core/config.hpp"
#include "core/format.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/timing.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::core {

struct KernelProfile {
  gpusim::MemCounters mem;
  gpusim::SyncStats sync;
  gpusim::KernelTiming timing;

  /// Modelled end-to-end time of the API call on the configured device:
  /// the single kernel + launch overhead, plus (only when configured) the
  /// REL-bound range reduction and the checksum pass. There is no PCIe or
  /// CPU stage — that is the point of the paper.
  f64 endToEndSeconds = 0.0;

  /// End-to-end throughput w.r.t. the original data size, the paper's
  /// headline metric (Sec. II).
  f64 endToEndGBps = 0.0;

  /// Host wall-clock seconds of the simulation run (diagnostic only).
  f64 wallSeconds = 0.0;
};

struct Compressed {
  std::vector<std::byte> stream;
  KernelProfile profile;
  u64 originalBytes = 0;
  f64 ratio = 0.0;
};

template <FloatingPoint T>
struct Decompressed {
  std::vector<T> data;
  KernelProfile profile;
};

template <FloatingPoint T>
struct BlockRange {
  /// Index of the first element covered by the decoded range.
  u64 firstElement = 0;
  std::vector<T> values;
  KernelProfile profile;
};

/// Why a block was quarantined by the salvage decoder.
enum class BlockVerdict : u8 {
  Good = 0,
  /// The block's payload (located by the offset-byte prefix sum) runs past
  /// the end of the stream's payload region.
  Truncated,
  /// Version-2 per-block digest mismatch: the offset byte or payload bytes
  /// are damaged.
  ChecksumMismatch,
  /// The block decode itself failed (malformed payload structure).
  DecodeError,
};

constexpr const char* toString(BlockVerdict v) {
  switch (v) {
    case BlockVerdict::Good: return "good";
    case BlockVerdict::Truncated: return "truncated";
    case BlockVerdict::ChecksumMismatch: return "checksum-mismatch";
    default: return "decode-error";
  }
}

/// Outcome of a resilient (salvage) decode: what survived, what was
/// quarantined, and where the damage starts. Returned instead of throwing
/// — strict decompress() keeps the throw-on-corruption behaviour.
struct DecodeReport {
  static constexpr u64 kNoCorruption = ~u64{0};

  /// False when the 40-byte header itself failed to parse; data is then
  /// empty and headerError holds the parse failure.
  bool headerOk = false;
  std::string headerError;

  /// Whole-stream CRC-32 verdict; true when the stream carries none.
  bool streamChecksumOk = true;

  /// True when the stream is version 2+ (per-block digests available, so
  /// quarantine decisions are per-block exact).
  bool blockChecksums = false;

  /// Version-3 dictionary section verdict: false when the section header
  /// or the shared Huffman table failed its CRC or parse. Blocks of
  /// Huffman pipelines are then quarantined (DecodeError) while blocks of
  /// table-free pipelines still decode. Always true for v1/v2 streams.
  bool dictionaryOk = true;

  /// True for version-2 streams whose offset-byte prefix sum + footer do
  /// not land exactly on the end of the stream (truncation or offset-byte
  /// damage; per-block digests then decide which blocks survive).
  bool framingDamaged = false;

  u64 totalBlocks = 0;
  u64 goodBlocks = 0;
  u64 badBlocks = 0;

  /// Stream-relative byte offset where the first quarantined block's
  /// payload begins (kNoCorruption when every block is good).
  u64 firstCorruptOffset = kNoCorruption;

  /// Per-block verdicts, totalBlocks entries.
  std::vector<BlockVerdict> verdicts;

  bool clean() const {
    return headerOk && streamChecksumOk && dictionaryOk && !framingDamaged &&
           badBlocks == 0;
  }
};

/// Result of CompressorStream::decompressResilient. Quarantined blocks'
/// elements hold the caller's fill value; all other elements are bit-exact
/// w.r.t. a clean decode.
template <FloatingPoint T>
struct Salvaged {
  std::vector<T> data;
  DecodeReport report;
  KernelProfile profile;
};

class CompressorStream {
 public:
  explicit CompressorStream(Config config = {},
                            gpusim::DeviceSpec device = gpusim::a100_40gb());

  /// Re-targets the stream without touching its warm scratch. Cheap enough
  /// to call before every operation.
  void reconfigure(const Config& config);

  const Config& config() const { return config_; }
  const gpusim::DeviceSpec& device() const { return timing_.spec(); }

  /// Scratch-arena counters; slabAllocations is constant across calls once
  /// the stream is warm (the zero-allocation steady state).
  const Arena::Stats& arenaStats() const { return arena_.stats(); }

  /// Compresses `data`, producing a self-describing stream. When
  /// Config::absErrorBound is unset, the value range is reduced on-device
  /// first (and its modelled cost charged) to honour the REL bound.
  template <FloatingPoint T>
  Compressed compress(std::span<const T> data);

  /// Decompresses a full stream produced by compress().
  template <FloatingPoint T>
  Decompressed<T> decompress(ConstByteSpan stream);

  /// Salvage decode: treats `stream` as untrusted, bounds-checks every
  /// offset/payload access, quarantines blocks that are truncated,
  /// out-of-range, digest-mismatched (version 2) or undecodable, fills
  /// their elements with `fillValue`, and reports instead of throwing.
  /// Never throws on corrupt input: an unparseable header (including a
  /// precision tag that does not match T) yields empty data with
  /// report.headerOk == false.
  template <FloatingPoint T>
  Salvaged<T> decompressResilient(ConstByteSpan stream, T fillValue = T{});

  /// Random access: decodes blocks [firstBlock, firstBlock + blockCount).
  template <FloatingPoint T>
  BlockRange<T> decompressBlocks(ConstByteSpan stream, u64 firstBlock,
                                 u64 blockCount);

  /// Random-access write (paper Sec. VI-B mentions writes behave like
  /// reads): re-encodes the blocks covering `values` — which replace the
  /// elements starting at firstBlock * blockSize — under the stream's own
  /// error bound and mode, and splices them into a new stream. `values`
  /// must cover whole blocks (its size is a multiple of the block size, or
  /// ends exactly at the stream's final element).
  template <FloatingPoint T>
  Compressed replaceBlocks(ConstByteSpan stream, u64 firstBlock,
                           std::span<const T> values);

  /// Simulated soft errors detected by post-launch write-digest
  /// verification (or aborted launches) since construction; see
  /// Config::faultRetries.
  u64 faultsDetected() const { return faultsDetected_; }

  /// Relaunches performed to absorb detected faults since construction.
  u64 faultRelaunches() const { return faultRelaunches_; }

  /// The stream's launcher — exposed so tests (and fault-drills) can arm a
  /// gpusim::FaultPlan against exactly this stream's kernels.
  gpusim::Launcher& launcher() { return launcher_; }

 private:
  // Format-v3 compress and full decode (stream_v3.cpp). compress() and
  // decompress() branch here when Config::pipeline != Legacy or the stream
  // header says version 3; the legacy single-kernel compress and lookback
  // decompress in stream.cpp keep writing and reading v1/v2. The block
  // range, replaceBlocks and salvage readers have one body for every
  // version, driven by the shared descriptor walk.
  template <FloatingPoint T>
  Compressed compressV3(std::span<const T> data);
  template <FloatingPoint T>
  Decompressed<T> decompressV3(ConstByteSpan stream,
                               const StreamHeader& header);

  /// Runs a kernel under the detect-and-retry policy: relaunches up to
  /// Config::faultRetries times while `verify` reports corrupt output or
  /// the launch aborts; `rearm` reinitializes scan state between attempts.
  gpusim::LaunchResult launchVerified(
      const char* name, u32 gridSize,
      const std::function<void(gpusim::BlockCtx&)>& body,
      std::span<std::byte> faultTarget, const std::function<bool()>& verify,
      const std::function<void()>& rearm);

  /// Consumes a pending arena-exhaustion fault from the launcher's
  /// FaultPlan (clearing any budget left by a previous operation): when
  /// one is armed for the next launch, this operation's scratch arena is
  /// capped so its first oversized allocation throws. Called at every
  /// fallible entry point right after arena_.reset(); the salvage path
  /// (decompressResilient) only clears — it must keep its no-throw
  /// contract even under an armed plan.
  void applyInjectedArenaBudget();

  /// Telemetry handles resolved once at construction against the global
  /// registry (see docs/OBSERVABILITY.md for the name catalogue).
  /// Recording through them is lock-free and a single branch when the
  /// registry is disabled, preserving the zero-allocation steady state.
  struct Instruments {
    telemetry::Counter* compressCalls;
    telemetry::Counter* compressBytesIn;
    telemetry::Counter* compressBytesOut;
    telemetry::Counter* decompressCalls;
    telemetry::Counter* decompressBytesIn;
    telemetry::Counter* decompressBytesOut;
    telemetry::Counter* replaceBlocksCalls;
    telemetry::Counter* salvageCalls;
    telemetry::Counter* salvageBadBlocks;
    telemetry::Counter* faultsDetected;
    telemetry::Counter* faultRelaunches;
    telemetry::Gauge* arenaHighWater;
    telemetry::Gauge* lastGBps;
  };

  void noteFaultDetected();
  void noteFaultRelaunch();
  void noteCompressed(const Compressed& out);
  void noteDecompressed(u64 streamBytes, u64 decodedBytes, f64 gbps);

  Config config_;
  gpusim::TimingModel timing_;
  gpusim::Launcher launcher_;
  Arena arena_;
  Instruments instruments_;
  u64 faultsDetected_ = 0;
  u64 faultRelaunches_ = 0;
};

}  // namespace cuszp2::core
