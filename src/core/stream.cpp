#include "core/stream.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <optional>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"
#include "core/block_codec.hpp"
#include "core/quantizer.hpp"
#include "core/stream_internal.hpp"
#include "metrics/error_stats.hpp"
#include "scan/chained.hpp"
#include "scan/lookback.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::core {

namespace {

/// Unified per-tile synchronization over either protocol, so the kernels
/// are written once (ablations switch the algorithm, Sec. VI-E). The flag
/// words live in the stream's arena: repeated scans allocate nothing.
class TileSync {
 public:
  TileSync(scan::Algorithm algo, u32 tiles, Arena& arena)
      : algo_(algo),
        lookback_(tilesFor(algo, scan::Algorithm::DecoupledLookback, tiles),
                  arena.allocSpan<std::atomic<u64>>(
                      tilesFor(algo, scan::Algorithm::DecoupledLookback,
                               tiles))),
        chained_(tilesFor(algo, scan::Algorithm::ChainedScan, tiles),
                 arena.allocSpan<std::atomic<u64>>(
                     tilesFor(algo, scan::Algorithm::ChainedScan, tiles))) {}

  u64 processTile(u32 tile, u64 aggregate, gpusim::SyncStats& sync,
                  gpusim::MemCounters& mem) {
    return algo_ == scan::Algorithm::DecoupledLookback
               ? lookback_.processTile(tile, aggregate, sync, mem)
               : chained_.processTile(tile, aggregate, sync, mem);
  }

 private:
  static u32 tilesFor(scan::Algorithm algo, scan::Algorithm wanted,
                      u32 tiles) {
    return algo == wanted ? tiles : 1;
  }

  scan::Algorithm algo_;
  scan::LookbackState lookback_;
  scan::ChainedScanState chained_;
};

// Stage helpers shared with the format-v3 pipeline (stream_v3.cpp):
// access-pattern recording, prediction inverses, dequantization, and
// profile assembly all live in stream_internal.hpp now.
using detail::AccessRecorder;
using detail::dequantizeSpan;
using detail::kDigestBytes;
using detail::kernelBlockDigest;
using detail::kernelDigestMatches;
using detail::kNoBadBlock;
using detail::makeProfile;
using detail::putFooterDigest;
using detail::residualsToQuants;
using detail::secondOrderDiff;
using detail::stampStreamCrc;
using detail::streamCrc;
using detail::throwFirstDigestMismatch;
using detail::walkBlockLayout;

/// Tile-local compression scratch, pre-partitioned into one slot per pool
/// worker. A worker runs exactly one task at a time and each kernel-body
/// invocation fully re-initializes its slot, so slots never alias.
struct WorkerScratch {
  std::span<i32> quants;
  std::span<BlockPlan> plans;
  usize quantsPerWorker = 0;
  usize plansPerWorker = 0;
};

WorkerScratch makeWorkerScratch(Arena& arena, usize workers, u32 bpt,
                                u32 L) {
  WorkerScratch s;
  s.quantsPerWorker = static_cast<usize>(bpt) * L;
  s.plansPerWorker = bpt;
  s.quants = arena.allocSpan<i32>(workers * s.quantsPerWorker);
  s.plans = arena.allocSpan<BlockPlan>(workers * s.plansPerWorker);
  return s;
}

/// Everything one compress needs between preparation and finalization.
/// Prepared on the host, referenced by the kernel body.
struct FieldJob {
  StreamHeader header;
  u64 n = 0;
  u64 originalBytes = 0;
  u32 tiles = 0;
  f64 rangeSeconds = 0.0;
  std::byte* staging = nullptr;  // header | offsets | payload, in the arena
  usize stagingBytes = 0;
  std::span<u64> tileInclusive;
  /// Per-tile CRC-32 over the tile's written offset + payload bytes,
  /// computed inside the kernel when fault verification is on
  /// (Config::faultRetries > 0); the host re-derives them from the staging
  /// memory after the launch to detect injected write faults.
  std::span<u32> tileWriteCrc;
  /// Version 2: each block's footer digest, taken by the kernel as it
  /// writes the block; finishField copies them into the footer.
  std::span<u16> blockDigests;
  std::optional<TileSync> sync;
  std::function<void(gpusim::BlockCtx&)> body;
};

/// Host-side setup of one field's compression: error-bound resolution,
/// header, arena staging, scan state, and the kernel body. Mirrors the
/// seed one-shot pipeline exactly so the staged bytes are identical.
template <FloatingPoint T>
void prepareField(const Config& config, const gpusim::TimingModel& timing,
                  Arena& arena, const WorkerScratch& scratch, usize workers,
                  std::span<const T> data, FieldJob& job) {
  const u32 L = config.blockSize;
  const u32 bpt = config.blocksPerTile;
  const u64 n = data.size();
  job.n = n;
  job.originalBytes = n * sizeof(T);

  // Resolve the error bound. If only a REL bound is configured, reduce the
  // value range on-device first (one bandwidth-limited read of the input).
  f64 absEb = config.absErrorBound;
  if (absEb <= 0.0) {
    const f64 range = metrics::valueRange(data);
    absEb = Quantizer::absFromRel(config.relErrorBound, range);
    job.rangeSeconds =
        gpusim::modelledPassSeconds(job.originalBytes, timing.spec(), 1.0);
  }
  const Quantizer quantizer(absEb, config.roundingMode);

  job.header.version =
      config.blockChecksums ? kFormatVersionV2 : kFormatVersion;
  job.header.precision = precisionOf<T>();
  job.header.mode = config.mode;
  job.header.predictor = config.predictor;
  job.header.blockSize = L;
  job.header.numElements = n;
  job.header.absErrorBound = absEb;

  const u64 numBlocks = job.header.numBlocks();
  job.tiles =
      static_cast<u32>(std::max<u64>(1, (numBlocks + bpt - 1) / bpt));

  job.stagingBytes = job.header.payloadBegin() +
                     static_cast<usize>(numBlocks) * maxPayloadSize(L) +
                     job.header.footerBytes();
  job.staging = static_cast<std::byte*>(arena.allocate(job.stagingBytes));
  job.header.serialize(job.staging);
  if (n == 0) return;  // body stays empty: nothing to launch

  std::byte* offsetBytes = job.staging + StreamHeader::offsetsBegin();
  std::byte* payloadOut = job.staging + job.header.payloadBegin();

  job.tileInclusive = arena.allocSpan<u64>(job.tiles);
  if (config.faultRetries > 0) {
    job.tileWriteCrc = arena.allocSpan<u32>(job.tiles);
  }
  if (job.header.hasBlockChecksums()) {
    job.blockDigests = arena.allocSpan<u16>(numBlocks);
  }
  job.sync.emplace(config.syncAlgorithm, job.tiles, arena);

  const BlockCodec codec(L);
  const AccessRecorder access{config.vectorizedAccess,
                              timing.spec().transactionBytes};
  const Predictor predictor = config.predictor;
  const EncodingMode mode = config.mode;
  const T* values = data.data();
  TileSync* sync = &*job.sync;
  const std::span<u64> tileInclusive = job.tileInclusive;
  const std::span<u32> tileWriteCrc = job.tileWriteCrc;
  const std::span<u16> blockDigests = job.blockDigests;
  const std::span<i32> scratchQuants = scratch.quants;
  const std::span<BlockPlan> scratchPlans = scratch.plans;
  const usize quantsPerWorker = scratch.quantsPerWorker;
  const usize plansPerWorker = scratch.plansPerWorker;

  job.body = [=](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    const u32 blocksHere = static_cast<u32>(lastBlock - firstBlock);

    // Tile-local scratch slot (GPU shared-memory analogue): quantization
    // integers and per-block plans for this worker.
    const usize w = ThreadPool::currentWorkerIndex();
    require(w < workers, "CompressorStream: kernel body ran outside its "
                         "worker pool");
    const std::span<i32> quants =
        scratchQuants.subspan(w * quantsPerWorker, quantsPerWorker);
    const std::span<BlockPlan> plans =
        scratchPlans.subspan(w * plansPerWorker, plansPerWorker);

    // Pass 1 — fused lossy conversion + prediction + encoding analysis
    // (the "extra loop" that makes compression slower than decompression,
    // Sec. V-B).
    u64 aggregate = 0;
    u64 elemsRead = 0;
    for (u32 b = 0; b < blocksHere; ++b) {
      const u64 blockIdx = firstBlock + b;
      const u64 eFirst = blockIdx * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      std::span<i32> q(quants.data() + static_cast<usize>(b) * L, L);
      quantizeDiffBlock(quantizer,
                        std::span<const T>(values + eFirst, eLast - eFirst),
                        q);
      if (predictor == Predictor::SecondOrder) secondOrderDiff(q);
      elemsRead += eLast - eFirst;

      plans[b] = codec.planResiduals(q, mode);
      offsetBytes[blockIdx] = static_cast<std::byte>(plans[b].header.pack());
      aggregate += plans[b].payloadBytes;
    }
    access.read(ctx.mem, elemsRead * sizeof(T), sizeof(T));
    access.write(ctx.mem, blocksHere, 1);
    // Pass-1 analysis: quantize + diff + selection scan, ~12 integer ops
    // per element regardless of content. Quantization scratch lives in
    // shared memory.
    ctx.mem.noteOps(static_cast<u64>(blocksHere) * L * 12);
    ctx.mem.noteL1(static_cast<u64>(blocksHere) * L * 8);

    // Global prefix sum over tile aggregates (step 3).
    const u64 base =
        sync->processTile(ctx.blockIdx, aggregate, ctx.sync, ctx.mem);
    tileInclusive[ctx.blockIdx] = base + aggregate;

    // Pass 2 — encode payloads and concatenate (step 4), taking each
    // block's version-2 footer digest while its bytes are in hand. Under
    // fault verification the tile also digests the bytes it just wrote
    // (reading back its own stores, before any soft error can land),
    // giving the host a ground truth to re-derive from memory after the
    // launch.
    u64 cursor = base;
    u32 writeCrc = 0;
    for (u32 b = 0; b < blocksHere; ++b) {
      std::span<const i32> r(quants.data() + static_cast<usize>(b) * L, L);
      codec.encodeResiduals(r, plans[b], payloadOut + cursor);
      if (!blockDigests.empty()) {
        blockDigests[firstBlock + b] = kernelBlockDigest(
            ctx.mem, ConstByteSpan(offsetBytes + firstBlock + b, 1),
            ConstByteSpan(payloadOut + cursor, plans[b].payloadBytes));
      }
      if (!tileWriteCrc.empty()) {
        writeCrc = crc32(
            ConstByteSpan(offsetBytes + firstBlock + b, 1), writeCrc);
        writeCrc = crc32(
            ConstByteSpan(payloadOut + cursor, plans[b].payloadBytes),
            writeCrc);
      }
      cursor += plans[b].payloadBytes;
    }
    if (!tileWriteCrc.empty()) tileWriteCrc[ctx.blockIdx] = writeCrc;
    access.write(ctx.mem, aggregate, 4);
    if (!blockDigests.empty()) {
      access.write(ctx.mem, blocksHere * kDigestBytes, kDigestBytes);
    }
    // Pass-2 encoding cost scales with the bytes actually packed: zero
    // blocks are skipped outright and well-compressed blocks pack fewer
    // planes, which is why sparse/smooth data compresses *faster* and why
    // CUSZP2-O can outrun CUSZP2-P when its ratio advantage is large
    // (paper Fig. 15 and Sec. V-B).
    ctx.mem.noteOps(aggregate * 6);
    ctx.mem.noteL1(static_cast<u64>(blocksHere) * L * 4);
  };
}

/// Turns a prepared + launched field into the public Compressed result:
/// checksum stamp, exact-size copy out of the staging area, profile.
Compressed finishField(const Config& config,
                       const gpusim::TimingModel& timing, FieldJob& job,
                       const gpusim::LaunchResult& launch) {
  Compressed out;
  out.originalBytes = job.originalBytes;
  if (job.n == 0) {
    out.stream.assign(job.staging, job.staging + StreamHeader::kBytes);
    out.ratio = 0.0;
    out.profile.endToEndSeconds = timing.launchSeconds();
    return out;
  }

  const u64 totalPayload = job.tileInclusive[job.tiles - 1];
  usize finalBytes =
      job.header.payloadBegin() + static_cast<usize>(totalPayload);
  f64 checksumSeconds = 0.0;

  // Version 2: copy the kernel's per-block digests into the footer after
  // the payload region.
  if (job.header.hasBlockChecksums()) {
    std::byte* footer = job.staging + finalBytes;
    for (u64 blk = 0; blk < job.blockDigests.size(); ++blk) {
      putFooterDigest(footer, blk, job.blockDigests[blk]);
    }
    finalBytes += job.header.footerBytes();
  }

  // Optional integrity stamp: CRC-32 over offsets + payload (+ footer).
  if (config.checksum) {
    stampStreamCrc(job.header, std::span<std::byte>(job.staging, finalBytes));
    checksumSeconds +=
        gpusim::modelledPassSeconds(finalBytes, timing.spec(), 1.0);
  }

  out.stream.assign(job.staging, job.staging + finalBytes);
  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  out.profile = makeProfile(launch, timing, out.originalBytes,
                            job.rangeSeconds + checksumSeconds);
  return out;
}

/// Host re-derivation of the compress kernel's per-tile write digests from
/// the staging memory. A soft error injected into the staged offset or
/// payload bytes after the kernel's stores retire changes this walk (the
/// sizes, the bytes, or both), so any mismatch against the in-kernel
/// digests means the written output is corrupt.
bool compressWriteDigestsMatch(const FieldJob& job, u32 bpt) {
  if (job.tileWriteCrc.empty()) return true;
  const u32 L = job.header.blockSize;
  const u64 numBlocks = job.header.numBlocks();
  const std::byte* offsets = job.staging + StreamHeader::offsetsBegin();
  const std::byte* payload = job.staging + job.header.payloadBegin();
  const PayloadSizeTable psize(L);
  u64 cursor = 0;
  for (u32 t = 0; t < job.tiles; ++t) {
    const u64 firstBlock = static_cast<u64>(t) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    u32 crc = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const usize size = psize[offsets[blk]];
      crc = crc32(ConstByteSpan(offsets + blk, 1), crc);
      crc = crc32(ConstByteSpan(payload + cursor, size), crc);
      cursor += size;
    }
    if (crc != job.tileWriteCrc[t]) return false;
  }
  return true;
}

}  // namespace

CompressorStream::CompressorStream(Config config, gpusim::DeviceSpec device)
    : config_(config), timing_(std::move(device)), launcher_() {
  config_.validate();
  launcher_.setTimingModel(&timing_);
  telemetry::MetricsRegistry& reg = telemetry::registry();
  instruments_.compressCalls = &reg.counter("stream.compress.calls");
  instruments_.compressBytesIn = &reg.counter("stream.compress.bytes_in");
  instruments_.compressBytesOut = &reg.counter("stream.compress.bytes_out");
  instruments_.decompressCalls = &reg.counter("stream.decompress.calls");
  instruments_.decompressBytesIn =
      &reg.counter("stream.decompress.bytes_in");
  instruments_.decompressBytesOut =
      &reg.counter("stream.decompress.bytes_out");
  instruments_.replaceBlocksCalls =
      &reg.counter("stream.replace_blocks.calls");
  instruments_.salvageCalls = &reg.counter("stream.salvage.calls");
  instruments_.salvageBadBlocks = &reg.counter("stream.salvage.bad_blocks");
  instruments_.faultsDetected = &reg.counter("stream.faults_detected");
  instruments_.faultRelaunches = &reg.counter("stream.fault_relaunches");
  instruments_.arenaHighWater = &reg.gauge("stream.arena_high_water");
  instruments_.lastGBps = &reg.gauge("stream.last_gbps");
}

void CompressorStream::noteFaultDetected() {
  ++faultsDetected_;
  instruments_.faultsDetected->add(1);
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->instant("fault_detected");
  }
}

void CompressorStream::noteFaultRelaunch() {
  ++faultRelaunches_;
  instruments_.faultRelaunches->add(1);
  if (telemetry::TraceSession* trace = telemetry::activeTrace()) {
    trace->instant("fault_relaunch");
  }
}

void CompressorStream::noteCompressed(const Compressed& out) {
  instruments_.compressCalls->add(1);
  instruments_.compressBytesIn->add(out.originalBytes);
  instruments_.compressBytesOut->add(out.stream.size());
  instruments_.arenaHighWater->set(
      static_cast<f64>(arena_.stats().highWater));
  instruments_.lastGBps->set(out.profile.endToEndGBps);
}

void CompressorStream::noteDecompressed(u64 streamBytes, u64 decodedBytes,
                                        f64 gbps) {
  instruments_.decompressCalls->add(1);
  instruments_.decompressBytesIn->add(streamBytes);
  instruments_.decompressBytesOut->add(decodedBytes);
  instruments_.arenaHighWater->set(
      static_cast<f64>(arena_.stats().highWater));
  instruments_.lastGBps->set(gbps);
}

void CompressorStream::reconfigure(const Config& config) {
  config.validate();
  config_ = config;
}

void CompressorStream::applyInjectedArenaBudget() {
  arena_.clearFailureBudget();
  if (const std::optional<u64> budget = launcher_.takeArenaFault()) {
    arena_.setFailureBudget(static_cast<usize>(*budget));
  }
}

gpusim::LaunchResult CompressorStream::launchVerified(
    const char* name, u32 gridSize,
    const std::function<void(gpusim::BlockCtx&)>& body,
    std::span<std::byte> faultTarget, const std::function<bool()>& verify,
    const std::function<void()>& rearm) {
  for (u32 attempt = 0;; ++attempt) {
    std::exception_ptr failure;
    gpusim::LaunchResult launch;
    bool ok = false;
    try {
      launch = launcher_.launch(gridSize, body, 0, faultTarget, name);
      ok = verify();
    } catch (const Error&) {
      failure = std::current_exception();
    }
    if (ok) return launch;
    noteFaultDetected();
    if (attempt >= config_.faultRetries) {
      if (failure) std::rethrow_exception(failure);
      throw Error("CompressorStream: kernel output still corrupt after " +
                  std::to_string(config_.faultRetries) +
                  " fault retries — giving up");
    }
    noteFaultRelaunch();
    rearm();
  }
}

/// The byte region the compress kernel writes: offset bytes + the payload
/// staging capacity (a fault landing past the final payload byte is
/// harmless by construction — those bytes never reach the stream).
std::span<std::byte> compressFaultTarget(const FieldJob& job) {
  return {job.staging + StreamHeader::offsetsBegin(),
          job.stagingBytes - StreamHeader::kBytes -
              job.header.footerBytes()};
}

template <FloatingPoint T>
Compressed CompressorStream::compress(std::span<const T> data) {
  if (config_.pipeline != PipelineMode::Legacy) return compressV3<T>(data);
  arena_.reset();
  applyInjectedArenaBudget();
  const usize workers = launcher_.workerCount();
  const WorkerScratch scratch = makeWorkerScratch(
      arena_, workers, config_.blocksPerTile, config_.blockSize);
  FieldJob job;
  prepareField(config_, timing_, arena_, scratch, workers, data, job);
  gpusim::LaunchResult launch;
  if (job.body) {
    if (config_.faultRetries > 0) {
      launch = launchVerified(
          "compress", job.tiles, job.body, compressFaultTarget(job),
          [&] { return compressWriteDigestsMatch(job, config_.blocksPerTile); },
          [&] {
            job.sync.emplace(config_.syncAlgorithm, job.tiles, arena_);
          });
    } else {
      launch = launcher_.launch(job.tiles, job.body, 0, {}, "compress");
    }
  }
  Compressed out = finishField(config_, timing_, job, launch);
  noteCompressed(out);
  return out;
}

template <FloatingPoint T>
Decompressed<T> CompressorStream::decompress(ConstByteSpan stream) {
  arena_.reset();
  applyInjectedArenaBudget();
  const StreamHeader header = StreamHeader::parse(stream);
  require(header.precision == precisionOf<T>(),
          "decompress: stream precision does not match the requested type");
  if (header.version >= kFormatVersionV3) {
    return decompressV3<T>(stream, header);
  }

  // Integrity check when the stream carries a checksum.
  f64 checksumSeconds = 0.0;
  if (header.checksum != 0) {
    require(streamCrc(stream) == header.checksum,
            "decompress: checksum mismatch — the stream is corrupted");
    checksumSeconds =
        gpusim::modelledPassSeconds(stream.size(), timing_.spec(), 1.0);
  }

  // Structural walk before any payload read: the prefix-summed payload
  // sizes must stay inside the stream and, with a footer, frame it
  // exactly. Version-2 digests are checked by the kernel below.
  const u64 numBlocks = header.numBlocks();
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks + 1);
  walkBlockLayout("decompress", header, stream, blockStart, false);

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;

  Decompressed<T> out;
  out.data.assign(n, T{});
  if (n == 0) {
    out.profile.endToEndSeconds = timing_.launchSeconds();
    noteDecompressed(stream.size(), 0, 0.0);
    return out;
  }

  const u32 tiles = static_cast<u32>(
      std::max<u64>(1, (numBlocks + bpt - 1) / bpt));
  const std::byte* offsetBytes = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const usize payloadAvail =
      stream.size() - header.payloadBegin() - header.footerBytes();
  const std::byte* footer =
      header.hasBlockChecksums() ? payload + payloadAvail : nullptr;

  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const PayloadSizeTable psize(L);
  std::optional<TileSync> syncState;
  syncState.emplace(config_.syncAlgorithm, tiles, arena_);
  std::span<u32> tileWriteCrc;
  if (config_.faultRetries > 0) {
    tileWriteCrc = arena_.allocSpan<u32>(tiles);
  }
  const std::span<u64> tileBad = arena_.allocSpan<u64>(tiles);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};

  const auto body = [&, tileWriteCrc](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    const u32 blocksHere = static_cast<u32>(lastBlock - firstBlock);

    // Read offset bytes; lengths fall out of the headers directly — no
    // second analysis loop, which is why decompression is faster (Sec. V-B).
    u64 aggregate = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      aggregate += psize[offsetBytes[blk]];
    }
    access.read(ctx.mem, blocksHere, 1);
    ctx.mem.noteOps(blocksHere * 2);

    const u64 base =
        syncState->processTile(ctx.blockIdx, aggregate, ctx.sync, ctx.mem);

    u64 cursor = base;
    i32 quantsArr[256];
    u64 zeroBytes = 0;
    u64 decodedElems = 0;
    u64 payloadBytesRead = 0;
    u64 firstBad = kNoBadBlock;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const auto h = BlockHeader::unpack(
          std::to_integer<u8>(offsetBytes[blk]));
      const usize size = psize[offsetBytes[blk]];
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);

      // Version 2: the scan has positioned the block, so its footer
      // digest is checked here; a failing block is skipped, never
      // decoded, and the host raises the error after the launch.
      if (footer != nullptr &&
          !kernelDigestMatches(ctx.mem, offsetBytes, footer, blk,
                               ConstByteSpan(payload + cursor, size))) {
        firstBad = std::min(firstBad, blk);
        cursor += size;
        continue;
      }
      if (!h.outlierMode && h.fixedLength == 0) {
        // Zero block: flush with device memset (paper Sec. V-B, JetIn).
        for (u64 e = eFirst; e < eLast; ++e) out.data[e] = T{};
        zeroBytes += (eLast - eFirst) * sizeof(T);
        continue;
      }

      require(cursor + size <= payloadAvail,
              "decompress: truncated payload region");
      std::span<i32> q(quantsArr, L);
      codec.decodeResiduals(h, payload + cursor, q);
      residualsToQuants(q, q, header.predictor);
      cursor += size;
      payloadBytesRead += size;
      dequantizeSpan(quantizer,
                     std::span<const i32>(quantsArr, eLast - eFirst),
                     out.data.data() + eFirst);
      decodedElems += eLast - eFirst;
    }
    tileBad[ctx.blockIdx] = firstBad;
    access.read(ctx.mem, payloadBytesRead, 4);
    if (footer != nullptr) {
      access.read(ctx.mem, blocksHere * kDigestBytes, kDigestBytes);
    }
    access.write(ctx.mem, decodedElems * sizeof(T), sizeof(T));
    ctx.mem.noteMemset(zeroBytes);
    ctx.mem.noteOps(decodedElems * 6);
    ctx.mem.noteL1(decodedElems * 8);

    // Fault verification: digest the output elements this tile just wrote
    // (reading back its own stores, before a soft error can land).
    if (!tileWriteCrc.empty()) {
      const u64 eFirst = firstBlock * L;
      const u64 eLast = std::min<u64>(n, lastBlock * L);
      tileWriteCrc[ctx.blockIdx] = crc32(ConstByteSpan(
          reinterpret_cast<const std::byte*>(out.data.data() + eFirst),
          (eLast - eFirst) * sizeof(T)));
    }
  };

  gpusim::LaunchResult launch;
  if (config_.faultRetries > 0) {
    const std::span<std::byte> outBytes(
        reinterpret_cast<std::byte*>(out.data.data()), n * sizeof(T));
    const auto verify = [&, tileWriteCrc] {
      for (u32 t = 0; t < tiles; ++t) {
        const u64 eFirst = static_cast<u64>(t) * bpt * L;
        const u64 eLast = std::min<u64>(
            n, std::min<u64>(numBlocks, static_cast<u64>(t) * bpt + bpt) * L);
        const u32 crc = crc32(ConstByteSpan(
            reinterpret_cast<const std::byte*>(out.data.data() + eFirst),
            (eLast - eFirst) * sizeof(T)));
        if (crc != tileWriteCrc[t]) return false;
      }
      return true;
    };
    launch = launchVerified("decompress", tiles, body, outBytes, verify, [&] {
      syncState.emplace(config_.syncAlgorithm, tiles, arena_);
    });
  } else {
    launch = launcher_.launch(tiles, body, 0, {}, "decompress");
  }
  throwFirstDigestMismatch("decompress", tileBad, blockStart,
                           header.payloadBegin());

  out.profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
  noteDecompressed(stream.size(), n * sizeof(T), out.profile.endToEndGBps);
  return out;
}

// Explicit instantiations of the public surface (the shared readers are
// instantiated in stream_v3.cpp).
template Compressed CompressorStream::compress<f32>(std::span<const f32>);
template Compressed CompressorStream::compress<f64>(std::span<const f64>);
template Decompressed<f32> CompressorStream::decompress<f32>(ConstByteSpan);
template Decompressed<f64> CompressorStream::decompress<f64>(ConstByteSpan);

}  // namespace cuszp2::core
