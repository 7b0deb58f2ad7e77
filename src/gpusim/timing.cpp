#include "gpusim/timing.hpp"

#include <algorithm>

namespace cuszp2::gpusim {

f64 TimingModel::syncSeconds(const SyncStats& sync) const {
  switch (sync.method) {
    case SyncMethod::None:
      return 0.0;
    case SyncMethod::ChainedScan:
      // Fully serialized: one hop of L2 visibility latency per tile.
      return static_cast<f64>(sync.tiles) * spec_.chainHopNs * 1e-9;
    case SyncMethod::DecoupledLookback: {
      // The chain still exists but overlaps with the work of all resident
      // blocks; only 1/overlap of it is exposed, plus the critical lookback
      // depth at its serial value: one hop once there is a predecessor.
      // The observed depth (sync.maxLookbackDepth) depends on how the host
      // pool happened to interleave tiles, so it is telemetry only.
      const f64 chain = static_cast<f64>(sync.tiles) * spec_.chainHopNs /
                        std::max(1.0, spec_.lookbackOverlap);
      const f64 depth = sync.tiles > 1 ? spec_.lookbackHopNs : 0.0;
      return (chain + depth) * 1e-9;
    }
    case SyncMethod::AtomicAggregate:
      // Modelled through MemCounters::atomicOps instead; charge only the
      // tile-count visibility term here.
      return static_cast<f64>(sync.tiles) * spec_.chainHopNs * 0.5e-9;
    case SyncMethod::ReduceThenScan: {
      // Three kernels: two extra launches, a serial single-block scan of
      // the tile sums, and — the dominant term — the per-tile state that
      // must round-trip global memory across the kernel boundaries
      // (single-pass designs keep it in registers/shared memory).
      const f64 tileBytes =
          sync.tileDataBytes > 0 ? static_cast<f64>(sync.tileDataBytes)
                                 : 16384.0;
      const f64 restage = static_cast<f64>(sync.tiles) * tileBytes * 2.0 /
                          (spec_.memBandwidthGBps * 1e9);
      const f64 serialScan = static_cast<f64>(sync.tiles) * 2.0e-9;
      return 2.0 * launchSeconds() + restage + serialScan;
    }
  }
  return 0.0;
}

f64 TimingModel::pcieSeconds(u64 bytes) const {
  return static_cast<f64>(bytes) / (spec_.pcieGBps * 1e9);
}

f64 TimingModel::memsetSeconds(u64 bytes) const {
  return static_cast<f64>(bytes) / (spec_.memsetGBps * 1e9);
}

KernelTiming TimingModel::kernel(const MemCounters& mem,
                                 const SyncStats& sync) const {
  KernelTiming t;
  const f64 transBytes = static_cast<f64>(mem.totalTransactions()) *
                         static_cast<f64>(spec_.transactionBytes);
  t.bandwidthSeconds = transBytes / (spec_.memBandwidthGBps * 1e9);
  t.issueSeconds =
      static_cast<f64>(mem.totalMemInstr()) / spec_.memInstrPerSec;
  t.computeSeconds = static_cast<f64>(mem.arithmeticOps) / spec_.opsPerSec;
  t.atomicSeconds = static_cast<f64>(mem.atomicOps) / spec_.atomicsPerSec;
  t.memsetSeconds = memsetSeconds(mem.memsetBytes);
  t.syncSeconds = syncSeconds(sync);
  t.launchSeconds = launchSeconds();
  t.totalSeconds = std::max({t.bandwidthSeconds, t.issueSeconds,
                             t.computeSeconds}) +
                   t.atomicSeconds + t.memsetSeconds + t.syncSeconds +
                   t.launchSeconds;
  t.memThroughputGBps =
      gbps(mem.totalBytes() + mem.l1Bytes, t.totalSeconds);
  return t;
}

}  // namespace cuszp2::gpusim
