// Analytic kernel timing model.
//
// Converts the quantities a kernel records while running under the execution
// model (MemCounters, SyncStats) into modelled seconds on a given DeviceSpec.
// The model is deliberately simple and fully documented so that every figure
// the bench harness regenerates can be traced back to a handful of
// first-principles terms:
//
//   t_bandwidth = transactions * transactionBytes / DRAM_bandwidth
//   t_issue     = memory_instructions / device_issue_rate
//   t_compute   = arithmetic_ops / device_op_rate
//   t_atomics   = atomic_ops / device_atomic_rate       (serializing)
//   t_sync      = f(method, tiles)                      (see below)
//   kernel      = max(t_bandwidth, t_issue, t_compute) + t_atomics + t_sync
//                 + launch_overhead
//
// Sync term: a plain chained scan serializes one L2 hop per tile; decoupled
// lookback overlaps the chain with resident-block computation so only
// tiles/overlap hops plus the serial critical lookback depth (one hop)
// remain exposed (paper Fig. 12/13, evaluated in Fig. 17). Nothing the
// model charges depends on how the host pool interleaved the tiles.
#pragma once

#include "gpusim/device_spec.hpp"
#include "gpusim/mem_counters.hpp"
#include "gpusim/sync_stats.hpp"

namespace cuszp2::gpusim {

struct KernelTiming {
  f64 bandwidthSeconds = 0.0;
  f64 issueSeconds = 0.0;
  f64 computeSeconds = 0.0;
  f64 atomicSeconds = 0.0;
  f64 memsetSeconds = 0.0;
  f64 syncSeconds = 0.0;
  f64 launchSeconds = 0.0;

  /// Total modelled kernel time.
  f64 totalSeconds = 0.0;

  /// Achieved memory-pipeline throughput in GB/s: global + on-chip
  /// hierarchy bytes divided by total kernel time — the quantity Nsight
  /// Compute reports in the paper's Figs. 9 and 16.
  f64 memThroughputGBps = 0.0;
};

class TimingModel {
 public:
  explicit TimingModel(DeviceSpec spec) : spec_(std::move(spec)) {}

  const DeviceSpec& spec() const { return spec_; }

  /// Models one kernel.
  KernelTiming kernel(const MemCounters& mem, const SyncStats& sync) const;

  /// Sync-only time (used by the Fig. 17 harness to isolate the
  /// synchronization stage).
  f64 syncSeconds(const SyncStats& sync) const;

  /// Host<->device transfer time over PCIe.
  f64 pcieSeconds(u64 bytes) const;

  /// Device-side memset time (zero-block flush fast path).
  f64 memsetSeconds(u64 bytes) const;

  /// Fixed launch overhead of one kernel.
  f64 launchSeconds() const { return spec_.launchOverheadUs * 1e-6; }

 private:
  DeviceSpec spec_;
};

/// Convenience: GB/s for `bytes` processed in `seconds`.
inline f64 gbps(u64 bytes, f64 seconds) {
  return seconds <= 0.0 ? 0.0
                        : static_cast<f64>(bytes) / seconds / 1.0e9;
}

}  // namespace cuszp2::gpusim
