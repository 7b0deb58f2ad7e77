// Thread-block grid launcher: the execution engine of the GPU model.
//
// A "kernel" is a callable invoked once per thread block with a BlockCtx.
// Each pool worker claims blocks one at a time, in index order, from a
// per-launch counter and runs each block as soon as it claims it. That is
// the forward-progress guarantee GPU hardware gives the decoupled-lookback
// scan: every block a spinning block can wait on is already running, so
// spinning on a predecessor always terminates.
//
// Each block records its memory traffic and sync behaviour into its own
// counters; the launcher reduces them into one LaunchResult the TimingModel
// can convert into modelled kernel seconds.
//
// Observability: every launch is auto-instrumented. When the process-wide
// telemetry registry is enabled, the launch accumulates into the
// per-kernel table (launches, DRAM bytes, modelled + wall seconds) under
// the kernel's name; when a telemetry::TraceSession is active, a complete
// trace event is emitted carrying memory-transaction, sync, fault and
// modelled-timing attributes. Both are a single relaxed atomic load when
// off. Modelled attributes need a TimingModel: owners register theirs via
// setTimingModel() (core::CompressorStream does).
#pragma once

#include <atomic>
#include <functional>
#include <optional>
#include <span>

#include "common/thread_pool.hpp"
#include "common/types.hpp"
#include "gpusim/mem_counters.hpp"
#include "gpusim/sync_stats.hpp"

namespace cuszp2::gpusim {

class TimingModel;

struct BlockCtx {
  u32 blockIdx = 0;
  u32 gridSize = 0;
  MemCounters mem;
  SyncStats sync;
};

struct LaunchResult {
  u32 gridSize = 0;
  MemCounters mem;
  SyncStats sync;
  /// Host wall-clock time of the simulated launch (diagnostic only; the
  /// figures use modelled time, not this).
  f64 wallSeconds = 0.0;
  /// Bits the active FaultPlan flipped in this kernel's fault target
  /// (diagnostic; tests assert the injection actually happened).
  u32 injectedBitFlips = 0;
  /// Model ticks the launch was stalled / a pool worker was wedged by the
  /// active FaultPlan (diagnostic, mirrors FaultPlan::stallTicks /
  /// wedgeTicks when the plan fired on this launch).
  u32 injectedStallTicks = 0;
  u32 injectedWedgeTicks = 0;
};

/// Deterministic fault-injection plan for a Launcher (soft-error model for
/// the detect-and-retry policy in core::CompressorStream). Launches are
/// numbered per Launcher instance in submission order; the plan fires on
/// launch index `triggerLaunch`, or on every launch from it onward when
/// `sticky` is set (for testing retry exhaustion).
struct FaultPlan {
  u64 seed = 1;
  u64 triggerLaunch = 0;
  /// Bits to flip at seeded-uniform positions of the kernel's faultTarget.
  u32 bitFlips = 0;
  /// When >= 0, the block with this index throws instead of running —
  /// the aborted-kernel fault mode.
  i64 abortBlock = -1;
  /// Kernel-stall fault: the triggering launch sleeps this many model
  /// ticks (1 tick = 1 ms of host time) before any block runs. The latency
  /// mode: the kernel eventually completes correctly, it is just slow —
  /// what a service-level watchdog must detect and route around.
  u32 stallTicks = 0;
  /// Worker-wedge fault: the pool worker that claims the launch's first
  /// block sleeps this many ticks before running it. The liveness mode:
  /// unlike a stall, the grid is already in flight and one executor has
  /// stopped draining while the rest of the pool keeps running.
  u32 wedgeTicks = 0;
  /// Arena-exhaustion fault: when nonzero, the owning stream caps its
  /// scratch arena at this many bytes for the operation that would issue
  /// the triggering launch (consumed via takeArenaFault()), making the
  /// arena throw — the resource-exhaustion mode.
  u64 arenaBudgetBytes = 0;
  bool sticky = false;
};

class Launcher {
 public:
  /// Uses the process-shared worker pool (see shared()). Creating launchers
  /// is therefore cheap: no threads are spawned per instance.
  Launcher();

  /// Uses an external pool (shared across launches).
  explicit Launcher(ThreadPool& pool);

  Launcher(const Launcher&) = delete;
  Launcher& operator=(const Launcher&) = delete;

  /// Lazily-created process-wide worker pool sized by
  /// ThreadPool::defaultWorkers(). All default-constructed launchers
  /// dispatch onto it, so repeated compressor construction pays no pool
  /// startup cost.
  static ThreadPool& shared();

  /// Runs `body` once per block index in [0, gridSize), blocks started in
  /// index order (see the header comment). `faultTarget` (optional) is the kernel's written bytes, as far as
  /// fault injection is concerned: an armed FaultPlan flips bits there
  /// after the grid completes (the soft-error model — memory damaged after
  /// the write retires, caught only by a later read-back). `name` keys the
  /// per-kernel metrics table and trace events; it must be a string
  /// literal (it is not copied).
  LaunchResult launch(u32 gridSize,
                      const std::function<void(BlockCtx&)>& body,
                      std::span<std::byte> faultTarget = {},
                      const char* name = "kernel");

  usize workerCount() const { return pool_->workerCount(); }

  /// The pool this launcher dispatches onto, for host passes that split
  /// work across it without being a kernel launch (no launch index, so no
  /// FaultPlan trigger moves).
  ThreadPool& pool() const { return *pool_; }

  /// Arms deterministic fault injection (replacing any previous plan).
  /// Affects only launches issued through this Launcher instance.
  void setFaultPlan(const FaultPlan& plan) { faultPlan_ = plan; }

  /// Disarms fault injection.
  void clearFaultPlan() { faultPlan_.reset(); }

  bool faultPlanArmed() const { return faultPlan_.has_value(); }

  /// Consumes a pending arena-exhaustion fault: returns the injected
  /// budget when the armed plan carries one and would fire on the next
  /// launch index, std::nullopt otherwise. Non-sticky plans hand the
  /// budget out once (the relaunch after the failure observes a healthy
  /// arena); sticky plans keep returning it. Called by the owning
  /// stream's operation entry points, never by pool workers.
  std::optional<u64> takeArenaFault();

  /// Kernels launched through this instance so far (the index space
  /// FaultPlan::triggerLaunch addresses).
  u64 launchCount() const {
    return launchSeq_.load(std::memory_order_relaxed);
  }

  /// Registers the timing model used to attach modelled-seconds attributes
  /// to telemetry (per-kernel table rows and trace event args). The model
  /// must outlive the launcher (or be cleared with nullptr). Telemetry
  /// works without one; modelled attributes are then reported as 0.
  void setTimingModel(const TimingModel* timing) { timing_ = timing; }

 private:
  bool faultActive(u64 launchIdx) const;
  void injectWriteFaults(u64 launchIdx, std::span<std::byte> target,
                         LaunchResult& result) const;

  /// Telemetry sink for one finished launch: accumulates into the
  /// per-kernel metrics table and, when a trace session is active, emits
  /// one complete event with mem/sync/fault/modelled-timing args. No-op
  /// (one relaxed load each) when both sinks are off.
  void noteLaunch(const char* name, const LaunchResult& result) const;

  /// Runs every block of the grid on the pool and reduces the counters.
  void runOnPool(u32 gridSize, const std::function<void(BlockCtx&)>& body,
                 bool fault, LaunchResult& result);
  /// Runs every block of the grid on the calling thread (nested launches).
  void runInline(u32 gridSize, const std::function<void(BlockCtx&)>& body,
                 bool fault, LaunchResult& result);

  ThreadPool* pool_;
  std::optional<FaultPlan> faultPlan_;
  std::atomic<u64> launchSeq_{0};
  const TimingModel* timing_ = nullptr;
};

/// Abort propagation for in-flight launches. When a block throws, the
/// launcher raises the current launch's abort flag so that other blocks
/// spinning on inter-block state (decoupled lookback, chained scan) can
/// unwind instead of waiting forever on a publish that will never come.
/// The first exception is rethrown from launch() after all tasks drain.
bool launchAborted();

/// Raises Error if the current launch has been aborted; called from spin
/// loops.
void throwIfLaunchAborted();

namespace detail {
void setCurrentAbortFlag(std::atomic<bool>* flag);
}

}  // namespace cuszp2::gpusim
