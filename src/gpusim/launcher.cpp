#include "gpusim/launcher.hpp"

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/timing.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::gpusim {

namespace {

const char* syncMethodName(SyncMethod m) {
  switch (m) {
    case SyncMethod::None: return "none";
    case SyncMethod::ChainedScan: return "chained_scan";
    case SyncMethod::DecoupledLookback: return "decoupled_lookback";
    case SyncMethod::AtomicAggregate: return "atomic_aggregate";
    case SyncMethod::ReduceThenScan: return "reduce_then_scan";
  }
  return "unknown";
}

thread_local std::atomic<bool>* tCurrentAbortFlag = nullptr;

/// Duration of one fault-injection model tick (FaultPlan::stallTicks /
/// wedgeTicks). Coarse enough that a handful of ticks dominates any real
/// kernel on the host model, small enough that tests stay fast.
constexpr std::chrono::milliseconds kFaultTick{1};

/// Per-launch completion latch, so concurrent launches sharing one pool
/// wait only on their own tasks (two streams compressing on the same
/// device must not serialize on each other's completion).
class Latch {
 public:
  explicit Latch(usize count) : remaining_(count) {}

  void countDown() {
    std::lock_guard<std::mutex> lock(mutex_);
    if (--remaining_ == 0) cv_.notify_all();
  }

  void wait() {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_.wait(lock, [this] { return remaining_ == 0; });
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  usize remaining_;
};

}  // namespace

bool launchAborted() {
  return tCurrentAbortFlag != nullptr &&
         tCurrentAbortFlag->load(std::memory_order_acquire);
}

void throwIfLaunchAborted() {
  if (launchAborted()) {
    throw Error("gpusim: launch aborted by a failing thread block");
  }
}

namespace detail {
void setCurrentAbortFlag(std::atomic<bool>* flag) {
  tCurrentAbortFlag = flag;
}
}  // namespace detail

Launcher::Launcher() : pool_(&shared()) {}

Launcher::Launcher(ThreadPool& pool) : pool_(&pool) {}

ThreadPool& Launcher::shared() {
  static ThreadPool pool(ThreadPool::defaultWorkers());
  return pool;
}

LaunchResult Launcher::launch(u32 gridSize,
                              const std::function<void(BlockCtx&)>& body,
                              u32 blocksPerTask,
                              std::span<std::byte> faultTarget,
                              const char* name) {
  const u64 launchIdx = launchSeq_.fetch_add(1, std::memory_order_relaxed);
  // Resolve the fault decision up front so pool workers never touch
  // faultPlan_ (it may be cleared while tasks drain).
  const bool fault = faultActive(launchIdx);
  LaunchResult result;
  result.gridSize = gridSize;
  if (ThreadPool::currentPool() == pool_) {
    runInline(gridSize, body, fault, result);
  } else if (gridSize > 0) {
    runOnPool(gridSize, body, blocksPerTask, fault, result);
  } else {
    return result;
  }
  if (faultActive(launchIdx)) {
    injectWriteFaults(launchIdx, faultTarget, result);
  }
  noteLaunch(name, result);
  return result;
}

void Launcher::noteLaunch(const char* name,
                          const LaunchResult& result) const {
  const bool metrics = telemetry::registry().enabled();
  telemetry::TraceSession* trace = telemetry::activeTrace();
  if (!metrics && trace == nullptr) return;
  // Modelled seconds (0 without a registered TimingModel).
  const f64 modelled =
      timing_ != nullptr ? timing_->kernel(result.mem, result.sync).totalSeconds
                         : 0.0;
  if (metrics) {
    telemetry::registry().noteKernelLaunch(name, result.mem.totalBytes(),
                                           modelled, result.wallSeconds);
  }
  if (trace == nullptr) return;
  using telemetry::TraceArg;
  std::vector<TraceArg> args;
  args.reserve(12);
  args.push_back(TraceArg::num("grid_size", result.gridSize));
  args.push_back(
      TraceArg::num("bytes_read", static_cast<f64>(result.mem.bytesRead)));
  args.push_back(TraceArg::num(
      "bytes_written", static_cast<f64>(result.mem.bytesWritten)));
  args.push_back(TraceArg::num(
      "transactions", static_cast<f64>(result.mem.totalTransactions())));
  args.push_back(TraceArg::num("atomic_ops",
                               static_cast<f64>(result.mem.atomicOps)));
  args.push_back(
      TraceArg::str("sync_method", syncMethodName(result.sync.method)));
  args.push_back(
      TraceArg::num("sync_tiles", static_cast<f64>(result.sync.tiles)));
  args.push_back(TraceArg::num(
      "max_lookback_depth",
      static_cast<f64>(result.sync.maxLookbackDepth)));
  args.push_back(TraceArg::num("wait_spins",
                               static_cast<f64>(result.sync.waitSpins)));
  args.push_back(TraceArg::num("injected_bit_flips",
                               static_cast<f64>(result.injectedBitFlips)));
  args.push_back(TraceArg::num("modelled_seconds", modelled));
  // The simulated launch's host wall time is the trace span's duration;
  // the modelled GPU time rides along as an arg so both views line up.
  trace->complete(name, result.wallSeconds * 1e6, std::move(args));
}

std::optional<u64> Launcher::takeArenaFault() {
  if (!faultPlan_ || faultPlan_->arenaBudgetBytes == 0) return std::nullopt;
  if (!faultActive(launchCount())) return std::nullopt;
  const u64 budget = faultPlan_->arenaBudgetBytes;
  if (!faultPlan_->sticky) faultPlan_->arenaBudgetBytes = 0;
  return budget;
}

bool Launcher::faultActive(u64 launchIdx) const {
  if (!faultPlan_) return false;
  return faultPlan_->sticky ? launchIdx >= faultPlan_->triggerLaunch
                            : launchIdx == faultPlan_->triggerLaunch;
}

/// Soft-error injection: flips `bitFlips` bits of the kernel's written
/// bytes at seeded-uniform positions. Deterministic per (seed, launches
/// since the trigger) — NOT the absolute launch index, which depends on
/// how much work this launcher happened to run before (schedule-dependent
/// in a multi-worker service). A non-sticky plan therefore damages
/// positions that are a pure function of its seed; a sticky plan varies
/// them per firing so relaunches observe fresh damage.
void Launcher::injectWriteFaults(u64 launchIdx, std::span<std::byte> target,
                                 LaunchResult& result) const {
  if (!faultPlan_ || faultPlan_->bitFlips == 0 || target.empty()) return;
  Rng rng(SplitMix64(faultPlan_->seed ^ (launchIdx - faultPlan_->triggerLaunch))
              .next());
  for (u32 i = 0; i < faultPlan_->bitFlips; ++i) {
    const usize pos = rng.uniformInt(target.size());
    target[pos] ^= static_cast<std::byte>(1u << rng.uniformInt(8));
  }
  result.injectedBitFlips += faultPlan_->bitFlips;
}

/// Fallback for launches issued from inside a kernel body running on this
/// launcher's own pool (the host-model analogue of CUDA dynamic
/// parallelism). Submitting to the pool could deadlock — every worker might
/// be blocked waiting for a nested launch — so the blocks run sequentially
/// on the calling thread. Ascending block order trivially satisfies the
/// forward-progress requirement of the scan protocols.
void Launcher::runInline(u32 gridSize,
                         const std::function<void(BlockCtx&)>& body,
                         bool fault, LaunchResult& result) {
  const auto t0 = std::chrono::steady_clock::now();
  if (fault && (faultPlan_->stallTicks > 0 || faultPlan_->wedgeTicks > 0)) {
    // Inline (nested) launches run on the calling pool worker, so a
    // wedge is indistinguishable from a stall here: both delay the
    // sequential block sweep.
    result.injectedStallTicks = faultPlan_->stallTicks;
    result.injectedWedgeTicks = faultPlan_->wedgeTicks;
    std::this_thread::sleep_for(
        (faultPlan_->stallTicks + faultPlan_->wedgeTicks) * kFaultTick);
  }
  for (u32 b = 0; b < gridSize; ++b) {
    if (fault && faultPlan_->abortBlock == static_cast<i64>(b)) {
      throw Error("gpusim: injected block abort (FaultPlan)");
    }
    BlockCtx ctx;
    ctx.blockIdx = b;
    ctx.gridSize = gridSize;
    body(ctx);
    result.mem += ctx.mem;
    result.sync += ctx.sync;
  }
  const auto t1 = std::chrono::steady_clock::now();
  result.wallSeconds = std::chrono::duration<f64>(t1 - t0).count();
}

void Launcher::runOnPool(u32 gridSize,
                         const std::function<void(BlockCtx&)>& body,
                         u32 blocksPerTask, bool fault,
                         LaunchResult& result) {
  if (blocksPerTask == 0) {
    // Enough tasks to keep every worker busy several times over, but not
    // so many that queue overhead dominates.
    const u32 targetTasks = static_cast<u32>(pool_->workerCount()) * 8;
    blocksPerTask = std::max<u32>(1, gridSize / std::max<u32>(1, targetTasks));
  }
  const u32 numTasks = static_cast<u32>(
      (static_cast<u64>(gridSize) + blocksPerTask - 1) / blocksPerTask);

  // Per-task accumulation avoids false sharing on per-block counters.
  std::vector<MemCounters> taskMem(numTasks);
  std::vector<SyncStats> taskSync(numTasks);

  std::atomic<bool> abortFlag{false};
  std::mutex exceptionMutex;
  std::exception_ptr firstException;
  Latch done(numTasks);

  const i64 abortBlock = fault ? faultPlan_->abortBlock : -1;
  const u32 wedgeTicks = fault ? faultPlan_->wedgeTicks : 0;
  const auto t0 = std::chrono::steady_clock::now();
  if (fault && faultPlan_->stallTicks > 0) {
    // Kernel-stall fault: the launching thread hangs before any task is
    // dispatched — the grid exists but makes no progress, exactly what a
    // deadline watchdog should observe as a hung launch.
    result.injectedStallTicks = faultPlan_->stallTicks;
    std::this_thread::sleep_for(faultPlan_->stallTicks * kFaultTick);
  }
  result.injectedWedgeTicks = wedgeTicks;
  for (u32 task = 0; task < numTasks; ++task) {
    const u32 first = task * blocksPerTask;
    const u32 last = std::min(gridSize, first + blocksPerTask);
    // Worker-wedge fault: whichever pool worker picks up the kernel's
    // first task stops draining for wedgeTicks. Later blocks of the same
    // grid may run (and spin on their predecessor) in the meantime; FIFO
    // dispatch guarantees the wedged block eventually finishes, so the
    // launch is slow but never deadlocked.
    const u32 wedge = task == 0 ? wedgeTicks : 0;
    pool_->submit([&, task, first, last, wedge] {
      detail::setCurrentAbortFlag(&abortFlag);
      try {
        if (wedge > 0) std::this_thread::sleep_for(wedge * kFaultTick);
        for (u32 b = first; b < last; ++b) {
          if (abortBlock == static_cast<i64>(b)) {
            throw Error("gpusim: injected block abort (FaultPlan)");
          }
          BlockCtx ctx;
          ctx.blockIdx = b;
          ctx.gridSize = gridSize;
          body(ctx);
          taskMem[task] += ctx.mem;
          taskSync[task] += ctx.sync;
        }
      } catch (...) {
        // Record the exception before raising the abort flag so that
        // secondary "launch aborted" errors from spinning blocks never
        // mask the root cause.
        {
          std::lock_guard<std::mutex> lock(exceptionMutex);
          if (!firstException) firstException = std::current_exception();
        }
        abortFlag.store(true, std::memory_order_release);
      }
      detail::setCurrentAbortFlag(nullptr);
      done.countDown();
    });
  }
  done.wait();
  const auto t1 = std::chrono::steady_clock::now();

  if (firstException) std::rethrow_exception(firstException);

  for (u32 task = 0; task < numTasks; ++task) {
    result.mem += taskMem[task];
    result.sync += taskSync[task];
  }
  result.wallSeconds = std::chrono::duration<f64>(t1 - t0).count();
}

}  // namespace cuszp2::gpusim
