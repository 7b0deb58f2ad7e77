#include "scan/lookback.hpp"

#include <algorithm>
#include <span>
#include <thread>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "gpusim/launcher.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::scan {

LookbackState::LookbackState(u32 numTiles)
    : numTiles_(numTiles),
      owned_(std::make_unique<std::atomic<u64>[]>(numTiles)),
      state_(owned_.get()) {
  require(numTiles > 0, "LookbackState: numTiles must be > 0");
  reset();
}

LookbackState::LookbackState(u32 numTiles,
                             std::span<std::atomic<u64>> storage)
    : numTiles_(numTiles), state_(storage.data()) {
  require(numTiles > 0, "LookbackState: numTiles must be > 0");
  require(storage.size() >= numTiles,
          "LookbackState: external storage too small");
  reset();
}

void LookbackState::reset() {
  for (u32 i = 0; i < numTiles_; ++i) {
    state_[i].store(kFlagInvalid << 62, std::memory_order_relaxed);
  }
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

void LookbackState::publish(u32 tile, u64 flag, u64 value) {
  state_[tile].store((flag << 62) | (value & kValueMask),
                     std::memory_order_release);
}

u64 LookbackState::processTile(u32 tile, u64 aggregate,
                               gpusim::SyncStats& sync,
                               gpusim::MemCounters& mem) {
  require(tile < numTiles_, "LookbackState: tile out of range");
  require((aggregate & ~kValueMask) == 0,
          "LookbackState: aggregate exceeds 62-bit value field");

  sync.method = gpusim::SyncMethod::DecoupledLookback;
  sync.tiles += 1;

  // Observed lookback depth distribution (paper Fig. 13; telemetry — the
  // timing model charges the serial depth). Tile 0 records depth 0: it
  // publishes its prefix without looking back. The handle is resolved once per process; the
  // record itself is a branch when telemetry is off.
  static telemetry::Histogram& depthHist =
      telemetry::registry().histogram("scan.lookback.depth");

  if (tile == 0) {
    publish(0, kFlagPrefix, aggregate);
    mem.noteScalarWrite(8, 8, 32);
    depthHist.record(0);
    return 0;
  }

  publish(tile, kFlagAggregate, aggregate);
  mem.noteScalarWrite(8, 8, 32);

  // The walk gathers published predecessor words into a small window and
  // combines each window with one vector masked-sum (u64 adds are exact in
  // any order, so the result is identical to the scalar accumulation); the
  // per-word acquire loads and spin-wait semantics are unchanged.
  u64 exclusive = 0;
  u64 depth = 0;
  u64 spins = 0;
  u64 window[8];
  usize filled = 0;
  const auto combineWindow = [&] {
    u64 sum = 0;
    if (!simd::sumMaskedU64(std::span<const u64>(window, filled), kValueMask,
                            &sum)) {
      for (usize i = 0; i < filled; ++i) sum += window[i] & kValueMask;
    }
    exclusive += sum;
    filled = 0;
  };
  for (u32 look = tile; look-- > 0;) {
    ++depth;
    u64 packed = state_[look].load(std::memory_order_acquire);
    while ((packed >> 62) == kFlagInvalid) {
      gpusim::throwIfLaunchAborted();
      ++spins;
      std::this_thread::yield();
      packed = state_[look].load(std::memory_order_acquire);
    }
    window[filled++] = packed;
    if ((packed >> 62) == kFlagPrefix) break;
    if (filled == sizeof(window) / sizeof(window[0])) combineWindow();
  }
  combineWindow();
  // The modelled traffic is the serial walk's single predecessor read: how
  // far this tile really looked back depends on the host schedule, so it
  // is telemetry (the SyncStats below), not modelled cost.
  mem.noteScalarRead(8, 8, 32);

  sync.lookbackSteps += depth;
  sync.maxLookbackDepth = std::max(sync.maxLookbackDepth, depth);
  sync.waitSpins += spins;

  depthHist.record(depth);

  publish(tile, kFlagPrefix, (exclusive + aggregate) & kValueMask);
  mem.noteScalarWrite(8, 8, 32);
  return exclusive;
}

u64 LookbackState::waitInclusivePrefix(u32 tile) const {
  require(tile < numTiles_, "LookbackState: tile out of range");
  u64 packed = state_[tile].load(std::memory_order_acquire);
  while ((packed >> 62) != kFlagPrefix) {
    std::this_thread::yield();
    packed = state_[tile].load(std::memory_order_acquire);
  }
  return packed & kValueMask;
}

}  // namespace cuszp2::scan
