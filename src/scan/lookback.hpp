// Decoupled-lookback device-level prefix sum (paper Sec. IV-C; Merrill &
// Garland, NVR-2016-002).
//
// Each tile (thread block) publishes its local AGGREGATE, then walks its
// predecessors backwards, summing AGGREGATE values until it meets a tile
// whose inclusive PREFIX is already published; it then knows its exclusive
// prefix without waiting for the full serial chain, publishes its own
// inclusive PREFIX, and proceeds. State words pack a 2-bit flag with a
// 62-bit value in one 64-bit atomic so flag+value are observed together.
#pragma once

#include <atomic>
#include <memory>
#include <span>

#include "common/types.hpp"
#include "gpusim/mem_counters.hpp"
#include "gpusim/sync_stats.hpp"

namespace cuszp2::scan {

class LookbackState {
 public:
  static constexpr u64 kValueMask = (u64{1} << 62) - 1;
  static constexpr u64 kFlagInvalid = 0;
  static constexpr u64 kFlagAggregate = 1;
  static constexpr u64 kFlagPrefix = 2;

  explicit LookbackState(u32 numTiles);

  /// Non-owning variant over caller-provided state words (>= numTiles),
  /// e.g. carved from a scratch arena so repeated scans allocate nothing.
  LookbackState(u32 numTiles, std::span<std::atomic<u64>> storage);

  u32 numTiles() const { return numTiles_; }

  /// Full per-tile protocol: publish AGGREGATE, look back to compute the
  /// exclusive prefix, publish the inclusive PREFIX, and return the
  /// exclusive prefix. Safe to call concurrently from different tiles as
  /// long as every predecessor tile eventually calls it too (guaranteed by
  /// the launcher's in-order block claiming). Records the observed walk
  /// (steps, depth, spins) in `sync` as telemetry; `mem` is charged the
  /// serial walk (one predecessor read), independent of the schedule.
  u64 processTile(u32 tile, u64 aggregate, gpusim::SyncStats& sync,
                  gpusim::MemCounters& mem);

  /// Reads a tile's published inclusive prefix; spins until available.
  /// Used by the random-access decoder to locate one block without
  /// recomputing the whole scan.
  u64 waitInclusivePrefix(u32 tile) const;

  /// Resets all tiles to INVALID for reuse.
  void reset();

 private:
  void publish(u32 tile, u64 flag, u64 value);

  u32 numTiles_;
  std::unique_ptr<std::atomic<u64>[]> owned_;
  std::atomic<u64>* state_;
};

}  // namespace cuszp2::scan
