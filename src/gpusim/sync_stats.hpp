// Statistics recorded by the device-level synchronization (prefix-sum)
// protocols, consumed by the TimingModel to produce Fig. 17-style numbers.
// The model reads only `method`, `tiles` and `tileDataBytes`; the observed
// lookback steps, depth and spins depend on the host schedule and are
// telemetry.
#pragma once

#include "common/types.hpp"

namespace cuszp2::gpusim {

enum class SyncMethod : u8 {
  None = 0,             // kernel has no device-level synchronization
  ChainedScan = 1,      // plain serial chained scan (cuSZp v1 / FZ-GPU era)
  DecoupledLookback = 2,// Merrill-Garland style lookback (cuSZp2, Sec. IV-C)
  AtomicAggregate = 3,  // global atomic accumulation (FZ-GPU)
  ReduceThenScan = 4,   // classic 3-kernel reduce/scan/distribute
};

struct SyncStats {
  SyncMethod method = SyncMethod::None;

  /// Number of participating tiles (thread blocks).
  u64 tiles = 0;

  /// Total lookback inspection steps summed over all tiles.
  u64 lookbackSteps = 0;

  /// Longest observed lookback depth for a single tile (telemetry; the
  /// model charges the serial depth of one).
  u64 maxLookbackDepth = 0;

  /// Spin iterations spent waiting on an unpublished predecessor.
  u64 waitSpins = 0;

  /// Data bytes each tile covers (used by the reduce-then-scan cost model,
  /// whose dominant term is re-staging the tiles across kernel
  /// boundaries). 0 falls back to the 16 KiB standard compression tile.
  u64 tileDataBytes = 0;

  SyncStats& operator+=(const SyncStats& o) {
    tiles += o.tiles;
    lookbackSteps += o.lookbackSteps;
    if (o.maxLookbackDepth > maxLookbackDepth)
      maxLookbackDepth = o.maxLookbackDepth;
    waitSpins += o.waitSpins;
    if (tileDataBytes == 0) tileDataBytes = o.tileDataBytes;
    if (method == SyncMethod::None) method = o.method;
    return *this;
  }

  f64 avgLookbackDepth() const {
    return tiles == 0 ? 0.0
                      : static_cast<f64>(lookbackSteps) / static_cast<f64>(tiles);
  }
};

}  // namespace cuszp2::gpusim
