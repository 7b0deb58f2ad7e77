// Compressor configuration (paper Sec. V-A "Compressor Settings").
#pragma once

#include "common/error.hpp"
#include "common/types.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "scan/device_scan.hpp"

namespace cuszp2::core {

/// Default block size; the paper finds 32 the best balance of throughput
/// and ratio on all datasets.
inline constexpr u32 kDefaultBlockSize = 32;

/// Data blocks processed per thread block (tile) in the single kernel.
/// Mirrors a 128-thread CUDA block where each thread owns one data block
/// per iteration (Fig. 11).
inline constexpr u32 kDefaultBlocksPerTile = 128;

struct Config {
  /// Value-range-relative error bound lambda: the reconstruction error of
  /// every point is below lambda * (max - min). Ignored if absErrorBound
  /// is set.
  f64 relErrorBound = 1e-3;

  /// Absolute error bound; used instead of relErrorBound when > 0.
  f64 absErrorBound = 0.0;

  /// Plain-FLE (cuSZp2-P) or Outlier-FLE with per-block selection
  /// (cuSZp2-O). Sec. IV-A.
  EncodingMode mode = EncodingMode::Outlier;

  /// Data-block length in elements. Must be a multiple of 8 in [8, 256].
  u32 blockSize = kDefaultBlockSize;

  /// Data blocks per tile (thread block).
  u32 blocksPerTile = kDefaultBlocksPerTile;

  /// Device-level synchronization algorithm for the global prefix sum of
  /// the legacy compress and full-decompress kernels (the other readers
  /// position blocks from the host descriptor walk). DecoupledLookback is
  /// the cuSZp2 design; ChainedScan reproduces the cuSZp-v1 baseline and
  /// the Sec. VI-E ablation.
  scan::Algorithm syncAlgorithm = scan::Algorithm::DecoupledLookback;

  /// Vectorized (float4-style, warp-coalesced) global memory access.
  /// Disabling reverts to the scalar strided pattern of prior compressors
  /// (Sec. IV-B; ablation Sec. VI-E).
  bool vectorizedAccess = true;

  /// Stamp a CRC-32 over the offset + payload regions into the header;
  /// decompression then rejects corrupted streams instead of decoding
  /// garbage. Costs one extra bandwidth pass over the compressed bytes.
  bool checksum = false;

  /// Write format-version-2 streams with a per-block CRC footer (16-bit
  /// digest per block). Strict decompression then pins corruption to the
  /// failing block, and decompressResilient can quarantine damaged blocks
  /// while recovering every other block bit-exactly. Costs 2 bytes per
  /// block; the compress kernel takes the digests in-kernel, and the
  /// decode kernels check them in-kernel (no extra pass over the
  /// compressed bytes).
  bool blockChecksums = false;

  /// Detect-and-retry budget for simulated soft errors (gpusim FaultPlan):
  /// when > 0, compress/decompress launches compute per-tile write digests
  /// inside the kernel and verify them after the launch; a mismatch (or an
  /// aborted launch) triggers up to this many relaunches before the Error
  /// propagates. 0 disables verification (no overhead).
  u32 faultRetries = 0;

  /// Lossy-conversion rounding: Nearest (default, |err| <= eb) or Ceiling
  /// (one-sided err in (-2eb, 0], the paper's "rounding (or ceiling)").
  RoundingMode roundingMode = RoundingMode::Nearest;

  /// In-block prediction. FirstOrder is the paper's pipeline; SecondOrder
  /// exists as a design-validation ablation (see Predictor's doc comment).
  /// Recorded in the stream header, so decompression is self-describing.
  Predictor predictor = Predictor::FirstOrder;

  /// Per-block encoding pipeline policy (core/pipeline.hpp). Legacy emits
  /// the v1/v2 FLE wire format bit-exactly; any other value emits format
  /// v3, where each block records its pipeline id — Auto selects the
  /// smallest candidate per block, the remaining values pin one pipeline.
  PipelineMode pipeline = PipelineMode::Legacy;

  void validate() const {
    require(relErrorBound > 0.0 || absErrorBound > 0.0,
            "Config: an error bound must be positive");
    require(syncAlgorithm != scan::Algorithm::ReduceThenScan,
            "Config: reduce-then-scan needs multiple kernels and cannot "
            "run inside the single-kernel pipeline (use the scan module "
            "directly to benchmark it)");
    require(blockSize >= 8 && blockSize <= 256 && blockSize % 8 == 0,
            "Config: blockSize must be a multiple of 8 in [8, 256]");
    require(blocksPerTile >= 1 && blocksPerTile <= 4096,
            "Config: blocksPerTile must be in [1, 4096]");
    require(pipeline == PipelineMode::Legacy ||
                predictor == Predictor::FirstOrder,
            "Config: pipeline modes compose their own per-block predictors "
            "and require predictor == FirstOrder");
  }
};

}  // namespace cuszp2::core
