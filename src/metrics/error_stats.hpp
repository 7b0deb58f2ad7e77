// Reconstruction quality metrics: max error, PSNR, NRMSE, error-bound check.
// These implement the standard definitions used across the SZ literature
// (paper Sec. V-D).
#pragma once

#include <span>

#include "common/types.hpp"

namespace cuszp2 {
class ThreadPool;
}

namespace cuszp2::metrics {

struct ErrorStats {
  f64 maxAbsError = 0.0;
  f64 mse = 0.0;
  f64 psnrDb = 0.0;      // 20*log10(range) - 10*log10(mse)
  f64 nrmse = 0.0;       // sqrt(mse) / range
  f64 valueRange = 0.0;   // max - min of the original data
  f64 maxAbsValue = 0.0;  // largest |original| value
  usize count = 0;

  /// True when every reconstructed point is within `absErrorBound` of the
  /// original ("Pass error check!" in the paper's artifact output).
  bool withinBound(f64 absErrorBound) const {
    return maxAbsError <= absErrorBound * (1.0 + 1e-12);
  }

  /// Like withinBound, but allows the half-ulp the final rounding to the
  /// storage precision can add when the bound approaches the ulp scale
  /// (inherent to any floating-point compressor, not a defect).
  bool withinBoundFp(f64 absErrorBound, Precision precision) const {
    const f64 halfUlp =
        maxAbsValue * (precision == Precision::F32 ? 6.0e-8 : 1.2e-16);
    return maxAbsError <= absErrorBound * (1.0 + 1e-12) + halfUlp;
  }
};

template <FloatingPoint T>
ErrorStats computeErrorStats(std::span<const T> original,
                             std::span<const T> reconstructed);

/// Value range (max - min) of a field; REL error bounds are relative to it.
/// The scalar reference: a NaN first element makes the result NaN, any
/// other NaN is skipped.
template <FloatingPoint T>
f64 valueRange(std::span<const T> data);

/// valueRange, bit for bit (NaN, ±inf and ±0 included), as a SIMD min/max
/// split across `pool` (scalar under CUSZP2_SIMD=scalar). Fields too
/// small to split, and calls from one of the pool's own workers, run on
/// the calling thread.
template <FloatingPoint T>
f64 pooledValueRange(std::span<const T> data, ThreadPool& pool);

extern template ErrorStats computeErrorStats<f32>(std::span<const f32>,
                                                  std::span<const f32>);
extern template ErrorStats computeErrorStats<f64>(std::span<const f64>,
                                                  std::span<const f64>);
extern template f64 valueRange<f32>(std::span<const f32>);
extern template f64 valueRange<f64>(std::span<const f64>);
extern template f64 pooledValueRange<f32>(std::span<const f32>, ThreadPool&);
extern template f64 pooledValueRange<f64>(std::span<const f64>, ThreadPool&);

}  // namespace cuszp2::metrics
