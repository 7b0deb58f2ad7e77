#include "metrics/error_stats.hpp"

#include <algorithm>
#include <array>
#include <cmath>

#include "common/error.hpp"
#include "common/simd.hpp"
#include "common/thread_pool.hpp"

namespace cuszp2::metrics {

namespace {

/// Elements below which a range chunk is not worth a pool task.
constexpr usize kMinRangeChunk = usize{1} << 15;
constexpr usize kMaxRangeChunks = 64;

template <FloatingPoint T>
void foldRange(std::span<const T> data, T& lo, T& hi) {
  if (simd::minMax(data, &lo, &hi)) return;
  for (T v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
}

}  // namespace

template <FloatingPoint T>
f64 valueRange(std::span<const T> data) {
  if (data.empty()) return 0.0;
  T lo = data[0];
  T hi = data[0];
  for (T v : data) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  return static_cast<f64>(hi) - static_cast<f64>(lo);
}

template <FloatingPoint T>
f64 pooledValueRange(std::span<const T> data, ThreadPool& pool) {
  if (data.empty()) return 0.0;
  // Like the reference, every fold starts from data[0] and only a strictly
  // smaller (larger) value replaces an extreme: a NaN element is skipped,
  // and a leading NaN stays in both extremes to the end.
  const T first = data[0];
  const usize chunks = std::clamp<usize>(
      data.size() / kMinRangeChunk, 1,
      std::min(pool.workerCount(), kMaxRangeChunks));
  std::array<T, kMaxRangeChunks> los;
  std::array<T, kMaxRangeChunks> his;
  const usize per = (data.size() + chunks - 1) / chunks;
  const auto chunk = [&](usize c) {
    los[c] = first;
    his[c] = first;
    const usize begin = c * per;
    foldRange(data.subspan(begin, std::min(per, data.size() - begin)),
              los[c], his[c]);
  };
  if (chunks == 1) {
    chunk(0);
  } else {
    pool.run(chunks, chunk);
  }
  T lo = first;
  T hi = first;
  for (usize c = 0; c < chunks; ++c) {
    lo = std::min(lo, los[c]);
    hi = std::max(hi, his[c]);
  }
  // So lo and hi differ from the reference's at most in the sign of a
  // zero, and only when lo < hi — where that sign cannot change hi - lo.
  return static_cast<f64>(hi) - static_cast<f64>(lo);
}

template <FloatingPoint T>
ErrorStats computeErrorStats(std::span<const T> original,
                             std::span<const T> reconstructed) {
  require(original.size() == reconstructed.size(),
          "computeErrorStats: size mismatch");
  ErrorStats s;
  s.count = original.size();
  if (original.empty()) return s;

  f64 sumSq = 0.0;
  for (usize i = 0; i < original.size(); ++i) {
    const f64 err = static_cast<f64>(original[i]) -
                    static_cast<f64>(reconstructed[i]);
    s.maxAbsError = std::max(s.maxAbsError, std::abs(err));
    s.maxAbsValue =
        std::max(s.maxAbsValue, std::abs(static_cast<f64>(original[i])));
    sumSq += err * err;
  }
  s.mse = sumSq / static_cast<f64>(original.size());
  s.valueRange = valueRange(original);
  if (s.mse > 0.0 && s.valueRange > 0.0) {
    s.psnrDb = 20.0 * std::log10(s.valueRange) - 10.0 * std::log10(s.mse);
    s.nrmse = std::sqrt(s.mse) / s.valueRange;
  } else if (s.mse == 0.0) {
    s.psnrDb = std::numeric_limits<f64>::infinity();
    s.nrmse = 0.0;
  }
  return s;
}

template ErrorStats computeErrorStats<f32>(std::span<const f32>,
                                           std::span<const f32>);
template ErrorStats computeErrorStats<f64>(std::span<const f64>,
                                           std::span<const f64>);
template f64 valueRange<f32>(std::span<const f32>);
template f64 valueRange<f64>(std::span<const f64>);
template f64 pooledValueRange<f32>(std::span<const f32>, ThreadPool&);
template f64 pooledValueRange<f64>(std::span<const f64>, ThreadPool&);

}  // namespace cuszp2::metrics
