// Host SIMD dispatch for the hot codec kernels (quantize+diff, bit-plane
// pack/unpack, prefix sums, dequantize, the REL value-range min/max). The compressed format is defined
// by the scalar kernels; every vector path here must be byte-identical to
// its scalar counterpart — integer kernels trivially, the float kernels by
// doing all arithmetic in the same IEEE f64 operations the scalar code
// performs (multiply, truncate, compare, convert are all exactly rounded,
// so lane order cannot change a result).
//
// Dispatch contract: each simd:: entry point returns `true` (or an element
// count) when the active vector path handled the call, and `false` (or 0)
// when the caller must run its scalar reference loop — so the scalar code
// stays where it is documented (fle.hpp, block_codec.cpp, stream.cpp) and
// `CUSZP2_SIMD=scalar` exercises exactly the pre-SIMD byte path.
//
// Backends: AVX2 on x86-64 (compiled via the `target` function attribute so
// the TU itself needs no -mavx2; entered only after a runtime
// __builtin_cpu_supports check), NEON on AArch64 for the integer kernels,
// scalar everywhere else. Runtime-selectable: CUSZP2_SIMD=scalar|native
// (default native when supported), overridable in-process via setMode() so
// tests can compare both modes against each other.
#pragma once

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <span>

#include "common/types.hpp"

#if defined(__x86_64__) || defined(__amd64__) || defined(_M_X64)
#define CUSZP2_SIMD_X86 1
#include <immintrin.h>
#elif defined(__aarch64__)
#define CUSZP2_SIMD_NEON 1
#include <arm_neon.h>
#endif

namespace cuszp2::simd {

enum class Mode : u8 { Scalar = 0, Native = 1 };

namespace detail {

inline bool nativeSupported() {
#if defined(CUSZP2_SIMD_X86)
  return __builtin_cpu_supports("avx2");
#elif defined(CUSZP2_SIMD_NEON)
  return true;
#else
  return false;
#endif
}

inline Mode initialMode() {
  const char* env = std::getenv("CUSZP2_SIMD");
  if (env != nullptr && std::strcmp(env, "scalar") == 0) return Mode::Scalar;
  // "native" or unset: widest supported path.
  return nativeSupported() ? Mode::Native : Mode::Scalar;
}

inline std::atomic<Mode>& modeCell() {
  static std::atomic<Mode> mode{initialMode()};
  return mode;
}

}  // namespace detail

inline Mode activeMode() {
  return detail::modeCell().load(std::memory_order_relaxed);
}

/// Test/tooling override; Native silently degrades to Scalar when the CPU
/// lacks the vector ISA so a sweep over both modes is always valid.
inline void setMode(Mode m) {
  if (m == Mode::Native && !detail::nativeSupported()) m = Mode::Scalar;
  detail::modeCell().store(m, std::memory_order_relaxed);
}

inline bool nativeActive() { return activeMode() == Mode::Native; }

inline const char* modeName() {
  if (!nativeActive()) return "scalar";
#if defined(CUSZP2_SIMD_X86)
  return "avx2";
#elif defined(CUSZP2_SIMD_NEON)
  return "neon";
#else
  return "scalar";
#endif
}

/// i32 lanes per vector op of the active backend (diagnostic only).
inline u32 laneCount() {
#if defined(CUSZP2_SIMD_X86)
  return nativeActive() ? 8 : 1;
#elif defined(CUSZP2_SIMD_NEON)
  return nativeActive() ? 4 : 1;
#else
  return 1;
#endif
}

/// quantizeDiffPrefix return value: a lane failed validation (non-finite or
/// out of quantization range); the caller re-runs its scalar loop from the
/// start for the exact diagnostic the format contract promises.
inline constexpr usize kLaneFault = ~usize{0};

// ---- AVX2 backend ------------------------------------------------------
#if defined(CUSZP2_SIMD_X86)

namespace detail {

/// Round-half-away-from-zero of 4 f64 lanes, matching
/// Quantizer::roundHalfAway bit-for-bit on every lane that passes the
/// range check: t = trunc(scaled) and frac = scaled - t are exact, and
/// t + (frac >= 0.5) - (frac <= -0.5) stays within f64's exact-integer
/// range for any |q| <= 2^30.
__attribute__((target("avx2"))) inline __m256d roundHalfAwayPd(__m256d s) {
  const __m256d t =
      _mm256_round_pd(s, _MM_FROUND_TO_ZERO | _MM_FROUND_NO_EXC);
  const __m256d frac = _mm256_sub_pd(s, t);
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d up =
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(0.5), _CMP_GE_OQ),
                    one);
  const __m256d dn =
      _mm256_and_pd(_mm256_cmp_pd(frac, _mm256_set1_pd(-0.5), _CMP_LE_OQ),
                    one);
  return _mm256_sub_pd(_mm256_add_pd(t, up), dn);
}

/// Any of the 8 converted lanes out of the [-maxQuant, maxQuant]
/// quantization range? Checked in the integer domain after cvtpd_epi32:
/// every in-range rounded value is integral and converts exactly, and any
/// lane cvt could not represent (NaN, inf, |x| >= 2^31) becomes the
/// indefinite value 0x80000000, whose unsigned magnitude also exceeds
/// maxQuant — so one unsigned-magnitude compare rejects all bad lanes.
__attribute__((target("avx2"))) inline bool anyLaneOutOfRange(__m256i q,
                                                              u32 maxQuant) {
  const __m256i mag = _mm256_abs_epi32(q);
  const __m256i maxV = _mm256_set1_epi32(static_cast<i32>(maxQuant));
  const __m256i clamped = _mm256_max_epu32(mag, maxV);
  return _mm256_movemask_epi8(_mm256_cmpeq_epi32(clamped, maxV)) != -1;
}

__attribute__((target("avx2"))) inline usize quantizeDiffPrefixF32Avx2(
    f64 recip, const f32* values, usize n, i32* residuals, i32* prev) {
  const usize vecN = n & ~usize{7};
  const __m256d recipV = _mm256_set1_pd(recip);
  const u32 maxQuant = (1u << 30) - 1;
  const __m256i rotate =
      _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  i32 p = *prev;
  for (usize i = 0; i < vecN; i += 8) {
    const __m256 f = _mm256_loadu_ps(values + i);
    const __m256d lo = _mm256_cvtps_pd(_mm256_castps256_ps128(f));
    const __m256d hi = _mm256_cvtps_pd(_mm256_extractf128_ps(f, 1));
    const __m256d qlo = roundHalfAwayPd(_mm256_mul_pd(lo, recipV));
    const __m256d qhi = roundHalfAwayPd(_mm256_mul_pd(hi, recipV));
    const __m256i q = _mm256_set_m128i(_mm256_cvtpd_epi32(qhi),
                                       _mm256_cvtpd_epi32(qlo));
    if (anyLaneOutOfRange(q, maxQuant)) {
      *prev = p;
      return kLaneFault;
    }
    const __m256i rotated = _mm256_permutevar8x32_epi32(q, rotate);
    const __m256i shifted =
        _mm256_blend_epi32(rotated, _mm256_set1_epi32(p), 0x01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(residuals + i),
                        _mm256_sub_epi32(q, shifted));
    p = _mm256_extract_epi32(q, 7);
  }
  *prev = p;
  return vecN;
}

__attribute__((target("avx2"))) inline usize quantizeDiffPrefixF64Avx2(
    f64 recip, const f64* values, usize n, i32* residuals, i32* prev) {
  const usize vecN = n & ~usize{7};
  const __m256d recipV = _mm256_set1_pd(recip);
  const u32 maxQuant = (1u << 30) - 1;
  const __m256i rotate =
      _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  i32 p = *prev;
  for (usize i = 0; i < vecN; i += 8) {
    const __m256d vlo = _mm256_loadu_pd(values + i);
    const __m256d vhi = _mm256_loadu_pd(values + i + 4);
    const __m256d qlo = roundHalfAwayPd(_mm256_mul_pd(vlo, recipV));
    const __m256d qhi = roundHalfAwayPd(_mm256_mul_pd(vhi, recipV));
    const __m256i q = _mm256_set_m128i(_mm256_cvtpd_epi32(qhi),
                                       _mm256_cvtpd_epi32(qlo));
    if (anyLaneOutOfRange(q, maxQuant)) {
      *prev = p;
      return kLaneFault;
    }
    const __m256i rotated = _mm256_permutevar8x32_epi32(q, rotate);
    const __m256i shifted =
        _mm256_blend_epi32(rotated, _mm256_set1_epi32(p), 0x01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(residuals + i),
                        _mm256_sub_epi32(q, shifted));
    p = _mm256_extract_epi32(q, 7);
  }
  *prev = p;
  return vecN;
}

__attribute__((target("avx2"))) inline u32 maxAbsU32Avx2(const i32* v,
                                                         usize n) {
  __m256i acc = _mm256_setzero_si256();
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    // abs(INT32_MIN) wraps to 0x80000000, exactly absU32's u32 magnitude.
    acc = _mm256_max_epu32(acc, _mm256_abs_epi32(x));
  }
  alignas(32) u32 lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u32 m = 0;
  for (const u32 l : lanes) m = m < l ? l : m;
  for (; i < n; ++i) {
    const i32 x = v[i];
    const u32 a = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
    m = m < a ? a : m;
  }
  return m;
}

/// Max of absU32 over v[1..n) for n a multiple of 8: lane 0 of the first
/// vector is zeroed (abs values are non-negative, so zero is the identity)
/// and every vector participates — no scalar tail on the hot plan path.
__attribute__((target("avx2"))) inline u32 maxAbsTailU32Avx2(const i32* v,
                                                             usize n) {
  __m256i first =
      _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v));
  first = _mm256_blend_epi32(first, _mm256_setzero_si256(), 0x01);
  __m256i acc = _mm256_abs_epi32(first);
  for (usize i = 8; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    acc = _mm256_max_epu32(acc, _mm256_abs_epi32(x));
  }
  alignas(32) u32 lanes[8];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u32 m = 0;
  for (const u32 l : lanes) m = m < l ? l : m;
  return m;
}

__attribute__((target("avx2"))) inline void absI32Avx2(const i32* v, usize n,
                                                       u32* out) {
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_abs_epi32(x));
  }
  for (; i < n; ++i) {
    const i32 x = v[i];
    out[i] = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
  }
}

__attribute__((target("avx2"))) inline void diffI32Avx2(const i32* v,
                                                        usize n, i32* out) {
  const __m256i rotate = _mm256_setr_epi32(7, 0, 1, 2, 3, 4, 5, 6);
  i32 p = 0;
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i q =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(v + i));
    const __m256i rotated = _mm256_permutevar8x32_epi32(q, rotate);
    const __m256i shifted =
        _mm256_blend_epi32(rotated, _mm256_set1_epi32(p), 0x01);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_sub_epi32(q, shifted));
    p = _mm256_extract_epi32(q, 7);
  }
  for (; i < n; ++i) {
    out[i] = v[i] - p;
    p = v[i];
  }
}

__attribute__((target("avx2"))) inline void packSignsAvx2(const i32* diffs,
                                                          usize n,
                                                          std::byte* out) {
  for (usize j = 0; j * 8 < n; ++j) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(diffs + j * 8));
    out[j] = static_cast<std::byte>(
        _mm256_movemask_ps(_mm256_castsi256_ps(v)));
  }
}

/// Fused single pass over one block: absolute values out plus the packed
/// sign bitmap, loading each group of 8 residuals once. `n` must be a
/// multiple of 8 (BlockCodec guarantees blockSize % 8 == 0).
__attribute__((target("avx2"))) inline void absAndPackSignsAvx2(
    const i32* residuals, usize n, u32* absOut, std::byte* signs) {
  for (usize j = 0; j * 8 < n; ++j) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(residuals + j * 8));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(absOut + j * 8),
                        _mm256_abs_epi32(v));
    signs[j] = static_cast<std::byte>(
        _mm256_movemask_ps(_mm256_castsi256_ps(v)));
  }
}

__attribute__((target("avx2"))) inline void packPlanesAvx2(const u32* vals,
                                                           usize n, u32 fl,
                                                           std::byte* out) {
  const usize pb = n / 8;
  for (usize j = 0; j < pb; ++j) {
    const __m256i v = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(vals + j * 8));
    std::byte* dst = out + j;
    for (u32 plane = 0; plane < fl; ++plane) {
      // Move bit `plane` of every lane into the lane's sign position; one
      // movemask then emits the whole plane byte.
      const __m256i sh =
          _mm256_sll_epi32(v, _mm_cvtsi32_si128(static_cast<int>(31 - plane)));
      dst[static_cast<usize>(plane) * pb] = static_cast<std::byte>(
          _mm256_movemask_ps(_mm256_castsi256_ps(sh)));
    }
  }
}

__attribute__((target("avx2"))) inline void unpackPlanesAvx2(
    const std::byte* in, usize n, u32 fl, u32* vals) {
  const usize pb = n / 8;
  const __m256i laneBits =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (usize j = 0; j < pb; ++j) {
    const std::byte* src = in + j;
    __m256i acc = _mm256_setzero_si256();
    for (u32 plane = 0; plane < fl; ++plane) {
      const int b = std::to_integer<int>(src[static_cast<usize>(plane) * pb]);
      const __m256i isSet = _mm256_cmpeq_epi32(
          _mm256_and_si256(_mm256_set1_epi32(b), laneBits), laneBits);
      acc = _mm256_or_si256(
          acc, _mm256_and_si256(
                   isSet, _mm256_set1_epi32(static_cast<i32>(1u << plane))));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(vals + j * 8), acc);
  }
}

__attribute__((target("avx2"))) inline void applySignsAvx2(
    const std::byte* signs, const u32* absVals, usize n, i32* out) {
  const __m256i laneBits =
      _mm256_setr_epi32(1, 2, 4, 8, 16, 32, 64, 128);
  for (usize j = 0; j * 8 < n; ++j) {
    const __m256i a = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(absVals + j * 8));
    const int b = std::to_integer<int>(signs[j]);
    const __m256i neg = _mm256_cmpeq_epi32(
        _mm256_and_si256(_mm256_set1_epi32(b), laneBits), laneBits);
    const __m256i negated = _mm256_sub_epi32(_mm256_setzero_si256(), a);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + j * 8),
                        _mm256_blendv_epi8(a, negated, neg));
  }
}

/// Inclusive 8-lane i32 scan within one register (log-step shifts inside
/// the 128-bit lanes, then the low lane's total is added to the high lane).
__attribute__((target("avx2"))) inline __m256i scan8Epi32(__m256i x) {
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 4));
  x = _mm256_add_epi32(x, _mm256_slli_si256(x, 8));
  const __m256i lowTotal = _mm256_permutevar8x32_epi32(
      x, _mm256_setr_epi32(3, 3, 3, 3, 3, 3, 3, 3));
  return _mm256_add_epi32(
      x, _mm256_blend_epi32(_mm256_setzero_si256(), lowTotal, 0xF0));
}

__attribute__((target("avx2"))) inline void prefixSumI32Avx2(const i32* in,
                                                             usize n,
                                                             i32* out) {
  i32 carry = 0;
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i x = scan8Epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(in + i)));
    const __m256i withCarry =
        _mm256_add_epi32(x, _mm256_set1_epi32(carry));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), withCarry);
    carry = _mm256_extract_epi32(withCarry, 7);
  }
  for (; i < n; ++i) {
    carry = static_cast<i32>(static_cast<u32>(carry) +
                             static_cast<u32>(in[i]));
    out[i] = carry;
  }
}

__attribute__((target("avx2"))) inline void dequantizeF32Avx2(
    const i32* q, usize n, f64 twoEb, f32* out) {
  const __m256d scale = _mm256_set1_pd(twoEb);
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256i qi =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(q + i));
    const __m256d lo = _mm256_cvtepi32_pd(_mm256_castsi256_si128(qi));
    const __m256d hi = _mm256_cvtepi32_pd(_mm256_extracti128_si256(qi, 1));
    // cvtpd_ps rounds to nearest-even exactly like static_cast<f32>(f64).
    _mm_storeu_ps(out + i, _mm256_cvtpd_ps(_mm256_mul_pd(lo, scale)));
    _mm_storeu_ps(out + i + 4, _mm256_cvtpd_ps(_mm256_mul_pd(hi, scale)));
  }
  for (; i < n; ++i) {
    out[i] = static_cast<f32>(static_cast<f64>(q[i]) * twoEb);
  }
}

__attribute__((target("avx2"))) inline void dequantizeF64Avx2(
    const i32* q, usize n, f64 twoEb, f64* out) {
  const __m256d scale = _mm256_set1_pd(twoEb);
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i qi =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(q + i));
    _mm256_storeu_pd(out + i,
                     _mm256_mul_pd(_mm256_cvtepi32_pd(qi), scale));
  }
  for (; i < n; ++i) out[i] = static_cast<f64>(q[i]) * twoEb;
}

__attribute__((target("avx2"))) inline u64 sumMaskedU64Avx2(const u64* words,
                                                            usize n,
                                                            u64 mask) {
  __m256i acc = _mm256_setzero_si256();
  const __m256i maskV = _mm256_set1_epi64x(static_cast<long long>(mask));
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i w =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(words + i));
    acc = _mm256_add_epi64(acc, _mm256_and_si256(w, maskV));
  }
  alignas(32) u64 lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  u64 total = lanes[0] + lanes[1] + lanes[2] + lanes[3];
  for (; i < n; ++i) total += words[i] & mask;
  return total;
}

// MINPS/MAXPS return their second operand unless the first is strictly
// smaller/larger, so min(v, acc) is exactly `v < acc ? v : acc` — the
// std::min(acc, v) step, which never takes a NaN element — and likewise
// for max.
__attribute__((target("avx2"))) inline void minMaxF32Avx2(const f32* v,
                                                          usize n, f32* lo,
                                                          f32* hi) {
  __m256 lo0 = _mm256_set1_ps(*lo);
  __m256 hi0 = _mm256_set1_ps(*hi);
  __m256 lo1 = lo0;
  __m256 hi1 = hi0;
  usize i = 0;
  for (; i + 16 <= n; i += 16) {
    const __m256 a = _mm256_loadu_ps(v + i);
    const __m256 b = _mm256_loadu_ps(v + i + 8);
    lo0 = _mm256_min_ps(a, lo0);
    hi0 = _mm256_max_ps(a, hi0);
    lo1 = _mm256_min_ps(b, lo1);
    hi1 = _mm256_max_ps(b, hi1);
  }
  alignas(32) f32 los[8];
  alignas(32) f32 his[8];
  _mm256_store_ps(los, _mm256_min_ps(lo1, lo0));
  _mm256_store_ps(his, _mm256_max_ps(hi1, hi0));
  f32 l = *lo;
  f32 h = *hi;
  for (usize k = 0; k < 8; ++k) {
    l = los[k] < l ? los[k] : l;
    h = h < his[k] ? his[k] : h;
  }
  for (; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = h < v[i] ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

__attribute__((target("avx2"))) inline void minMaxF64Avx2(const f64* v,
                                                          usize n, f64* lo,
                                                          f64* hi) {
  __m256d lo0 = _mm256_set1_pd(*lo);
  __m256d hi0 = _mm256_set1_pd(*hi);
  __m256d lo1 = lo0;
  __m256d hi1 = hi0;
  usize i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256d a = _mm256_loadu_pd(v + i);
    const __m256d b = _mm256_loadu_pd(v + i + 4);
    lo0 = _mm256_min_pd(a, lo0);
    hi0 = _mm256_max_pd(a, hi0);
    lo1 = _mm256_min_pd(b, lo1);
    hi1 = _mm256_max_pd(b, hi1);
  }
  alignas(32) f64 los[4];
  alignas(32) f64 his[4];
  _mm256_store_pd(los, _mm256_min_pd(lo1, lo0));
  _mm256_store_pd(his, _mm256_max_pd(hi1, hi0));
  f64 l = *lo;
  f64 h = *hi;
  for (usize k = 0; k < 4; ++k) {
    l = los[k] < l ? los[k] : l;
    h = h < his[k] ? his[k] : h;
  }
  for (; i < n; ++i) {
    l = v[i] < l ? v[i] : l;
    h = h < v[i] ? v[i] : h;
  }
  *lo = l;
  *hi = h;
}

}  // namespace detail

#endif  // CUSZP2_SIMD_X86

// ---- NEON backend (integer kernels only) -------------------------------
// The float quantize path stays scalar on AArch64 until it can be
// hardware-validated against the golden streams; the integer kernels below
// are bit-exact by construction.
#if defined(CUSZP2_SIMD_NEON)

namespace detail {

inline u32 maxAbsU32Neon(const i32* v, usize n) {
  uint32x4_t acc = vdupq_n_u32(0);
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    const int32x4_t x = vld1q_s32(v + i);
    acc = vmaxq_u32(acc, vreinterpretq_u32_s32(vqabsq_s32(x)));
  }
  u32 m = vmaxvq_u32(acc);
  for (; i < n; ++i) {
    const i32 x = v[i];
    const u32 a = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
    m = m < a ? a : m;
  }
  return m;
}

inline void absI32Neon(const i32* v, usize n, u32* out) {
  usize i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_u32(out + i, vreinterpretq_u32_s32(vabsq_s32(vld1q_s32(v + i))));
  }
  for (; i < n; ++i) {
    const i32 x = v[i];
    out[i] = x < 0 ? 0u - static_cast<u32>(x) : static_cast<u32>(x);
  }
}

inline void dequantizeF64Neon(const i32* q, usize n, f64 twoEb, f64* out) {
  const float64x2_t scale = vdupq_n_f64(twoEb);
  usize i = 0;
  for (; i + 2 <= n; i += 2) {
    const int32x2_t qi = vld1_s32(q + i);
    vst1q_f64(out + i,
              vmulq_f64(vcvtq_f64_s64(vmovl_s32(qi)), scale));
  }
  for (; i < n; ++i) out[i] = static_cast<f64>(q[i]) * twoEb;
}

}  // namespace detail

#endif  // CUSZP2_SIMD_NEON

// ---- Dispatching entry points ------------------------------------------

/// Fused quantize (round-half-away) + first-order diff over a vectorizable
/// prefix of `values`. Returns the element count consumed (0 when the
/// caller must run its scalar loop for everything), or kLaneFault when a
/// lane is non-finite/out-of-range (caller restarts scalar from element 0
/// with *prev reset, reproducing the exact scalar diagnostic). `*prev`
/// carries the last quantization integer into the caller's tail loop.
inline usize quantizeDiffPrefix(f64 recip, std::span<const f32> values,
                                i32* residuals, i32* prev) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    return detail::quantizeDiffPrefixF32Avx2(recip, values.data(),
                                             values.size(), residuals, prev);
  }
#endif
  (void)recip;
  (void)values;
  (void)residuals;
  (void)prev;
  return 0;
}

inline usize quantizeDiffPrefix(f64 recip, std::span<const f64> values,
                                i32* residuals, i32* prev) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    return detail::quantizeDiffPrefixF64Avx2(recip, values.data(),
                                             values.size(), residuals, prev);
  }
#endif
  (void)recip;
  (void)values;
  (void)residuals;
  (void)prev;
  return 0;
}

/// Max of absU32 over `v`; false = caller runs its scalar loop.
inline bool maxAbsU32(std::span<const i32> v, u32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    *out = detail::maxAbsU32Avx2(v.data(), v.size());
    return true;
  }
#elif defined(CUSZP2_SIMD_NEON)
  if (nativeActive()) {
    *out = detail::maxAbsU32Neon(v.data(), v.size());
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// Max of absU32 over v[1..) for a block whose size is a multiple of 8
/// (the plan scan's "tail" max — the head element is the outlier
/// candidate); false = caller runs its scalar loop.
inline bool maxAbsTailU32(std::span<const i32> v, u32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive() && v.size() % 8 == 0 && !v.empty()) {
    *out = detail::maxAbsTailU32Avx2(v.data(), v.size());
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// out[i] = absU32(v[i]); false = caller runs its scalar loop.
inline bool absI32(std::span<const i32> v, u32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::absI32Avx2(v.data(), v.size(), out);
    return true;
  }
#elif defined(CUSZP2_SIMD_NEON)
  if (nativeActive()) {
    detail::absI32Neon(v.data(), v.size(), out);
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// out[i] = v[i] - v[i-1] (v[-1] = 0); false = caller's scalar loop.
inline bool diffI32(std::span<const i32> v, i32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::diffI32Avx2(v.data(), v.size(), out);
    return true;
  }
#endif
  (void)v;
  (void)out;
  return false;
}

/// Sign-bit bitmap of `diffs` (size a multiple of 8).
/// Fused |residuals| + packed sign bitmap in one pass (size a multiple
/// of 8); false = caller runs packSigns + its scalar abs loop.
inline bool absAndPackSigns(std::span<const i32> residuals, u32* absOut,
                            std::byte* signs) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::absAndPackSignsAvx2(residuals.data(), residuals.size(), absOut,
                                signs);
    return true;
  }
#endif
  (void)residuals;
  (void)absOut;
  (void)signs;
  return false;
}

inline bool packSigns(std::span<const i32> diffs, std::byte* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::packSignsAvx2(diffs.data(), diffs.size(), out);
    return true;
  }
#endif
  (void)diffs;
  (void)out;
  return false;
}

/// Bit-plane pack of `vals` (size a multiple of 8) into fl planes.
inline bool packPlanes(std::span<const u32> vals, u32 fl, std::byte* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::packPlanesAvx2(vals.data(), vals.size(), fl, out);
    return true;
  }
#endif
  (void)vals;
  (void)fl;
  (void)out;
  return false;
}

/// Bit-plane unpack into `vals` (size a multiple of 8).
inline bool unpackPlanes(const std::byte* in, u32 fl, std::span<u32> vals) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::unpackPlanesAvx2(in, vals.size(), fl, vals.data());
    return true;
  }
#endif
  (void)in;
  (void)fl;
  (void)vals;
  return false;
}

/// out[i] = signBit(signs, i) ? -absVals[i] : absVals[i] (size multiple
/// of 8).
inline bool applySigns(const std::byte* signs, std::span<const u32> absVals,
                       i32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::applySignsAvx2(signs, absVals.data(), absVals.size(), out);
    return true;
  }
#endif
  (void)signs;
  (void)absVals;
  (void)out;
  return false;
}

/// Inclusive prefix sum (first-order prediction inverse); in-place allowed.
inline bool prefixSumI32(std::span<const i32> in, i32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::prefixSumI32Avx2(in.data(), in.size(), out);
    return true;
  }
#endif
  (void)in;
  (void)out;
  return false;
}

/// out[i] = (f32)(q[i] * twoEb), arithmetic in f64 like
/// Quantizer::dequantize.
inline bool dequantize(std::span<const i32> q, f64 twoEb, f32* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::dequantizeF32Avx2(q.data(), q.size(), twoEb, out);
    return true;
  }
#endif
  (void)q;
  (void)twoEb;
  (void)out;
  return false;
}

inline bool dequantize(std::span<const i32> q, f64 twoEb, f64* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::dequantizeF64Avx2(q.data(), q.size(), twoEb, out);
    return true;
  }
#elif defined(CUSZP2_SIMD_NEON)
  if (nativeActive()) {
    detail::dequantizeF64Neon(q.data(), q.size(), twoEb, out);
    return true;
  }
#endif
  (void)q;
  (void)twoEb;
  (void)out;
  return false;
}

/// sum(words[i] & mask) — the decoupled-lookback window combine. Exact in
/// u64 in any order; false = caller's scalar loop.
inline bool sumMaskedU64(std::span<const u64> words, u64 mask, u64* out) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    *out = detail::sumMaskedU64Avx2(words.data(), words.size(), mask);
    return true;
  }
#endif
  (void)words;
  (void)mask;
  (void)out;
  return false;
}

/// Folds `v` into the running extremes: *lo = min, *hi = max, with the
/// exact `std::min(lo, x)` / `std::max(hi, x)` step of the scalar
/// metrics::valueRange, so a NaN element never replaces an extreme. Lane
/// order only decides which of two equal values is kept — the sign of a
/// zero extreme, nothing else. False = caller's scalar loop.
inline bool minMax(std::span<const f32> v, f32* lo, f32* hi) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::minMaxF32Avx2(v.data(), v.size(), lo, hi);
    return true;
  }
#endif
  (void)v;
  (void)lo;
  (void)hi;
  return false;
}

inline bool minMax(std::span<const f64> v, f64* lo, f64* hi) {
#if defined(CUSZP2_SIMD_X86)
  if (nativeActive()) {
    detail::minMaxF64Avx2(v.data(), v.size(), lo, hi);
    return true;
  }
#endif
  (void)v;
  (void)lo;
  (void)hi;
  return false;
}

}  // namespace cuszp2::simd
