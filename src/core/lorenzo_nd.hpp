// Multi-dimensional cuSZp2 variant (paper Sec. VI-D, Table VI).
//
// Replaces the 1-D first-order difference with 2-D / 3-D Lorenzo prediction
// inside each block; block shapes follow the paper's fair comparison
// (1-D: 64, 2-D: 8x8, 3-D: 4x4x4 — 64 elements each). Prediction never
// crosses block boundaries (out-of-block neighbours are treated as 0), so
// blocks remain independently decodable like the 1-D pipeline.
//
// This variant exists to reproduce the paper's rationale for 1-D
// processing: the ratio gain of 2-D/3-D is real but modest for non-sparse
// data at conservative error bounds, while the irregular access pattern
// would cost over half the throughput.
#pragma once

#include <span>
#include <vector>

#include "common/types.hpp"
#include "core/stream.hpp"

namespace cuszp2::core {

struct Dims3 {
  u64 nx = 1;
  u64 ny = 1;
  u64 nz = 1;

  u64 count() const { return nx * ny * nz; }
};

enum class LorenzoDims : u8 { D1 = 1, D2 = 2, D3 = 3 };

constexpr const char* toString(LorenzoDims d) {
  switch (d) {
    case LorenzoDims::D1: return "1D";
    case LorenzoDims::D2: return "2D";
    case LorenzoDims::D3: return "3D";
  }
  return "?";
}

struct NdConfig {
  f64 relErrorBound = 1e-3;
  f64 absErrorBound = 0.0;  // used instead of REL when > 0
  LorenzoDims dims = LorenzoDims::D3;
  EncodingMode mode = EncodingMode::Outlier;
};

struct NdCompressed {
  std::vector<std::byte> stream;
  u64 originalBytes = 0;
  f64 ratio = 0.0;

  /// Modelled kernel profile. The 2-D/3-D variants gather their blocks
  /// through strided row accesses and run extra prediction arithmetic,
  /// which is exactly the >50% throughput penalty the paper cites as the
  /// rationale for 1-D processing (Sec. VI-D).
  KernelProfile profile;
};

class NdCompressor {
 public:
  explicit NdCompressor(NdConfig config,
                        gpusim::DeviceSpec device = gpusim::a100_40gb());

  const NdConfig& config() const { return config_; }

  /// Block shape for the configured dimensionality (paper Table VI).
  void blockShape(u64& bx, u64& by, u64& bz) const;

  template <FloatingPoint T>
  NdCompressed compress(std::span<const T> data, Dims3 dims) const;

  /// Round-trips a stream produced by compress(); returns the field in the
  /// original layout.
  template <FloatingPoint T>
  std::vector<T> decompress(ConstByteSpan stream) const;

 private:
  NdConfig config_;
  gpusim::TimingModel timing_;
  mutable gpusim::Launcher launcher_;
};

}  // namespace cuszp2::core
