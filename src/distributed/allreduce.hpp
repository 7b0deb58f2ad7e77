// Simulated multi-GPU ring allreduce with inline gradient compression —
// the paper's motivating application (Fig. 1: layer-wise distributed
// training exchanging gradients between GPUs).
//
// The algorithm is a real ring allreduce: reduce-scatter followed by
// all-gather over P simulated devices, each holding its own gradient
// vector. Communication volume and link time follow the standard model
// (2 * (P-1)/P * bytes per device over the slowest link); with inline
// compression every transfer ships the compressed stream instead, paying
// the compressor's (modelled) time per hop. Reduction happens on
// reconstructed values, so the result carries quantization error bounded
// by (P-1) * eb per reduce-scatter chain — reported and tested.
//
// This substrate exists to turn the paper's Sec. I-A/II argument into a
// measurable experiment: hybrid compressors lose the exchange time they
// save, pure-GPU compression wins end-to-end.
#pragma once

#include <functional>
#include <vector>

#include "common/types.hpp"
#include "gpusim/device_spec.hpp"

namespace cuszp2::distributed {

/// Inter-device link model.
struct LinkSpec {
  /// Per-direction bandwidth between neighbouring devices, GB/s.
  /// NVLink-class ~ 50; PCIe-class ~ 12; cross-node IB ~ 12.5.
  f64 bandwidthGBps = 12.0;

  /// Per-message latency, microseconds.
  f64 latencyUs = 5.0;

  f64 transferSeconds(u64 bytes) const {
    return latencyUs * 1e-6 +
           static_cast<f64>(bytes) / (bandwidthGBps * 1e9);
  }
};

/// Pluggable compression for the exchange step. `compress` returns the
/// wire bytes and fills `reconstructed` with what the receiver will see;
/// `seconds` are the modelled compressor+decompressor cost of one hop.
struct ExchangeCodec {
  std::string name;

  /// nullopt-like: empty function => uncompressed exchange.
  std::function<void(std::span<const f32> values,
                     std::vector<f32>& reconstructed, u64& wireBytes,
                     f64& codecSeconds)>
      transform;
};

struct AllreduceResult {
  /// The reduced vector every device ends with.
  std::vector<f32> reduced;

  /// Total modelled wall time of the collective (critical path).
  f64 seconds = 0.0;

  /// Total bytes that crossed links (all hops, all devices).
  u64 wireBytes = 0;

  /// Effective algorithmic bandwidth: 2*(P-1)/P*N*4 bytes / seconds.
  f64 algbwGBps = 0.0;

  /// Worst-case absolute deviation bound from lossy exchanges, given the
  /// codec's per-hop bound (0 for lossless).
  f64 errorBound = 0.0;
};

class RingAllreduce {
 public:
  /// `devices` >= 2; all gradient vectors must be the same length,
  /// divisible into P chunks.
  RingAllreduce(u32 devices, LinkSpec link);

  /// Runs the collective over per-device gradients. `perHopErrorBound` is
  /// the codec's absolute bound per compress/decompress cycle (0 if
  /// lossless); used only for the reported worst-case bound.
  AllreduceResult run(const std::vector<std::vector<f32>>& gradients,
                      const ExchangeCodec& codec,
                      f64 perHopErrorBound = 0.0) const;

  /// Reference: exact elementwise sum (for tests).
  static std::vector<f32> exactSum(
      const std::vector<std::vector<f32>>& gradients);

 private:
  u32 devices_;
  LinkSpec link_;
};

/// Uncompressed exchange codec.
ExchangeCodec rawCodec();

/// cuSZp2 exchange codec holding a long-lived core::CompressorStream: the
/// arena scratch stays warm across hops, and each send is one compress
/// and one decompress launch. Copies of the codec share the stream, so
/// one hop's scratch serves the whole collective.
ExchangeCodec cuszp2StreamCodec(f64 absErrorBound,
                                gpusim::DeviceSpec device = gpusim::a100_40gb());

}  // namespace cuszp2::distributed
