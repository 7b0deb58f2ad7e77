// IBaseline adapters for cuSZp2-P / cuSZp2-O (the paper's two modes) and
// for the cuSZp v1 baseline.
//
// cuSZp v1 *is* cuSZp2-P without the two throughput designs: plain
// fixed-length encoding with scalar strided memory access and a plain
// chained-scan synchronization (paper Table I and Sec. V). That is why its
// compression ratios in Table III are bit-identical to cuSZp2-P while its
// throughput is roughly half.
#pragma once

#include "baselines/baseline.hpp"
#include "core/stream.hpp"

namespace cuszp2::baselines {

/// Configurable adapter covering cuSZp2-P, cuSZp2-O, cuSZp v1, and the
/// Sec. VI-E ablation variants.
class Cuszp2Baseline final : public IBaseline {
 public:
  Cuszp2Baseline(std::string name, core::Config config,
                 gpusim::DeviceSpec device = gpusim::a100_40gb());

  std::string name() const override { return name_; }
  bool errorBounded() const override { return true; }
  RunResult run(std::span<const f32> data, f64 relErrorBound) override;

  /// Factory helpers with the paper's configurations.
  static std::unique_ptr<Cuszp2Baseline> cuszp2Plain(
      gpusim::DeviceSpec device = gpusim::a100_40gb());
  static std::unique_ptr<Cuszp2Baseline> cuszp2Outlier(
      gpusim::DeviceSpec device = gpusim::a100_40gb());
  static std::unique_ptr<Cuszp2Baseline> cuszpV1(
      gpusim::DeviceSpec device = gpusim::a100_40gb());

 private:
  std::string name_;
  core::Config config_;
  /// Held across run() calls so repeated runs reuse warm scratch.
  core::CompressorStream stream_;
};

}  // namespace cuszp2::baselines
