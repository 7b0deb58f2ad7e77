#include "baselines/cuszp2_adapter.hpp"

#include "core/quantizer.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::baselines {

Cuszp2Baseline::Cuszp2Baseline(std::string name, core::Config config,
                               gpusim::DeviceSpec device)
    : name_(std::move(name)), config_(config),
      stream_(config, std::move(device)) {}

RunResult Cuszp2Baseline::run(std::span<const f32> data, f64 relErrorBound) {
  core::Config cfg = config_;
  cfg.relErrorBound = relErrorBound;
  // Resolve REL -> ABS outside the timed path, exactly like the paper's
  // artifact (the range is a dataset property computed once).
  cfg.absErrorBound = core::Quantizer::absFromRel(
      relErrorBound, metrics::valueRange(data));
  stream_.reconfigure(cfg);

  const auto compressed = stream_.compress(data);
  auto decompressed = stream_.decompress<f32>(compressed.stream);

  RunResult r;
  r.compressor = name_;
  r.ratio = compressed.ratio;
  r.compressGBps = compressed.profile.endToEndGBps;
  r.decompressGBps = decompressed.profile.endToEndGBps;
  // cuSZp2 is single-kernel and pure GPU: kernel == end-to-end.
  r.compressKernelGBps = r.compressGBps;
  r.decompressKernelGBps = r.decompressGBps;
  r.memThroughputGBps = compressed.profile.timing.memThroughputGBps;
  r.error = metrics::computeErrorStats<f32>(data, decompressed.data);
  r.reconstructed = std::move(decompressed.data);
  return r;
}

std::unique_ptr<Cuszp2Baseline> Cuszp2Baseline::cuszp2Plain(
    gpusim::DeviceSpec device) {
  core::Config cfg;
  cfg.mode = EncodingMode::Plain;
  return std::make_unique<Cuszp2Baseline>("CUSZP2-P", cfg, std::move(device));
}

std::unique_ptr<Cuszp2Baseline> Cuszp2Baseline::cuszp2Outlier(
    gpusim::DeviceSpec device) {
  core::Config cfg;
  cfg.mode = EncodingMode::Outlier;
  return std::make_unique<Cuszp2Baseline>("CUSZP2-O", cfg, std::move(device));
}

std::unique_ptr<Cuszp2Baseline> Cuszp2Baseline::cuszpV1(
    gpusim::DeviceSpec device) {
  core::Config cfg;
  cfg.mode = EncodingMode::Plain;
  cfg.vectorizedAccess = false;
  cfg.syncAlgorithm = scan::Algorithm::ChainedScan;
  return std::make_unique<Cuszp2Baseline>("cuSZp", cfg, std::move(device));
}

}  // namespace cuszp2::baselines
