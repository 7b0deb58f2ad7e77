// Scenario: reducing data-stream intensity at a light source (paper
// Sec. I-A). The LCLS free-electron laser acquires X-ray detector frames
// at ~250 GB/s — beyond any CPU compressor. This example streams a
// sequence of detector-like frames through cuSZp2 and checks whether the
// modelled device throughput keeps up with the acquisition rate, then
// demonstrates random access into an archived compressed frame (paper
// Sec. VI-B: analysts fetch regions of interest without full decode).
#include <cstdio>
#include <vector>

#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

namespace {

/// Detector-like frame: mostly dark (readout noise) with bright Bragg
/// peaks — sparse, like the paper's JetIn regime.
std::vector<f32> makeFrame(usize n, u64 seed) {
  Rng rng(seed);
  std::vector<f32> frame(n, 0.0f);
  for (auto& v : frame) {
    const f64 noise = rng.normal(0.0, 0.8);
    v = noise > 2.0 ? static_cast<f32>(noise) : 0.0f;  // thresholded dark
  }
  const usize peaks = n / 5000;
  for (usize p = 0; p < peaks; ++p) {
    const usize center = rng.uniformInt(n);
    const f64 intensity = rng.uniform(500.0, 5000.0);
    for (usize off = 0; off < 16 && center + off < n; ++off) {
      frame[center + off] +=
          static_cast<f32>(intensity * std::exp(-0.2 * (f64)(off * off)));
    }
  }
  return frame;
}

}  // namespace

int main() {
  std::printf("LCLS-style stream-reduction scenario (paper Sec. I-A):\n"
              "X-ray frames arrive at ~250 GB/s; compression must keep\n"
              "up on the GPU or frames are dropped.\n\n");

  const usize frameElems = 1 << 20;
  const f64 acquisitionGBps = 250.0;
  const f64 rel = 1e-3;

  core::Config cfg;
  cfg.mode = EncodingMode::Outlier;
  core::CompressorStream compressor;

  io::Table table({"frame", "ratio", "comp GB/s", "keeps up?",
                   "max err vs bound"});
  f64 sumGBps = 0.0;
  const u32 frames = 5;
  for (u32 frame = 0; frame < frames; ++frame) {
    const auto data = makeFrame(frameElems, 7000 + frame);
    cfg.absErrorBound =
        core::Quantizer::absFromRel(rel, metrics::valueRange<f32>(data));
    compressor.reconfigure(cfg);
    const auto c = compressor.compress<f32>(data);
    const auto d = compressor.decompress<f32>(c.stream);
    const auto stats = metrics::computeErrorStats<f32>(data, d.data);
    sumGBps += c.profile.endToEndGBps;
    table.addRow({std::to_string(frame), io::Table::num(c.ratio, 1),
                  io::Table::gbps(c.profile.endToEndGBps),
                  c.profile.endToEndGBps >= acquisitionGBps ? "yes" : "NO",
                  io::Table::num(stats.maxAbsError, 5) + " <= " +
                      io::Table::num(cfg.absErrorBound, 5)});
  }
  table.print();
  std::printf("\naverage modelled compression throughput: %.1f GB/s "
              "(acquisition: %.0f GB/s)\n",
              sumGBps / frames, acquisitionGBps);

  // Region-of-interest fetch from the archived compressed frame.
  {
    const auto data = makeFrame(frameElems, 7000);
    cfg.absErrorBound =
        core::Quantizer::absFromRel(rel, metrics::valueRange<f32>(data));
    compressor.reconfigure(cfg);
    const auto c = compressor.compress<f32>(data);
    const auto header = core::StreamHeader::parse(c.stream);
    const u64 roiBlock = header.numBlocks() / 3;
    const auto roi = compressor.decompressBlocks<f32>(c.stream, roiBlock, 8);
    std::printf("\nROI fetch: blocks [%llu, %llu) -> %zu samples at "
                "%.1f GB/s effective (offset-array scan + 8 payload\n"
                "decodes only; paper Fig. 20 reports ~1 TB/s).\n",
                static_cast<unsigned long long>(roiBlock),
                static_cast<unsigned long long>(roiBlock + 8),
                roi.values.size(), roi.profile.endToEndGBps);
  }
  return 0;
}
