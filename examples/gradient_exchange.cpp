// Scenario: compressing gradients in distributed LLM/DNN training — the
// motivating example of the paper's Fig. 1. A layer's gradient tensor
// lives on the GPU; before it crosses to the next device it is compressed
// in place. The example contrasts a pure-GPU compressor (cuSZp2) with a
// CPU-GPU hybrid (cuSZ-like) on the same gradients, showing why the
// hybrid's kernel throughput is meaningless for training step time.
#include <cstdio>
#include <vector>

#include "baselines/hybrid.hpp"
#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

namespace {

/// Synthetic layer gradients: zero-mean, heavy concentration near zero
/// with rare large entries — the standard shape of DNN gradients.
std::vector<f32> makeGradients(usize n, u64 seed) {
  Rng rng(seed);
  std::vector<f32> g(n);
  for (auto& v : g) {
    const f64 u = rng.uniform();
    if (u < 0.97) {
      v = static_cast<f32>(rng.normal(0.0, 1e-4));
    } else {
      v = static_cast<f32>(rng.normal(0.0, 1e-2));
    }
  }
  return g;
}

}  // namespace

int main() {
  std::printf("Gradient-exchange scenario (paper Fig. 1): 3 layers of a\n"
              "model-parallel network exchange gradients every step.\n\n");

  const usize gradElems = 1 << 20;  // 4 MB per layer
  const f64 rel = 1e-3;

  io::Table table({"layer", "compressor", "ratio", "comp GB/s (e2e)",
                   "exchange bytes", "step share"});

  f64 pureTotalSeconds = 0.0;
  f64 hybridTotalSeconds = 0.0;
  core::CompressorStream compressor;
  for (u32 layer = 0; layer < 3; ++layer) {
    const auto grads = makeGradients(gradElems, 100 + layer);
    const u64 rawBytes = grads.size() * sizeof(f32);

    // Pure-GPU path: cuSZp2-O.
    core::Config cfg;
    cfg.mode = EncodingMode::Outlier;
    cfg.absErrorBound =
        core::Quantizer::absFromRel(rel, metrics::valueRange<f32>(grads));
    compressor.reconfigure(cfg);
    const auto c = compressor.compress<f32>(grads);
    pureTotalSeconds += c.profile.endToEndSeconds;
    table.addRow({"layer " + std::to_string(layer), "cuSZp2-O",
                  io::Table::num(c.ratio, 2),
                  io::Table::gbps(c.profile.endToEndGBps),
                  std::to_string(c.stream.size()),
                  io::Table::num(c.profile.endToEndSeconds * 1e6, 1) +
                      " us"});

    // Hybrid path: cuSZ-like (kernel fast, end-to-end slow).
    baselines::HybridBaseline hybrid(baselines::HybridBaseline::Kind::CuszLike);
    const auto h = hybrid.run(grads, rel);
    const f64 hybridSeconds =
        static_cast<f64>(rawBytes) / (h.compressGBps * 1e9);
    hybridTotalSeconds += hybridSeconds;
    table.addRow({"layer " + std::to_string(layer), "cuSZ (hybrid)",
                  io::Table::num(h.ratio, 2),
                  io::Table::gbps(h.compressGBps),
                  std::to_string(static_cast<u64>(rawBytes / h.ratio)),
                  io::Table::num(hybridSeconds * 1e6, 1) + " us"});
  }
  table.print();

  std::printf("\nPer-step compression cost across all 3 layers:\n"
              "  pure GPU (cuSZp2-O): %.1f us\n"
              "  CPU-GPU hybrid:      %.1f us  (%.0fx slower)\n",
              pureTotalSeconds * 1e6, hybridTotalSeconds * 1e6,
              hybridTotalSeconds / pureTotalSeconds);
  std::printf("\nAny CPU computation or PCIe hop in the compression path\n"
              "multiplies training time — the case for pure-GPU designs\n"
              "(paper Secs. I-A and II).\n");
  return 0;
}
