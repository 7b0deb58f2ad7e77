// Quickstart: compress a floating-point field with cuSZp2, decompress it,
// and verify the error bound — the equivalent of the paper artifact's
// `./gsz_p vx.f32 1e-3` run.
//
// Usage:
//   quickstart                      (self-generates a HACC-like vx field)
//   quickstart <file.f32> <relEb>   (compress a raw SDRBench-style file)
#include <cstdio>
#include <string>

#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/raw.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

int main(int argc, char** argv) {
  f64 rel = 1e-3;
  std::vector<f32> data;
  if (argc >= 2) {
    data = io::readRaw<f32>(argv[1]);
    if (argc >= 3) rel = std::stod(argv[2]);
    std::printf("loaded %zu floats from %s\n", data.size(), argv[1]);
  } else {
    data = datagen::generateF32("hacc", 3, 1 << 20);  // vx-like field
    std::printf("no input file given; generated a HACC-like vx field "
                "(%zu floats)\n",
                data.size());
  }

  // Configure: outlier mode (cuSZp2-O), REL error bound resolved against
  // the field's value range, exactly like the paper's artifact.
  core::Config cfg;
  cfg.mode = EncodingMode::Outlier;
  cfg.absErrorBound =
      core::Quantizer::absFromRel(rel, metrics::valueRange<f32>(data));

  core::CompressorStream compressor(cfg);
  const auto compressed = compressor.compress<f32>(data);
  const auto decompressed = compressor.decompress<f32>(compressed.stream);

  const auto stats =
      metrics::computeErrorStats<f32>(data, decompressed.data);

  std::printf("\nGSZ finished!\n");
  std::printf("GSZ compression end-to-end speed: %f GB/s (modelled, %s)\n",
              compressed.profile.endToEndGBps,
              compressor.device().name.c_str());
  std::printf("GSZ decompression end-to-end speed: %f GB/s (modelled)\n",
              decompressed.profile.endToEndGBps);
  std::printf("GSZ compression ratio: %f\n", compressed.ratio);
  std::printf("\n%s\n",
              stats.withinBoundFp(cfg.absErrorBound, Precision::F32)
                  ? "Pass error check!"
                  : "ERROR CHECK FAILED");
  return stats.withinBoundFp(cfg.absErrorBound, Precision::F32) ? 0 : 1;
}
