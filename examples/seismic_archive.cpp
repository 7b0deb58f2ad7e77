// Scenario: archiving reverse-time-migration (RTM) pressure snapshots
// (paper Sec. I + Fig. 18). A seismic imaging run produces a sequence of
// wavefield snapshots; the archive must trade ratio against fidelity of
// the isosurfaces interpreters look at. This example sweeps error bounds
// on the three RTM snapshots, prints the rate-quality table, and compares
// the multi-dimensional variants on the same data (paper Table VI).
#include <cstdio>
#include <cmath>

#include "core/lorenzo_nd.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"

using namespace cuszp2;

int main() {
  std::printf("Seismic RTM archive scenario: choosing an error bound for\n"
              "wavefield snapshots (quality table + 1D/2D/3D choice).\n\n");

  const usize elems = 1 << 19;

  std::printf("--- Rate-quality sweep (cuSZp2-O, 1-D) ---\n");
  io::Table quality({"field", "REL", "ratio", "PSNR (dB)", "SSIM",
                     "iso fidelity"});
  core::CompressorStream comp;
  for (u32 f = 0; f < 3; ++f) {
    const auto data = datagen::generateF32("rtm", f, elems);
    for (const f64 rel : {1e-2, 1e-3, 1e-4}) {
      core::Config cfg;
      cfg.mode = EncodingMode::Outlier;
      cfg.absErrorBound =
          core::Quantizer::absFromRel(rel, metrics::valueRange<f32>(data));
      comp.reconfigure(cfg);
      const auto c = comp.compress<f32>(data);
      const auto d = comp.decompress<f32>(c.stream);
      const auto stats = metrics::computeErrorStats<f32>(data, d.data);
      const auto fid =
          metrics::isoCrossingFidelity<f32>(data, d.data, 100.0);
      char relBuf[16];
      std::snprintf(relBuf, sizeof(relBuf), "%.0e", rel);
      quality.addRow({datagen::rtmFieldNames()[f], relBuf,
                      io::Table::num(c.ratio, 1),
                      io::Table::num(stats.psnrDb, 1),
                      io::Table::num(metrics::ssim<f32>(data, d.data), 4),
                      io::Table::num(fid.matchRatio * 100.0, 1) + "%"});
    }
  }
  quality.print();

  std::printf("\n--- 1D vs 2D vs 3D on P3000 (paper Table VI) ---\n");
  const usize nx = static_cast<usize>(std::cbrt(static_cast<f64>(elems)));
  const core::Dims3 grid{nx, nx, (elems + nx * nx - 1) / (nx * nx)};
  const auto p3000 = datagen::generateF32("rtm", 2, grid.count());
  io::Table nd({"variant", "ratio @ REL 1E-3"});
  for (const auto dims :
       {core::LorenzoDims::D1, core::LorenzoDims::D2, core::LorenzoDims::D3}) {
    core::NdConfig cfg;
    cfg.dims = dims;
    cfg.relErrorBound = 1e-3;
    const core::NdCompressor comp(cfg);
    nd.addRow({core::toString(dims),
               io::Table::num(comp.compress<f32>(p3000, grid).ratio, 2)});
  }
  nd.print();
  std::printf("\nThe 2-D/3-D ratio edge is within a few percent at this\n"
              "bound — not worth >50%% throughput (paper Sec. VI-D), so\n"
              "the archive uses the 1-D pipeline.\n");
  return 0;
}
