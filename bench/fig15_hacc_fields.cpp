// E4 — Paper Fig. 15: CUSZP2-O vs CUSZP2-P on all 6 HACC fields.
//
// Expected shape: on the smooth position fields (xx/yy/zz) Outlier-FLE
// roughly doubles the ratio, so CUSZP2-O writes far fewer bytes and can
// even beat CUSZP2-P in throughput despite the extra selection work (the
// paper measures e.g. 380.36 vs 315.64 GB/s on xx). On the velocity
// fields the two modes stay close.
#include <cstdio>
#include <vector>

#include "baselines/cuszp2_adapter.hpp"
#include "bench_util.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/table.hpp"

using namespace cuszp2;

int main() {
  bench::banner("E4 / Figure 15", "CUSZP2-O vs CUSZP2-P on 6 HACC fields");

  const usize elems = bench::fieldElems();
  const f64 rel = 1e-3;

  io::Table table({"field", "P comp", "O comp", "P decomp", "O decomp",
                   "P ratio", "O ratio"});
  for (u32 f = 0; f < 6; ++f) {
    const auto data = datagen::generateF32("hacc", f, elems);
    const auto rP = baselines::Cuszp2Baseline::cuszp2Plain()->run(data, rel);
    const auto rO = baselines::Cuszp2Baseline::cuszp2Outlier()->run(data,
                                                                    rel);
    table.addRow({datagen::haccFieldNames()[f],
                  io::Table::gbps(rP.compressGBps),
                  io::Table::gbps(rO.compressGBps),
                  io::Table::gbps(rP.decompressGBps),
                  io::Table::gbps(rO.decompressGBps),
                  io::Table::num(rP.ratio, 2), io::Table::num(rO.ratio, 2)});
  }
  table.print();
  std::printf(
      "\nPaper reference: on smooth fields CUSZP2-O's ~2x ratio advantage\n"
      "reduces bytes written enough to raise throughput despite the extra\n"
      "encoding-selection computation (Sec. V-B).\n");

  // ---- All fields through one warm stream --------------------------------
  // The 6 fields of the snapshot compressed back to back on one warm
  // CompressorStream, one launch per field: the host wall time of a whole
  // snapshot once the arena is grown.
  {
    std::vector<std::vector<f32>> fields;
    for (u32 f = 0; f < 6; ++f) {
      fields.push_back(datagen::generateF32("hacc", f, elems));
    }
    core::Config cfg;
    cfg.absErrorBound = 1e-3;
    core::CompressorStream stream(cfg);

    const auto snapshot = bench::measureRepeated(5, [&] {
      for (const auto& field : fields) {
        stream.compress<f32>(std::span<const f32>(field));
      }
    });
    std::printf("\nAll 6 fields, one warm stream (host wall, median of 5): "
                "%8.2f ms\n",
                snapshot.medianSeconds * 1e3);
  }
  return 0;
}
