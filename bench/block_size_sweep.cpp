// Supplementary — block-size selection: the paper fixes the block size at
// 32 because it is "the overall best choice in balancing high throughput
// and high compression ratio" (Sec. V-A). This harness sweeps block sizes
// and prints the ratio/throughput trade-off that motivates 32.
#include <cstdio>

#include "bench_util.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

int main() {
  bench::banner("Supplementary / Sec. V-A",
                "Block-size sweep: ratio vs throughput");

  const usize elems = bench::fieldElems();

  io::Table table({"block size", "avg ratio", "avg comp GB/s",
                   "avg decomp GB/s", "offset overhead"});
  core::CompressorStream compressor;
  for (const u32 bs : {8u, 16u, 32u, 64u, 128u, 256u}) {
    f64 ratio = 0.0;
    f64 comp = 0.0;
    f64 decomp = 0.0;
    u32 n = 0;
    for (const auto& info : datagen::singlePrecisionDatasets()) {
      const auto data = datagen::generateF32(info.name, 0, elems);
      core::Config cfg;
      cfg.blockSize = bs;
      cfg.absErrorBound =
          core::Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
      compressor.reconfigure(cfg);
      const auto c = compressor.compress<f32>(data);
      const auto d = compressor.decompress<f32>(c.stream);
      ratio += c.ratio;
      comp += c.profile.endToEndGBps;
      decomp += d.profile.endToEndGBps;
      ++n;
    }
    char overhead[32];
    std::snprintf(overhead, sizeof(overhead), "1 byte / %u elems", bs);
    table.addRow({std::to_string(bs), io::Table::num(ratio / n, 2),
                  io::Table::num(comp / n, 1), io::Table::num(decomp / n, 1),
                  overhead});
  }
  table.print();
  std::printf(
      "\nReading guide: small blocks adapt the fixed length tightly but\n"
      "pay one offset byte per block and more per-block bookkeeping; large\n"
      "blocks amortize overhead but a single rough value inflates a whole\n"
      "block's fixed length. 32 is the paper's balance point.\n");
  return 0;
}
