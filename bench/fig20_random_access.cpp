// E11 — Paper Fig. 20: throughput of random-accessing one arbitrary data
// block from the compressed stream, per dataset, at REL 1e-4.
//
// Expected shape: TB-level throughput relative to the original data size
// (paper: 1010.07 GB/s average, 793 ~ 1305 GB/s), because only the 1-byte-
// per-block offset array is scanned plus a single payload decode.
#include <cstdio>

#include "bench_util.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

int main() {
  bench::banner("E11 / Figure 20",
                "Random access of one block, REL 1E-4");

  // Random access amortizes per-launch overhead over the offset-array
  // scan only; use a larger field so the modelled numbers approach the
  // paper's asymptotic TB-level regime.
  const usize elems = bench::fieldElems() * 4;
  f64 sum = 0.0;
  u32 n = 0;

  io::Table table({"dataset", "random-access throughput",
                   "full-decode throughput", "speedup"});
  core::CompressorStream comp;
  for (const auto& info : datagen::singlePrecisionDatasets()) {
    const auto data = datagen::generateF32(info.name, 0, elems);
    core::Config cfg;
    cfg.absErrorBound =
        core::Quantizer::absFromRel(1e-4, metrics::valueRange<f32>(data));
    comp.reconfigure(cfg);
    const auto c = comp.compress<f32>(data);
    const auto header = core::StreamHeader::parse(c.stream);

    // One arbitrary block (deterministically mid-stream).
    const u64 blk = header.numBlocks() / 2;
    const auto range = comp.decompressBlocks<f32>(c.stream, blk, 1);
    const auto full = comp.decompress<f32>(c.stream);

    sum += range.profile.endToEndGBps;
    ++n;
    table.addRow({info.name, io::Table::gbps(range.profile.endToEndGBps),
                  io::Table::gbps(full.profile.endToEndGBps),
                  io::Table::num(range.profile.endToEndGBps /
                                     full.profile.endToEndGBps,
                                 1) +
                      "x"});
  }
  table.addRow({"AVERAGE", io::Table::gbps(sum / n), "-", "-"});
  table.print();
  std::printf(
      "\nPaper reference: 1010.07 GB/s on average (793.14 on SCALE to\n"
      "1305.32 on JetIn); accessing multiple blocks and random-access\n"
      "writes behave similarly (Sec. VI-B).\n");
  return 0;
}
