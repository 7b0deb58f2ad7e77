// Supplementary — throughput vs field size: shows where the modelled
// curves leave the launch/sync-dominated regime and approach their
// asymptotes. Explains why MB-scale reproduction fields understate the
// paper's GB-scale numbers (EXPERIMENTS.md "known deviations").
#include <cstdio>

#include "bench_util.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

int main() {
  bench::banner("Supplementary",
                "Throughput vs field size (launch/sync amortization)");

  io::Table table({"elements", "MB", "comp GB/s", "decomp GB/s",
                   "random access GB/s"});
  core::CompressorStream comp;
  for (const usize elems :
       {usize{1} << 16, usize{1} << 18, usize{1} << 20, usize{1} << 22,
        usize{1} << 24}) {
    const auto data = datagen::generateF32("miranda", 0, elems);
    core::Config cfg;
    cfg.absErrorBound =
        core::Quantizer::absFromRel(1e-3, metrics::valueRange<f32>(data));
    comp.reconfigure(cfg);
    const auto c = comp.compress<f32>(data);
    const auto d = comp.decompress<f32>(c.stream);
    const auto header = core::StreamHeader::parse(c.stream);
    const auto ra =
        comp.decompressBlocks<f32>(c.stream, header.numBlocks() / 2, 1);
    table.addRow({std::to_string(elems),
                  io::Table::num(elems * 4.0 / 1e6, 1),
                  io::Table::num(c.profile.endToEndGBps, 1),
                  io::Table::num(d.profile.endToEndGBps, 1),
                  io::Table::num(ra.profile.endToEndGBps, 1)});
  }
  table.print();
  std::printf(
      "\nReading guide: the 6 us launch overhead and the per-tile sync\n"
      "chain dominate below ~1 MB and amortize above ~16 MB; the paper's\n"
      "multi-GB fields sit on the asymptote, which is why its absolute\n"
      "GB/s run above this harness's defaults.\n");
  return 0;
}
