// E9 — Paper Fig. 19: cuSZp2 throughput on the double-precision datasets
// (NWChem, S3D) at REL 1e-2/1e-3/1e-4.
//
// Expected shape: roughly 2x the single-precision GB/s (same integer
// pipeline, double the input bytes). Paper averages: CUSZP2-P
// 612.83/780.33, CUSZP2-O 628.54/809.71 GB/s.
#include <cstdio>

#include "bench_util.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/table.hpp"
#include "metrics/error_stats.hpp"

using namespace cuszp2;

namespace {

struct Result {
  f64 comp;
  f64 decomp;
  f64 ratio;
};

Result runMode(core::CompressorStream& comp, std::span<const f64> data,
               f64 rel, EncodingMode mode) {
  core::Config cfg;
  cfg.mode = mode;
  cfg.absErrorBound =
      core::Quantizer::absFromRel(rel, metrics::valueRange<f64>(data));
  comp.reconfigure(cfg);
  const auto c = comp.compress<f64>(data);
  const auto d = comp.decompress<f64>(c.stream);
  return {c.profile.endToEndGBps, d.profile.endToEndGBps, c.ratio};
}

}  // namespace

int main() {
  bench::banner("E9 / Figure 19",
                "Double-precision throughput (NWChem + S3D)");

  const usize elems = bench::fieldElems();
  const u32 maxFields = bench::maxFieldsPerDataset();

  f64 sumPc = 0.0;
  f64 sumPd = 0.0;
  f64 sumOc = 0.0;
  f64 sumOd = 0.0;
  u32 n = 0;

  io::Table table({"dataset", "REL", "P comp", "P decomp", "O comp",
                   "O decomp"});
  core::CompressorStream stream;
  for (const auto& info : datagen::doublePrecisionDatasets()) {
    for (const f64 rel : bench::relBounds()) {
      f64 pc = 0.0;
      f64 pd = 0.0;
      f64 oc = 0.0;
      f64 od = 0.0;
      const u32 fields = std::min(info.numFields, maxFields);
      for (u32 f = 0; f < fields; ++f) {
        const auto data = datagen::generateF64(info.name, f, elems);
        const auto p = runMode(stream, data, rel, EncodingMode::Plain);
        const auto o = runMode(stream, data, rel, EncodingMode::Outlier);
        pc += p.comp;
        pd += p.decomp;
        oc += o.comp;
        od += o.decomp;
      }
      pc /= fields;
      pd /= fields;
      oc /= fields;
      od /= fields;
      sumPc += pc;
      sumPd += pd;
      sumOc += oc;
      sumOd += od;
      ++n;
      table.addRow({info.name, bench::formatRel(rel), io::Table::gbps(pc),
                    io::Table::gbps(pd), io::Table::gbps(oc),
                    io::Table::gbps(od)});
    }
  }
  table.addRow({"AVERAGE", "-", io::Table::gbps(sumPc / n),
                io::Table::gbps(sumPd / n), io::Table::gbps(sumOc / n),
                io::Table::gbps(sumOd / n)});
  table.print();
  std::printf(
      "\nPaper reference: CUSZP2-P 612.83/780.33 GB/s, CUSZP2-O\n"
      "628.54/809.71 GB/s — about 2x the single-precision rates because\n"
      "both precisions funnel into the same integer pipeline (Sec. VI-A).\n");
  return 0;
}
