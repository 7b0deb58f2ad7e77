// Supplementary / Fig. 1 — gradient allreduce with inline compression:
// the paper's motivating distributed-training scenario turned into a
// measurable experiment. A ring allreduce over P simulated GPUs exchanges
// layer gradients; the exchange runs uncompressed, with cuSZp2-O, and
// with a cuSZ-like hybrid whose CPU stage + PCIe hops are charged.
//
// Expected shape: on bandwidth-limited links, cuSZp2 compression turns
// its ratio into near-proportional speedup; the hybrid's host stages cost
// more than the transfer time they save.
#include <cstdio>

#include "baselines/hybrid.hpp"
#include "bench_util.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "distributed/allreduce.hpp"
#include "io/table.hpp"

using namespace cuszp2;
using distributed::ExchangeCodec;
using distributed::LinkSpec;
using distributed::RingAllreduce;

namespace {

std::vector<std::vector<f32>> makeGradients(u32 devices, usize n) {
  std::vector<std::vector<f32>> grads(devices);
  for (u32 d = 0; d < devices; ++d) {
    Rng rng(900 + d);
    grads[d].resize(n);
    for (auto& v : grads[d]) {
      v = static_cast<f32>(rng.uniform() < 0.97 ? rng.normal(0.0, 1e-4)
                                                : rng.normal(0.0, 1e-2));
    }
  }
  return grads;
}

ExchangeCodec hybridCodec(f64 relEb) {
  ExchangeCodec codec;
  codec.name = "cuSZ (hybrid)";
  codec.transform = [relEb](std::span<const f32> values,
                            std::vector<f32>& reconstructed, u64& wireBytes,
                            f64& codecSeconds) {
    baselines::HybridBaseline hybrid(baselines::HybridBaseline::Kind::CuszLike);
    const auto r = hybrid.run(values, relEb);
    const u64 rawBytes = values.size() * sizeof(f32);
    wireBytes = static_cast<u64>(static_cast<f64>(rawBytes) / r.ratio);
    codecSeconds = static_cast<f64>(rawBytes) / (r.compressGBps * 1e9) +
                   static_cast<f64>(rawBytes) / (r.decompressGBps * 1e9);
    reconstructed = r.reconstructed;
  };
  return codec;
}

}  // namespace

int main() {
  bench::banner("Supplementary / Figure 1",
                "Gradient ring-allreduce with inline compression");

  const u32 devices = 8;
  // One full layer per device (chunks must be large enough that per-hop
  // kernel launches amortize, as in real fused collectives).
  const usize n = bench::fieldElems() / devices * devices;
  const auto grads = makeGradients(devices, n);
  const f64 absEb = 1e-5;  // tight enough for training stability

  io::Table table(
      {"link", "codec", "wire MB", "collective time", "algbw", "speedup"});
  struct Link {
    const char* name;
    f64 gbps;
  };
  for (const Link link : {Link{"PCIe-class 12 GB/s", 12.0},
                          Link{"NVLink-class 50 GB/s", 50.0}}) {
    LinkSpec spec;
    spec.bandwidthGBps = link.gbps;
    const RingAllreduce ring(devices, spec);

    // The stream codec holds one warm CompressorStream across all hops:
    // each send is one compress and one decompress launch.
    const auto raw = ring.run(grads, distributed::rawCodec());
    const auto ours = ring.run(grads, distributed::cuszp2StreamCodec(absEb),
                               absEb);
    const auto hybrid = ring.run(grads, hybridCodec(1e-4), absEb);

    auto addRow = [&](const char* codecName,
                      const distributed::AllreduceResult& r) {
      char timeBuf[32];
      std::snprintf(timeBuf, sizeof(timeBuf), "%.1f us", r.seconds * 1e6);
      table.addRow({link.name, codecName,
                    io::Table::num(static_cast<f64>(r.wireBytes) / 1e6, 2),
                    timeBuf, io::Table::gbps(r.algbwGBps),
                    io::Table::num(raw.seconds / r.seconds, 2) + "x"});
    };
    addRow("uncompressed", raw);
    addRow("cuSZp2-O", ours);
    addRow("cuSZ (hybrid)", hybrid);
  }
  table.print();
  std::printf(
      "\nReading guide: the pure-GPU compressor converts its ratio into\n"
      "collective speedup on bandwidth-limited links; the hybrid's CPU\n"
      "stages and PCIe hops cost more time than its ratio saves — the\n"
      "paper's Figs. 1/2 argument, end to end.\n");
  return 0;
}
