// Microbenchmarks of the primitives behind the paper's designs:
// quantization, block planning/encoding/decoding, bit-plane packing, and
// the two device-level scan protocols. These measure real host CPU time
// (unlike the figure harnesses, which report modelled device time) and
// exist to catch performance regressions in the library itself.
//
// The binary first prints a hot-path table — median-of-N wall times for
// repeated compress/decompress of a large field plus before/after rows
// for the fused quantize+diff and branch-free bit-plane kernels — and
// writes it to BENCH_micro.json for CI. The google-benchmark suite runs
// afterwards (normal --benchmark_* flags apply).
#include <benchmark/benchmark.h>

#include <cstdio>
#include <vector>

#include "bench_util.hpp"
#include "common/crc32.hpp"
#include "common/rng.hpp"
#include "core/block_codec.hpp"
#include "core/fle.hpp"
#include "core/segmented.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "entropy/huffman.hpp"
#include "entropy/rle.hpp"
#include "io/table.hpp"
#include "metrics/ssim.hpp"
#include "gpusim/launcher.hpp"
#include "scan/device_scan.hpp"

namespace {

using namespace cuszp2;

std::vector<f32> benchData(usize n) {
  return datagen::generateF32("miranda", 0, n);
}

void BM_Quantize(benchmark::State& state) {
  const auto data = benchData(1 << 16);
  const core::Quantizer q(1e-3);
  for (auto _ : state) {
    i32 acc = 0;
    for (f32 v : data) acc += q.quantize(v);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size() * 4));
}
BENCHMARK(BM_Quantize);

void BM_BlockPlan(benchmark::State& state) {
  const core::BlockCodec codec(32);
  Rng rng(1);
  std::vector<i32> quants(32);
  i32 v = 1000;
  for (auto& qv : quants) {
    v += static_cast<i32>(rng.uniformInt(7)) - 3;
    qv = v;
  }
  for (auto _ : state) {
    auto plan = codec.plan(quants, EncodingMode::Outlier);
    benchmark::DoNotOptimize(plan);
  }
}
BENCHMARK(BM_BlockPlan);

void BM_BlockEncodeDecode(benchmark::State& state) {
  const core::BlockCodec codec(32);
  Rng rng(2);
  std::vector<i32> quants(32);
  i32 v = 1000;
  for (auto& qv : quants) {
    v += static_cast<i32>(rng.uniformInt(31)) - 15;
    qv = v;
  }
  const auto plan = codec.plan(quants, EncodingMode::Outlier);
  std::vector<std::byte> payload(plan.payloadBytes);
  std::vector<i32> rec(32);
  for (auto _ : state) {
    codec.encode(quants, plan, payload.data());
    codec.decode(plan.header, payload.data(), rec);
    benchmark::DoNotOptimize(rec.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) * 128);
}
BENCHMARK(BM_BlockEncodeDecode);

void BM_PackPlanes(benchmark::State& state) {
  const u32 fl = static_cast<u32>(state.range(0));
  Rng rng(3);
  std::vector<u32> vals(32);
  for (auto& x : vals) {
    x = static_cast<u32>(rng.next()) & ((1u << fl) - 1);
  }
  std::vector<std::byte> buf(fl * 4);
  for (auto _ : state) {
    core::packPlanes(vals, fl, buf.data());
    benchmark::DoNotOptimize(buf.data());
  }
}
BENCHMARK(BM_PackPlanes)->Arg(1)->Arg(4)->Arg(8)->Arg(16)->Arg(31);

void BM_DeviceScan(benchmark::State& state) {
  const auto algo = state.range(0) == 0 ? scan::Algorithm::ChainedScan
                                        : scan::Algorithm::DecoupledLookback;
  Rng rng(4);
  std::vector<u64> values(1 << 16);
  for (auto& v : values) v = rng.uniformInt(200);
  gpusim::Launcher launcher;
  for (auto _ : state) {
    auto result = scan::deviceExclusiveScan(values, 128, algo, launcher);
    benchmark::DoNotOptimize(result.exclusive.data());
  }
  state.SetLabel(scan::toString(algo));
}
BENCHMARK(BM_DeviceScan)->Arg(0)->Arg(1);

void BM_EndToEndCompress(benchmark::State& state) {
  const auto data = benchData(1 << 18);
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  core::CompressorStream comp(cfg);
  for (auto _ : state) {
    auto c = comp.compress<f32>(data);
    benchmark::DoNotOptimize(c.stream.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size() * 4));
}
BENCHMARK(BM_EndToEndCompress);

void BM_Crc32(benchmark::State& state) {
  std::vector<std::byte> data(1 << 20);
  Rng rng(5);
  for (auto& b : data) b = static_cast<std::byte>(rng.uniformInt(256));
  for (auto _ : state) {
    benchmark::DoNotOptimize(crc32(data));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size()));
}
BENCHMARK(BM_Crc32);

void BM_HuffmanEncode(benchmark::State& state) {
  Rng rng(6);
  std::vector<u16> symbols(1 << 16);
  for (auto& s : symbols) {
    s = rng.uniform() < 0.9 ? 0 : static_cast<u16>(rng.uniformInt(512));
  }
  for (auto _ : state) {
    auto enc = entropy::HuffmanCodec::encode(symbols, 512);
    benchmark::DoNotOptimize(enc.payload.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(symbols.size() * 2));
}
BENCHMARK(BM_HuffmanEncode);

void BM_RleEncode(benchmark::State& state) {
  Rng rng(7);
  std::vector<u16> symbols(1 << 16);
  u16 current = 0;
  for (auto& s : symbols) {
    if (rng.uniform() < 0.05) current = static_cast<u16>(rng.uniformInt(64));
    s = current;
  }
  for (auto _ : state) {
    auto enc = entropy::RleCodec::encode(symbols);
    benchmark::DoNotOptimize(enc.runs.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(symbols.size() * 2));
}
BENCHMARK(BM_RleEncode);

void BM_SegmentedAppend(benchmark::State& state) {
  const auto data = benchData(1 << 16);
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  for (auto _ : state) {
    core::SegmentedCompressor<f32> sc(cfg, 1 << 14);
    sc.append(data);
    auto container = sc.finish();
    benchmark::DoNotOptimize(container.data());
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(data.size() * 4));
}
BENCHMARK(BM_SegmentedAppend);

void BM_Ssim(benchmark::State& state) {
  const auto a = benchData(1 << 16);
  auto b = a;
  b[100] += 0.01f;
  for (auto _ : state) {
    benchmark::DoNotOptimize(metrics::ssim<f32>(a, b));
  }
  state.SetBytesProcessed(static_cast<i64>(state.iterations()) *
                          static_cast<i64>(a.size() * 4));
}
BENCHMARK(BM_Ssim);

// ---- Hot-path table -------------------------------------------------------
// Median-of-N wall times of the end-to-end hot path and the two tightened
// inner kernels, each next to its pre-optimization counterpart. The rows
// land in BENCH_micro.json so CI can diff medians across commits.

void runHotPath() {
  // ~16 MB of f32 unless the user overrides the field size.
  const usize n = std::getenv("CUSZP2_BENCH_ELEMS") != nullptr
                      ? bench::fieldElems()
                      : usize{1} << 22;
  u32 reps = 9;
  if (const char* env = std::getenv("CUSZP2_BENCH_REPS")) {
    const long long v = std::atoll(env);
    if (v > 0) reps = static_cast<u32>(v);
  }
  const auto data = benchData(n);
  const f64 fieldBytes = static_cast<f64>(n) * sizeof(f32);
  core::Config cfg;
  cfg.absErrorBound = 1e-3;

  bench::JsonReport report;
  io::Table table({"hot path", "min", "median", "max", "median GB/s"});
  auto ms = [](f64 s) { return io::Table::num(s * 1e3, 2) + " ms"; };
  auto add = [&](const std::string& name, f64 bytesPerRep,
                 const std::function<void()>& fn) {
    const auto stats = bench::measureRepeated(reps, fn);
    report.addRow(name, stats, bytesPerRep);
    table.addRow({name, ms(stats.minSeconds), ms(stats.medianSeconds),
                  ms(stats.maxSeconds),
                  io::Table::gbps(bytesPerRep / stats.medianSeconds / 1e9)});
  };

  // End-to-end on one held stream; it hits the zero-allocation steady
  // state after the warm-up rep.
  core::CompressorStream stream(cfg);
  add("stream_roundtrip", 2.0 * fieldBytes, [&] {
    const auto c = stream.compress<f32>(std::span<const f32>(data));
    const auto d = stream.decompress<f32>(c.stream);
    benchmark::DoNotOptimize(d.data.data());
  });
  add("stream_compress", fieldBytes, [&] {
    const auto c = stream.compress<f32>(std::span<const f32>(data));
    benchmark::DoNotOptimize(c.stream.data());
  });
  const auto compressed = stream.compress<f32>(std::span<const f32>(data));
  add("stream_decompress", fieldBytes, [&] {
    const auto d = stream.decompress<f32>(compressed.stream);
    benchmark::DoNotOptimize(d.data.data());
  });

  // Fused quantize+diff vs the pre-optimization two-pass form (quantize
  // into scratch, then a separate differencing sweep).
  const core::Quantizer quantizer(1e-3);
  std::vector<i32> residuals(n);
  std::vector<i32> scratch(n);
  add("quantize_diff_two_pass(before)", fieldBytes, [&] {
    for (usize i = 0; i < n; ++i) scratch[i] = quantizer.quantize(data[i]);
    i32 prev = 0;
    for (usize i = 0; i < n; ++i) {
      residuals[i] = scratch[i] - prev;
      prev = scratch[i];
    }
    benchmark::DoNotOptimize(residuals.data());
  });
  add("quantize_diff_fused(after)", fieldBytes, [&] {
    core::quantizeDiffBlock<f32>(quantizer, data, residuals);
    benchmark::DoNotOptimize(residuals.data());
  });

  // Branch-free bit-plane pack/unpack vs the reference bit-at-a-time
  // loops, amortized over many 32-value blocks at a mid-range bit width.
  constexpr u32 kFl = 16;
  constexpr usize kBlocks = 1u << 14;
  Rng rng(42);
  std::vector<u32> vals(32);
  for (auto& v : vals) v = static_cast<u32>(rng.next()) & ((1u << kFl) - 1);
  std::vector<std::byte> planes(kFl * core::planeBytes(32));
  std::vector<u32> unpacked(32);
  const f64 packBytes = static_cast<f64>(kBlocks) * 32 * sizeof(u32);
  add("pack_planes_reference(before)", packBytes, [&] {
    for (usize b = 0; b < kBlocks; ++b) {
      core::packPlanesReference(vals, kFl, planes.data());
    }
    benchmark::DoNotOptimize(planes.data());
  });
  add("pack_planes_branch_free(after)", packBytes, [&] {
    for (usize b = 0; b < kBlocks; ++b) {
      core::packPlanes(vals, kFl, planes.data());
    }
    benchmark::DoNotOptimize(planes.data());
  });
  add("unpack_planes_reference(before)", packBytes, [&] {
    for (usize b = 0; b < kBlocks; ++b) {
      core::unpackPlanesReference(planes.data(), kFl, unpacked);
    }
    benchmark::DoNotOptimize(unpacked.data());
  });
  add("unpack_planes_branch_free(after)", packBytes, [&] {
    for (usize b = 0; b < kBlocks; ++b) {
      core::unpackPlanes(planes.data(), kFl, unpacked);
    }
    benchmark::DoNotOptimize(unpacked.data());
  });

  std::printf("Hot path, %zu elements, median of %u warm reps "
              "(host wall time):\n", n, reps);
  table.print();
  if (report.write("BENCH_micro.json")) {
    std::printf("\nwrote BENCH_micro.json\n\n");
  }
}

}  // namespace

int main(int argc, char** argv) {
  runHotPath();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
