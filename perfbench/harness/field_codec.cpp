// field-codec: one warm CompressorStream compresses, then decompresses, a
// cycled set of large fields (REL 1e-3, legacy writer), closed loop, one
// caller. Each field is far beyond the per-core L2 and the set together
// is over four times the last-level cache, so the codec runs from DRAM.
#include <unistd.h>

#include <algorithm>
#include <memory>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "common.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"

namespace perfbench {

namespace {

/// Set-up is repeated this many times per run and setup_s is the median;
/// each costs a round trip of the 512 MiB field.
constexpr int kSetupRuns = 5;

using cuszp2::f32;
using cuszp2::Precision;
namespace core = cuszp2::core;

/// Field indices are fixed so the set's character (and its ratio) is the
/// same for every seed; the seed moves the bytes instead (see makeField).
struct FieldSpec {
  const char* dataset;
  u32 field;
};
constexpr FieldSpec kFields[] = {
    {"cesm_atm", 3},  // smooth
    {"jetin", 0},     // sparse, zero blocks
    {"qmcpack", 0},   // rough, low ratio
    {"s3d", 0},       // f64
};
constexpr usize kTileElems = usize{1} << 24;
constexpr usize kTiles = 4;
constexpr usize kElems = kTileElems * kTiles;  // 256 MiB per f32 field

struct Field {
  std::variant<std::vector<f32>, std::vector<f64>> data;
  f64 bound = 0.0;  // REL 1e-3 of this field's range, computed by the harness

  u64 bytes() const {
    return std::visit([](const auto& v) { return v.size() * sizeof(v[0]); },
                      data);
  }
};

/// A field is kTiles copies of one generated tile, each rotated by its own
/// seeded shift, so no two tiles put the same values into the same blocks.
/// Generating the full length directly would take several times longer;
/// the codec's blocks are local, so tiling leaves its work unchanged.
template <typename T>
std::vector<T> tiled(const std::vector<T>& tile, cuszp2::Rng& rng) {
  std::vector<T> out(kElems);
  for (usize t = 0; t < kTiles; ++t) {
    const auto shift = static_cast<std::ptrdiff_t>(rng.next() % tile.size());
    std::rotate_copy(tile.begin(), tile.begin() + shift, tile.end(),
                     out.begin() + static_cast<std::ptrdiff_t>(t * tile.size()));
  }
  return out;
}

Field makeField(const FieldSpec& spec, const core::Config& config, u64 seed,
                u32 slot) {
  cuszp2::Rng rng(mixSeed(seed, 100 + slot));
  Field f;
  if (cuszp2::datagen::datasetInfo(spec.dataset).precision == Precision::F64) {
    f.data = tiled(cuszp2::datagen::generateF64(spec.dataset, spec.field, kTileElems), rng);
  } else {
    f.data = tiled(cuszp2::datagen::generateF32(spec.dataset, spec.field, kTileElems), rng);
  }
  f.bound = std::visit(
      [&](const auto& v) {
        using T = typename std::decay_t<decltype(v)>::value_type;
        return absBoundOf<T>(config.relErrorBound, v);
      },
      f.data);
  return f;
}

/// Compresses then decompresses one field, checking the decode against
/// `bound` and that the stream's header records no looser one. Returns
/// {compress ms, decompress ms}.
template <typename T>
std::pair<f64, f64> roundTrip(core::CompressorStream& stream,
                              const std::vector<T>& data, f64 bound, u32 slot,
                              Report& report, Leg& leg,
                              cuszp2::telemetry::TraceSession* trace) {
  const std::span<const T> in(data);
  core::Compressed c;
  const auto t0 = Clock::now();
  {
    Span s(trace, "core.compress");
    c = stream.compress<T>(in);
  }
  const auto t1 = Clock::now();
  core::Decompressed<T> d;
  {
    Span s(trace, "core.decompress");
    d = stream.decompress<T>(c.stream);
  }
  const auto t2 = Clock::now();
  const f64 compressMs = msBetween(t0, t1);
  const f64 decompressMs = msBetween(t1, t2);

  {
    Span s(trace, "metrics.check");
    const std::string what = "field-codec field " + std::to_string(slot);
    checkDecode<T>(report.ledger, in, d.data, bound, what);
    checkHeaderBound(report.ledger, c.stream, bound, what);

    const std::string f = ".f" + std::to_string(slot);
    const f64 kernelMs = c.profile.wallSeconds * 1e3;
    leg.add("core.compress_ms" + f, compressMs);
    leg.add("core.decompress_ms" + f, decompressMs);
    leg.add("core.host_ms" + f, compressMs - kernelMs);
    leg.add("gpusim.kernel_ms" + f, kernelMs);
    leg.add("scan.lookback_depth", c.profile.sync.avgLookbackDepth());
    leg.addTo("gpusim.dram_bytes", static_cast<f64>(c.profile.mem.totalBytes()));
    leg.addTo("gpusim.elems", static_cast<f64>(data.size()));
    leg.addTo("in_bytes", static_cast<f64>(c.originalBytes));
    leg.addTo("model.write_s", c.profile.endToEndSeconds);
    leg.addTo("model.write_bytes", static_cast<f64>(c.originalBytes));
    leg.addTo("model.read_s", d.profile.endToEndSeconds);
    leg.addTo("model.read_bytes", static_cast<f64>(in.size_bytes()));
    leg.addTo("kept_bytes", static_cast<f64>(c.stream.size()));
    Breakdown b;
    b.add(c.stream);
    b.writeTo(leg);
  }
  return {compressMs, decompressMs};
}

}  // namespace

int runFieldCodec(const Options& opt, Report& report) {
  std::unique_ptr<cuszp2::telemetry::TraceSession> session;
  if (opt.trace) session = std::make_unique<cuszp2::telemetry::TraceSession>();
  const core::Config config;  // REL 1e-3, legacy writer

  // Datagen and each field's bound: one thread per field. Harness cost,
  // reported as gen_s.
  std::vector<Field> fields(std::size(kFields));
  const auto genStart = Clock::now();
  {
    Span s(session.get(), "datagen.fields");
    std::vector<std::thread> workers;
    for (u32 i = 0; i < fields.size(); ++i) {
      workers.emplace_back([&, i] { fields[i] = makeField(kFields[i], config, opt.seed, i); });
    }
    for (auto& w : workers) w.join();
  }
  report.genSeconds = secondsSince(genStart);

  u64 setBytes = 0;
  for (const Field& f : fields) setBytes += f.bytes();
  report.inputBytes = setBytes;
  const long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  report.notes["set_mib"] = std::to_string(setBytes >> 20);
  report.notes["llc_mib"] = llc > 0 ? std::to_string(llc >> 20) : "unknown";
  report.notes["fields"] =
      "cesm_atm[3] jetin[0] qmcpack[0] f32, s3d[0] f64; 2^26 elements each";

  // Set-up: a fresh stream warmed by one round trip of the largest field
  // (so its arena reaches peak size). Repeated; the last stream is kept.
  std::unique_ptr<core::CompressorStream> stream;
  const Field& largest = *std::max_element(
      fields.begin(), fields.end(),
      [](const Field& a, const Field& b) { return a.bytes() < b.bytes(); });
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    stream.reset();  // tearing the previous one down is not set-up
    std::visit(
        [&](const auto& v) {
          using T = typename std::decay_t<decltype(v)>::value_type;
          const auto t = Clock::now();
          stream = std::make_unique<core::CompressorStream>(config);
          const auto c = stream->compress<T>(std::span<const T>(v));
          const auto d = stream->decompress<T>(c.stream);
          report.setupSeconds.push_back(secondsSince(t));
          checkDecode<T>(report.ledger, v, d.data, largest.bound,
                         "field-codec set-up");
        },
        largest.data);
  }
  resetPeakRss();  // the peak covers the measured window

  // Whole cycles only, so every field has the same number of samples. A
  // traced run alternates cycles between the untraced and the traced leg,
  // so both see the same machine conditions.
  Leg& untraced = report.leg("untraced");
  Leg* traced = opt.trace ? &report.leg("traced") : nullptr;
  const auto start = Clock::now();
  for (u64 cycle = 0;
       secondsSince(start) < opt.seconds || cycle < (opt.trace ? 2u : 1u);
       ++cycle) {
    const bool on = traced != nullptr && cycle % 2 == 1;
    Leg& leg = on ? *traced : untraced;
    cuszp2::telemetry::TraceSession* trace = on ? session.get() : nullptr;
    Span op(trace, "harness.op");
    f64 writeMs = 0.0;
    f64 readMs = 0.0;
    for (u32 i = 0; i < fields.size(); ++i) {
      const auto [c, d] = std::visit(
          [&](const auto& v) {
            return roundTrip(*stream, v, fields[i].bound, i, report, leg, trace);
          },
          fields[i].data);
      writeMs += c;
      readMs += d;
    }
    leg.add("write.ms", writeMs);
    leg.add("write.bytes", static_cast<f64>(setBytes));
    leg.add("read.ms", readMs);
    leg.add("read.bytes", static_cast<f64>(setBytes));
  }
  for (auto& [name, leg] : report.legs) leg->set("wall_s", secondsSince(start));
  if (session) {
    report.traceFile = opt.workdir + "/trace.json";
    session->writeJson(report.traceFile);
  }
  report.peakRssMb = peakRssMb();
  return 0;
}

}  // namespace perfbench
