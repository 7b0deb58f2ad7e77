// archive-store: timestep archiving into a journaled content-addressed
// store. Each step compresses one variable's field with PipelineMode::Auto
// (format v3) under an ABS bound and puts it into a cas::BlockStore whose
// journal syncs on every put; the store is snapshotted (save) every
// kSnapshotEvery puts, and steps older than the last kRetainSteps are
// erased. Every kRepeatEvery-th step of a variable repeats a live earlier
// step's content (a static field), so dedup hits. After every put one live
// earlier step is read back, as a full get + decompress or as a get +
// decompressBlocks over a block range. At the end the store is recovered
// from its last snapshot plus journal and every live step is checked.
#include <algorithm>
#include <deque>
#include <filesystem>
#include <memory>
#include <thread>
#include <vector>

#include "cas/block_store.hpp"
#include "common.hpp"
#include "common/hash128.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

namespace perfbench {

namespace {

/// Set-up is repeated this many times per run and setup_s is the median.
constexpr int kSetupRuns = 15;

using cuszp2::f32;
namespace core = cuszp2::core;
namespace cas = cuszp2::cas;
namespace fs = std::filesystem;

/// 4 MiB per step. Each codec call then keeps the pool's workers busy for
/// several milliseconds; calls on steps of 512 KiB were mostly the waking of
/// idle workers, and slowed by half whenever other work shared the vCPUs.
constexpr usize kStepElems = usize{1} << 20;
constexpr usize kBaseElems = usize{1} << 22;
/// Every kRepeatEvery-th step of a variable repeats the content of one of
/// its live earlier steps (a static field), chosen by the seed. The
/// pattern is fixed so the unique content, and so the ratio, is the same
/// for every seed.
constexpr u64 kRepeatEvery = 4;
/// Each step's window moves this far along its variable's field.
constexpr usize kStride = 2048;
constexpr u32 kSnapshotEvery = 128;
/// Steps kept live; older ones are erased, so the store (and the cost of a
/// snapshot and the process's memory) reaches a steady size early in a run.
constexpr usize kRetainSteps = 128;
/// Reads in every ten that decode a block range; the rest decode the whole
/// step. A fixed pattern, so every run has the same mix; kept away from
/// one half so the read median sits inside one kind.
constexpr u64 kRangeReadsPerTen = 3;
constexpr u32 kBlockSize = core::kDefaultBlockSize;
constexpr const char* kTenant = "sim";

/// The archived variables. Field indices are fixed so the ratio is the
/// same for every seed; the seed picks which content the repeated steps
/// repeat and which steps are read back, how.
struct Variable {
  const char* dataset;
  u32 field;
};
constexpr Variable kVariables[] = {
    {"cesm_atm", 3}, {"nyx", 1}, {"scale", 5}, {"hacc", 4}};

struct Base {
  std::vector<f32> data;
  core::Config config;  // Auto pipeline, ABS 1e-3 of the field's range
};

struct Stored {
  std::string name;
  u32 variable = 0;
  usize offset = 0;
  cuszp2::Hash128 hash;
  usize bytes = 0;
};

bool sameBytes(const std::vector<std::byte>& got, const Stored& s) {
  return got.size() == s.bytes && cuszp2::hash128(got) == s.hash;
}

}  // namespace

int runArchiveStore(const Options& opt, Report& report) {
  std::unique_ptr<cuszp2::telemetry::TraceSession> session;
  if (opt.trace) session = std::make_unique<cuszp2::telemetry::TraceSession>();

  const auto genStart = Clock::now();
  std::vector<Base> bases(std::size(kVariables));
  {
    Span s(session.get(), "datagen.fields");
    std::vector<std::thread> workers;
    for (usize i = 0; i < bases.size(); ++i) {
      workers.emplace_back([&, i] {
        Base& b = bases[i];
        b.data = cuszp2::datagen::generateF32(kVariables[i].dataset,
                                              kVariables[i].field, kBaseElems);
        b.config.pipeline = core::PipelineMode::Auto;
        b.config.absErrorBound =
            1e-3 * cuszp2::metrics::valueRange<f32>(b.data);
      });
    }
    for (auto& w : workers) w.join();
  }
  report.genSeconds = secondsSince(genStart);
  for (const Base& b : bases) report.inputBytes += b.data.size() * sizeof(f32);
  report.notes["flush_policy"] =
      "journal sync on every put; snapshot every " +
      std::to_string(kSnapshotEvery) + " puts";

  auto stepSpan = [&](u32 v, usize offset) {
    return std::span<const f32>(bases[v].data).subspan(offset, kStepElems);
  };

  // Set-up: a fresh stream, warmed by one compress and decompress per
  // variable, and a fresh store with its journal attached. Repeated; the
  // last stream and store are the run's.
  const std::string dir = opt.workdir + "/store";
  const std::string indexPath = dir + "/store.cas";
  const std::string journalPath = dir + "/journal.wal";
  std::unique_ptr<core::CompressorStream> stream;
  std::unique_ptr<cas::BlockStore> store;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    stream.reset();  // tearing the previous ones down is not set-up
    store.reset();
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto t = Clock::now();
    stream = std::make_unique<core::CompressorStream>(bases[0].config);
    std::vector<std::vector<f32>> decoded;
    for (u32 v = 0; v < bases.size(); ++v) {
      stream->reconfigure(bases[v].config);
      const auto c = stream->compress<f32>(stepSpan(v, 0));
      decoded.push_back(stream->decompress<f32>(c.stream).data);
    }
    store = std::make_unique<cas::BlockStore>();
    store->attachJournal(journalPath);
    report.setupSeconds.push_back(secondsSince(t));
    for (u32 v = 0; v < bases.size(); ++v) {
      checkDecode<f32>(report.ledger, stepSpan(v, 0), decoded[v],
                       bases[v].config.absErrorBound, "archive-store set-up");
    }
  }
  resetPeakRss();  // the peak covers the measured window

  // One measured window. A traced run alternates steps between the
  // untraced and the traced leg, so both see the same machine conditions;
  // store-wide figures (ratio, dedup, journal, recovery) go to every leg.
  Leg& untraced = report.leg("untraced");
  Leg* traced = opt.trace ? &report.leg("traced") : nullptr;

  cuszp2::Rng rng(mixSeed(opt.seed, 2));
  // Each variable's window starts at a seeded offset, so the seed moves the
  // content of every step.
  std::vector<usize> firstOffset(bases.size());
  for (usize& o : firstOffset) o = rng.next() % (kBaseElems - kStepElems);
  std::deque<Stored> stored;  // live steps, oldest first
  std::vector<std::deque<usize>> liveOffsets(bases.size());  // per variable
  u32 sinceSave = 0;
  u64 steps = 0;
  u64 repeatedSteps = 0;
  u64 newChunks = 0;
  u64 dedupChunks = 0;
  // Ratio basis, taken right after the first snapshot that holds a full
  // retention window (the same point in every run, whatever its speed).
  f64 ratioIn = 0.0;
  f64 ratioKept = 0.0;
  f64 journalBytes = 0.0;
  f64 journalPuts = 0.0;
  Breakdown breakdown;

  auto snapshot = [&](Leg& leg, cuszp2::telemetry::TraceSession* trace) {
    journalBytes += static_cast<f64>(fs::file_size(journalPath));
    journalPuts += sinceSave;
    sinceSave = 0;
    const auto t0 = Clock::now();
    {
      Span s(trace, "cas.save");
      store->save(indexPath);
    }
    leg.add("cas.save_ms", msBetween(t0, Clock::now()));
    if (ratioKept == 0.0 && stored.size() == kRetainSteps) {
      ratioIn = static_cast<f64>(stored.size() * kStepElems * sizeof(f32));
      ratioKept = static_cast<f64>(fs::file_size(indexPath) +
                                   fs::file_size(journalPath));
    }
  };

  const auto start = Clock::now();
  while (secondsSince(start) < opt.seconds ||
         steps < (opt.trace ? 2 * bases.size() : 1)) {
    // Whole rounds (one step of every variable) alternate, so both legs
    // see every variable.
    const bool on = traced != nullptr && steps / bases.size() % 2 == 1;
    Leg& leg = on ? *traced : untraced;
    cuszp2::telemetry::TraceSession* trace = on ? session.get() : nullptr;
    Span op(trace, "harness.op");
    // ---- write: compress one timestep and put it durably ---------------
    const u32 v = static_cast<u32>(steps % bases.size());
    auto& live = liveOffsets[v];
    const u64 round = steps / bases.size();
    usize offset = (firstOffset[v] + round * kStride) % (kBaseElems - kStepElems);
    if (round % kRepeatEvery == kRepeatEvery - 1) {
      offset = live[rng.next() % live.size()];  // static field
    }
    live.push_back(offset);
    Stored s{"v", v, offset, {}, 0};
    s.name += std::to_string(v);
    s.name += "/s";
    s.name += std::to_string(steps);
    const auto in = stepSpan(v, offset);

    const auto t0 = Clock::now();
    core::Compressed c;
    {
      Span span(trace, "core.v3_compress");
      stream->reconfigure(bases[v].config);
      c = stream->compress<f32>(in);
    }
    const auto t1 = Clock::now();
    cas::PutResult put;
    {
      Span span(trace, "cas.put");
      put = store->put(kTenant, s.name, c.stream);
    }
    const auto t2 = Clock::now();
    leg.add("write.ms", msBetween(t0, t2));
    leg.add("write.bytes", static_cast<f64>(in.size_bytes()));
    leg.add("write.codec_ms", msBetween(t0, t1));
    leg.add("core.v3_compress_ms", msBetween(t0, t1));
    leg.addTo("model.write_s", c.profile.endToEndSeconds);
    leg.addTo("model.write_bytes", static_cast<f64>(in.size_bytes()));
    leg.add("cas.put_ms", msBetween(t1, t2));
    newChunks += put.newChunks;
    dedupChunks += put.dedupChunks;
    if (put.physicalBytesAdded == 0) ++repeatedSteps;
    s.hash = cuszp2::hash128(c.stream);
    s.bytes = c.stream.size();
    stored.push_back(s);
    breakdown.add(c.stream);
    ++steps;
    if (stored.size() > kRetainSteps) {
      Span span(trace, "cas.erase");
      store->erase(kTenant, stored.front().name);
      liveOffsets[stored.front().variable].pop_front();
      stored.pop_front();
    }
    if (++sinceSave == kSnapshotEvery) snapshot(leg, trace);

    // ---- read: fetch one earlier live step, full or block range ---------
    const usize earlier = stored.size() > 1 ? stored.size() - 1 : 1;
    const Stored& target = stored[rng.next() % earlier];
    const bool full = steps % 10 >= kRangeReadsPerTen;
    const u64 blocks = kStepElems / kBlockSize;
    const u64 count = 64 + rng.next() % 961;
    const u64 first = rng.next() % (blocks - count);
    const auto r0 = Clock::now();
    std::vector<std::byte> bytes;
    {
      Span span(trace, "cas.get");
      bytes = store->get(kTenant, target.name);
    }
    const auto r1 = Clock::now();
    std::vector<f32> values;
    u64 firstElement = 0;
    f64 modelSeconds = 0.0;
    if (full) {
      Span span(trace, "core.v3_decompress");
      auto d = stream->decompress<f32>(bytes);
      modelSeconds = d.profile.endToEndSeconds;
      values = std::move(d.data);
    } else {
      Span span(trace, "core.range_decompress");
      auto range = stream->decompressBlocks<f32>(bytes, first, count);
      modelSeconds = range.profile.endToEndSeconds;
      firstElement = range.firstElement;
      values = std::move(range.values);
    }
    const auto r2 = Clock::now();
    leg.addTo("model.read_s", modelSeconds);
    leg.addTo("model.read_bytes", static_cast<f64>(values.size() * sizeof(f32)));
    leg.add("read.ms", msBetween(r0, r2));
    leg.add("read.bytes", static_cast<f64>(values.size() * sizeof(f32)));
    leg.add("read.codec_ms", msBetween(r1, r2));
    leg.add("cas.get_ms", msBetween(r0, r1));
    leg.add(full ? "core.v3_decompress_ms" : "core.range_decompress_ms",
            msBetween(r1, r2));

    Span check(trace, "metrics.check");
    if (!sameBytes(bytes, target)) {
      report.ledger.attempt();
      report.ledger.fail("archive-store: get returned other bytes than were put");
      continue;
    }
    const auto original = stepSpan(target.variable, target.offset);
    if (firstElement + values.size() > original.size()) {
      report.ledger.attempt();
      report.ledger.fail("archive-store: decoded range out of bounds");
      continue;
    }
    checkDecode<f32>(report.ledger, original.subspan(firstElement, values.size()),
                     values, bases[target.variable].config.absErrorBound,
                     full ? "archive-store full read" : "archive-store range read");
  }
  const f64 wall = secondsSince(start);

  // ---- recovery from the last snapshot + journal ------------------------
  if (ratioKept == 0.0) {  // too short a run to fill the window
    ratioIn = static_cast<f64>(stored.size() * kStepElems * sizeof(f32));
    ratioKept = static_cast<f64>(
        (fs::exists(indexPath) ? fs::file_size(indexPath) : 0) +
        fs::file_size(journalPath));
  }
  const cas::StoreStats st = store->stats();
  journalBytes += static_cast<f64>(fs::file_size(journalPath));
  journalPuts += sinceSave;
  store.reset();  // the process "stops" here; only the files remain

  cuszp2::telemetry::TraceSession* trace = session.get();
  const auto rec0 = Clock::now();
  std::unique_ptr<cas::BlockStore> recovered;
  {
    Span span(trace, "cas.recover");
    recovered = cas::BlockStore::recover(indexPath, journalPath);
  }
  const f64 recoverMs = msBetween(rec0, Clock::now());
  {
    Span span(trace, "metrics.check");
    for (const Stored& s : stored) {
      report.ledger.attempt();
      if (!recovered->contains(kTenant, s.name) ||
          !sameBytes(recovered->get(kTenant, s.name), s)) {
        report.ledger.fail("archive-store: recovery lost " + s.name);
      }
    }
  }

  for (auto& [name, leg] : report.legs) {
    leg->set("wall_s", wall);
    leg->set("in_bytes", ratioIn);
    leg->set("kept_bytes", ratioKept);
    leg->set("cas.recover_ms", recoverMs);
    leg->set("cas.new_chunks", static_cast<f64>(newChunks));
    leg->set("cas.dedup_chunks", static_cast<f64>(dedupChunks));
    leg->set("archive.steps", static_cast<f64>(steps));
    leg->set("archive.repeated_steps", static_cast<f64>(repeatedSteps));
    leg->set("cas.logical_bytes", static_cast<f64>(st.logicalBytes));
    leg->set("cas.physical_bytes", static_cast<f64>(st.physicalBytes));
    leg->set("io.journal_bytes", journalBytes);
    leg->set("io.journal_puts", journalPuts);
    breakdown.writeTo(*leg);
  }
  if (session) {
    report.traceFile = opt.workdir + "/trace.json";
    session->writeJson(report.traceFile);
  }
  report.peakRssMb = peakRssMb();
  return 0;
}

}  // namespace perfbench
