// service-mixed: an open loop at one fixed rate into one
// CompressionService. Four tenants submit about 3:1 compress:decompress
// jobs of seeded, skewed sizes (16K to 1M f32 elements, so every job fits
// in cache); all jobs share one Config so the batcher can coalesce them.
// Each tenant's replies are collected and checked by its own thread. A
// job's latency runs from its due time to the end of its execution by the
// service's own stamps, so a small job collected behind a large one of the
// same tenant is not charged for the wait.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hpp"
#include "common/hash128.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "service/service.hpp"

namespace perfbench {

namespace {

/// Set-up is repeated this many times per run and setup_s is the median;
/// each is short, so more of them steady the median.
constexpr int kSetupRuns = 21;

using cuszp2::f32;
namespace core = cuszp2::core;
namespace service = cuszp2::service;

/// Offered load, jobs per second. Calibrated once on the commit that
/// introduced the benchmark, well below the knee of its p99 latency curve
/// (see perfbench/NOTES.md); never rescaled per commit.
constexpr f64 kRatePerSecond = 100.0;
constexpr u32 kTenants = 4;  // names in runServiceMixed
constexpr f64 kCompressShare = 0.75;
constexpr usize kMinElems = usize{1} << 14;
constexpr usize kBaseElems = usize{1} << 21;
/// Size of the set-up's warm-up input: the largest job size, fixed so that
/// every seed's set-up does the same work.
constexpr usize kWarmElems = kMinElems * 64;
constexpr usize kPoolInputs = 252;  // 42 per source field
constexpr auto kSpinBeforeDue = std::chrono::microseconds(300);

/// Source fields of the job inputs. Field indices are fixed so the mix's
/// ratio is the same for every seed (per-field ratios differ by up to 40x);
/// the seed picks each input's exact size and slice.
struct BaseSpec {
  const char* dataset;
  u32 field;
};
constexpr BaseSpec kBases[] = {{"cesm_atm", 3}, {"hacc", 4}, {"nyx", 1},
                               {"scale", 5},    {"rtm", 1},  {"miranda", 0}};

/// One distinct job input with its serial references. The serial decode
/// is checked element-wise against the bound once, when the pool is built;
/// a service decode then only has to match it byte for byte, which keeps
/// the collectors' work (and their CPU use during the run) small.
struct Input {
  std::span<const f32> data;
  f64 bound = 0.0;                   // REL bound of this slice, by the harness
  std::vector<std::byte> refStream;  // serial CompressorStream output
  cuszp2::Hash128 refDecode;         // hash of its serial decode
  usize refDecodeBytes = 0;
};

struct Job {
  f64 dueMs = 0.0;  // offset from the schedule's start
  u32 tenant = 0;
  bool compress = true;
  u32 input = 0;
};

/// Skewed toward small jobs: 16K * 64^(u^2) elements for u in [0, 1).
usize jobElems(f64 u) {
  const f64 elems = static_cast<f64>(kMinElems) * std::pow(64.0, u * u);
  return std::max<usize>(kMinElems, static_cast<usize>(elems) / 256 * 256);
}

/// Each job kind walks its own seeded permutation of the input pool, so
/// every run serves the whole pool (and its size distribution) in turn
/// instead of a random draw of it.
std::vector<Job> schedule(u64 seed, f64 seconds) {
  cuszp2::Rng rng(seed);
  std::vector<u32> order[2];
  usize next[2] = {0, 0};
  for (auto& o : order) {
    o.resize(kPoolInputs);
    for (u32 i = 0; i < kPoolInputs; ++i) o[i] = i;
    for (usize i = kPoolInputs - 1; i > 0; --i) {
      std::swap(o[i], o[rng.uniformInt(i + 1)]);
    }
  }
  const usize n = static_cast<usize>(std::ceil(kRatePerSecond * seconds));
  std::vector<Job> jobs(n);
  f64 t = 0.0;
  for (Job& j : jobs) {
    t += -std::log(1.0 - rng.uniform()) * 1e3 / kRatePerSecond;  // Poisson
    j.dueMs = t;
    j.tenant = static_cast<u32>(rng.next() % kTenants);
    j.compress = rng.uniform() < kCompressShare;
    const int kind = j.compress ? 0 : 1;
    j.input = order[kind][next[kind]++ % kPoolInputs];
  }
  return jobs;
}

/// One accepted job on its way from the generator to its collector.
struct Pending {
  usize job = 0;
  f64 sentMs = 0.0;    // submit call began, from the schedule's start
  f64 submitUs = 0.0;  // length of the submit call
  service::Ticket ticket;
};

/// Per-tenant reply queue between the generator and a collector thread.
struct Inbox {
  std::mutex mutex;
  std::condition_variable cv;
  std::deque<Pending> items;  // guarded by mutex
  bool closed = false;        // guarded by mutex
};

}  // namespace

int runServiceMixed(const Options& opt, Report& report) {
  std::unique_ptr<cuszp2::telemetry::TraceSession> session;
  if (opt.trace) session = std::make_unique<cuszp2::telemetry::TraceSession>();
  const core::Config config;  // REL 1e-3, legacy writer, shared by all jobs
  const std::vector<std::string> tenants = {"t0", "t1", "t2", "t3"};

  // Datagen and serial references: harness cost, reported as gen_s.
  const auto genStart = Clock::now();
  std::vector<std::vector<f32>> bases(std::size(kBases));
  std::vector<Input> inputs(kPoolInputs);
  std::vector<std::byte> warmStream;
  {
    Span s(session.get(), "datagen.inputs");
    std::vector<std::thread> workers;
    for (usize i = 0; i < bases.size(); ++i) {
      workers.emplace_back([&, i] {
        bases[i] = cuszp2::datagen::generateF32(kBases[i].dataset,
                                                kBases[i].field, kBaseElems);
      });
    }
    for (auto& w : workers) w.join();
    // Stratified draws: the source fields take turns, and each field's
    // inputs take their size quantiles from equal strata, so every seed's
    // pool has the same size distribution per field (the ratio weighs
    // bytes, so which field gets the large inputs matters); the seed moves
    // the exact sizes and the slices.
    cuszp2::Rng rng(mixSeed(opt.seed, 1));
    const usize perBase = kPoolInputs / bases.size();
    core::CompressorStream serial(config);
    for (usize i = 0; i < kPoolInputs; ++i) {
      Input& in = inputs[i];
      const auto& base = bases[i % bases.size()];
      const f64 stratum = static_cast<f64>(i / bases.size());
      const usize elems = jobElems((stratum + rng.uniform()) / perBase);
      // Spread the slices evenly over the field (golden-ratio sequence),
      // with a seeded jitter, so the pool samples every region of it.
      const f64 position = std::fmod(stratum * 0.6180339887498949, 1.0);
      const usize room = base.size() - elems;
      const usize jitter = rng.next() % 8192;
      const usize offset =
          (static_cast<usize>(position * static_cast<f64>(room)) + jitter) % room;
      in.data = std::span<const f32>(base).subspan(offset, elems);
      in.bound = absBoundOf<f32>(config.relErrorBound, in.data);
      in.refStream = serial.compress<f32>(in.data).stream;
      const auto decoded = serial.decompress<f32>(in.refStream);
      const auto bytes = std::as_bytes(std::span(decoded.data));
      in.refDecode = cuszp2::hash128(bytes);
      in.refDecodeBytes = bytes.size();

      const std::string what = "service-mixed serial reference";
      checkDecode<f32>(report.ledger, in.data, decoded.data, in.bound, what);
      checkHeaderBound(report.ledger, in.refStream, in.bound, what);
    }
    warmStream = serial.compress<f32>(
        std::span<const f32>(bases[0]).first(kWarmElems)).stream;
  }
  report.genSeconds = secondsSince(genStart);
  for (const auto& b : bases) report.inputBytes += b.size() * sizeof(f32);
  for (const Input& in : inputs) report.inputBytes += in.refStream.size();
  report.notes["rate_per_s"] = std::to_string(kRatePerSecond);

  // Set-up: a fresh service warmed by one compress and one decompress of
  // the largest job size per tenant, one at a time, as the measured window
  // mostly sends them. Repeated; the last service is kept.
  const std::span<const f32> warmData =
      std::span<const f32>(bases[0]).first(kWarmElems);
  std::unique_ptr<service::CompressionService> svc;
  for (int rep = 0; rep < kSetupRuns; ++rep) {
    svc.reset();  // tearing the previous one down is not set-up
    const auto t = Clock::now();
    svc = std::make_unique<service::CompressionService>();
    for (const std::string& tenant : tenants) {
      auto a = svc->submitCompress<f32>(tenant, warmData, config);
      if (a.accepted()) a.ticket.wait();
      auto b = svc->submitDecompress(tenant, warmStream, config);
      if (b.accepted()) b.ticket.wait();
    }
    report.setupSeconds.push_back(secondsSince(t));
  }
  resetPeakRss();  // the peak covers the measured window

  // One open-loop schedule. A traced run alternates jobs between the
  // untraced and the traced leg, so both see the same machine conditions;
  // service-wide counters go to every leg.
  Leg& untraced = report.leg("untraced");
  Leg* traced = opt.trace ? &report.leg("traced") : nullptr;
  auto legOf = [&](usize job) -> Leg& {
    return traced != nullptr && job % 2 == 1 ? *traced : untraced;
  };
  auto traceOf = [&](usize job) {
    return traced != nullptr && job % 2 == 1 ? session.get() : nullptr;
  };
  const std::vector<Job> jobs = schedule(mixSeed(opt.seed, 2), opt.seconds);
  const service::ServiceStats before = svc->stats();
  std::vector<Inbox> inboxes(kTenants);
  // Inputs some compress (decompress) job of this run served, with the
  // modelled seconds of the first such job. The ratio and the modelled
  // throughput count each input once, so they do not depend on how often
  // the schedule drew it.
  std::vector<std::atomic<bool>> compressed(kPoolInputs);
  std::vector<std::atomic<bool>> decoded(kPoolInputs);
  std::vector<f64> compressModelS(kPoolInputs);
  std::vector<f64> decompressModelS(kPoolInputs);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  // The schedule's start on the trace clock, to place each job's interval.
  const f64 startUs =
      session ? session->nowUs() + msBetween(Clock::now(), start) * 1e3 : 0.0;
  auto dueOf = [&](const Job& j) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<f64, std::milli>(j.dueMs));
  };

  auto collect = [&](u32 tenant) {
    Inbox& box = inboxes[tenant];
    for (;;) {
      Pending item;
      {
        std::unique_lock lock(box.mutex);
        box.cv.wait(lock, [&] { return box.closed || !box.items.empty(); });
        if (box.items.empty()) return;
        item = std::move(box.items.front());
        box.items.pop_front();
      }
      const Job& job = jobs[item.job];
      const Input& in = inputs[job.input];
      Leg& leg = legOf(item.job);
      cuszp2::telemetry::TraceSession* trace = traceOf(item.job);
      const service::JobResult* r = nullptr;
      {
        Span s(trace, "service.wait");
        r = &item.ticket.wait();
      }
      // The service stamps a job's submission inside the submit call, after
      // the input copy, and reports its queue wait and execution from
      // there; the end of the submit call stands in for that stamp, an
      // overestimate by the few bookkeeping steps that follow it.
      const f64 doneMs =
          item.sentMs + (item.submitUs + r->waitUs + r->serviceUs) * 1e-3;
      if (trace != nullptr) {
        recordSpan(trace, "harness.job", startUs + job.dueMs * 1e3,
                   startUs + doneMs * 1e3, 0);
      }
      Span s(trace, "metrics.check");
      const f64 bytes = static_cast<f64>(in.data.size_bytes());
      const std::string kind = job.compress ? "write" : "read";
      leg.add(kind + ".due_ms", job.dueMs);
      leg.add(kind + ".done_ms", doneMs);
      leg.add(kind + ".bytes", bytes);
      leg.add(kind + ".codec_ms", r->serviceUs * 1e-3);
      leg.add("service.wait_ms", r->waitUs * 1e-3);
      leg.add("service.exec_ms", r->serviceUs * 1e-3);
      report.ledger.attempt();
      if (!r->ok) {
        report.ledger.fail("service-mixed: job failed: " + r->error);
        continue;
      }
      if (job.compress) {
        const auto& out = r->compressed.stream;
        if (out.size() != in.refStream.size() ||
            std::memcmp(out.data(), in.refStream.data(), out.size()) != 0) {
          report.ledger.fail("service-mixed: compress result differs from serial stream");
        }
        if (!compressed[job.input].exchange(true)) {
          compressModelS[job.input] = r->compressed.profile.endToEndSeconds;
        }
        Breakdown b;
        b.add(out);
        b.writeTo(leg);
        continue;
      }
      if (r->decompressed.size() != in.refDecodeBytes ||
          cuszp2::hash128(r->decompressed) != in.refDecode) {
        report.ledger.fail("service-mixed: decode differs from the serial decode");
      }
      if (!decoded[job.input].exchange(true)) {
        decompressModelS[job.input] = r->decompressProfile.endToEndSeconds;
      }
    }
  };
  std::vector<std::thread> collectors;
  for (u32 t = 0; t < kTenants; ++t) collectors.emplace_back(collect, t);

  usize peakDepth = 0;
  for (usize i = 0; i < jobs.size(); ++i) {
    const Job& job = jobs[i];
    const Input& in = inputs[job.input];
    Leg& leg = legOf(i);
    cuszp2::telemetry::TraceSession* trace = traceOf(i);
    const auto due = dueOf(job);
    // Sleep until just before the due time, then spin: a client sends on
    // time, whatever the wake-up latency of a sleeping thread here.
    std::this_thread::sleep_until(due - kSpinBeforeDue);
    while (Clock::now() < due) {
    }
    const std::string& tenant = tenants[job.tenant];
    const auto t0 = Clock::now();
    service::SubmitResult sr;
    {
      Span s(trace, "service.submit");
      sr = job.compress ? svc->submitCompress<f32>(tenant, in.data, config)
                        : svc->submitDecompress(tenant, in.refStream, config);
    }
    const auto t1 = Clock::now();
    const usize depth = svc->queueDepth();
    peakDepth = std::max(peakDepth, depth);
    const f64 sentMs = msBetween(start, t0);
    const f64 submitUs = msBetween(t0, t1) * 1e3;
    leg.add("gen.due_ms", job.dueMs);
    leg.add("gen.sent_ms", sentMs);
    leg.add("service.submit_us", submitUs);
    leg.add("service.queue_depth", static_cast<f64>(depth));
    if (!sr.accepted()) {
      report.ledger.attempt();
      report.ledger.fail("service-mixed: rejected: " + sr.detail);
      continue;
    }
    Inbox& box = inboxes[job.tenant];
    {
      std::lock_guard lock(box.mutex);
      box.items.push_back({i, sentMs, submitUs, std::move(sr.ticket)});
    }
    box.cv.notify_one();
  }
  const usize finalDepth = svc->queueDepth();
  for (Inbox& box : inboxes) {
    {
      std::lock_guard lock(box.mutex);
      box.closed = true;
    }
    box.cv.notify_one();
  }
  for (auto& c : collectors) c.join();
  const f64 wall = secondsSince(start);

  const service::ServiceStats after = svc->stats();
  const auto rejected = [](const service::ServiceStats& s) {
    return s.rejectedQueueFull + s.rejectedQuota + s.rejectedShutdown +
           s.rejectedCircuitOpen;
  };
  f64 inBytes = 0.0;
  f64 keptBytes = 0.0;
  f64 writeModelS = 0.0;
  f64 readBytes = 0.0;
  f64 readModelS = 0.0;
  for (usize i = 0; i < kPoolInputs; ++i) {
    if (compressed[i].load(std::memory_order_relaxed)) {
      inBytes += static_cast<f64>(inputs[i].data.size_bytes());
      keptBytes += static_cast<f64>(inputs[i].refStream.size());
      writeModelS += compressModelS[i];
    }
    if (decoded[i].load(std::memory_order_relaxed)) {
      readBytes += static_cast<f64>(inputs[i].refDecodeBytes);
      readModelS += decompressModelS[i];
    }
  }
  for (auto& [name, leg] : report.legs) {
    leg->set("wall_s", wall);
    leg->set("in_bytes", inBytes);
    leg->set("kept_bytes", keptBytes);
    leg->set("model.write_s", writeModelS);
    leg->set("model.write_bytes", inBytes);
    leg->set("model.read_s", readModelS);
    leg->set("model.read_bytes", readBytes);
    leg->set("service.queue_depth_max", static_cast<f64>(peakDepth));
    leg->set("service.queue_depth_final", static_cast<f64>(finalDepth));
    leg->set("service.batches", static_cast<f64>(after.batches - before.batches));
    leg->set("service.dispatched",
             static_cast<f64>(after.dispatched - before.dispatched));
    leg->set("service.rejected",
             static_cast<f64>(rejected(after) - rejected(before)));
    leg->set("service.retries", static_cast<f64>(after.retries - before.retries));
  }
  if (session) {
    report.traceFile = opt.workdir + "/trace.json";
    session->writeJson(report.traceFile);
  }
  svc->shutdown();
  report.peakRssMb = peakRssMb();
  return 0;
}

}  // namespace perfbench
