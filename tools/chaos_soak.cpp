// chaos_soak — seeded chaos drill for the compression service.
//
// Runs a multi-tenant job mix (four healthy tenants over synthetic
// paper datasets, alternating compress/decompress) under a
// SeededChaosSchedule that exercises every injectable fault mode —
// bit flips, block aborts, launch stalls, pool-worker wedges, and
// scratch-arena exhaustion — plus one "poison" tenant whose decompress
// payloads are pre-corrupted so every strict decode fails. Asserts the
// service's chaos contract:
//
//   * every submitted ticket resolves with a typed Outcome;
//   * non-degraded outputs are byte-identical to a fault-free serial
//     CompressorStream run with the same Config;
//   * poison jobs resolve Degraded with a non-clean DecodeReport, and
//     the circuit breaker opens for (only) the poison tenant — a second
//     submission wave shows poison rejected CircuitOpen while healthy
//     tenants still complete;
//   * watchdog recoveries equal the schedule's stall+wedge injections
//     (replayed analytically from the seed), and the whole recovery
//     counter tuple is identical across two runs of the same seed.
//
// With --cluster the drill runs the shard-level analogue instead: an
// 8-tenant mix over a 4-shard CompressionCluster under a seeded
// ShardChaosSchedule. Kills land while every shard is paused (the
// deterministic drill recipe), so the queued/running partition is exact
// and the run asserts:
//
//   * every ticket resolves with a typed Outcome within the timeout;
//   * every job completes and its output is byte-identical to the
//     fault-free serial run — failover resumed the work on a survivor,
//     it did not re-derive different bytes;
//   * a replicated archive self-heals single-chunk damage, fails a read
//     over past an unrepairable copy, and read-repairs the set;
//   * the full ClusterStats snapshot — kills, failovers, steals, archive
//     counters — is identical across two runs of the same seed.
//
// With --cas the drill soaks the content-addressed block store instead:
// a seeded schedule of foreground puts/gets/erases/gc over dedup-heavy
// content (repeated timesteps across tenants) interleaved with
// CompactionWorker sweeps whose chaosAbort hook kills sweeps between the
// re-encode and the commit (the mid-compaction kill window), plus
// deliberate stale-commit races (scan, foreground delete, commit). The
// run asserts:
//
//   * no lost blocks: after every round each live object reads back with
//     the content the shadow model expects (raw bytes for blobs, the
//     decompressed element hash for streams — migration may change the
//     wire bytes but never the content), erased keys stay gone, and
//     BlockStore::checkInvariants holds;
//   * a compaction kill never mutates the store (old object intact);
//   * a stale commit (object deleted/rewritten after the scan) is
//     refused;
//   * the final StoreStats + CompactionStats tuples, and a save/load
//     round trip of the final store, are identical across two runs of
//     the same seed.
//
//   usage: chaos_soak [--seed N] [--jobs N] [--fast] [--cluster] [--cas]
//
// Exit 0 when every invariant held; 1 otherwise, printing the seed
// needed to replay the failure.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <filesystem>
#include <map>

#include "cas/block_store.hpp"
#include "cas/compaction.hpp"
#include "cluster/cluster.hpp"
#include "common/hash128.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/archive.hpp"
#include "service/chaos.hpp"
#include "service/service.hpp"

using namespace cuszp2;

namespace {

struct JobSpec {
  std::string tenant;
  service::JobKind kind = service::JobKind::Compress;
  std::vector<f32> field;               // compress input
  std::vector<std::byte> stream;        // decompress input
  std::vector<std::byte> expected;      // fault-free reference output
  bool poison = false;
};

struct RunCounters {
  u64 completed = 0, failed = 0, degraded = 0, abandoned = 0;
  u64 recoveries = 0, retries = 0, retriesExhausted = 0;
  u64 breakerOpens = 0, chaosInjected = 0, rejectedCircuitOpen = 0;
  u64 streamFaultsDetected = 0, streamFaultRelaunches = 0;

  bool operator==(const RunCounters&) const = default;
};

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++failures;
}

core::Config jobConfig() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = true;
  cfg.blockChecksums = true;
  cfg.faultRetries = 2;
  return cfg;
}

std::vector<std::byte> toBytes(const std::vector<f32>& v) {
  std::vector<std::byte> bytes(v.size() * sizeof(f32));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

/// The deterministic job mix, in submission order (job ids are assigned
/// sequentially at submission, so spec i gets service job id i + 1).
std::vector<JobSpec> buildSpecs(u32 jobsPerTenant, u32 poisonJobs) {
  struct Tenant {
    const char* name;
    const char* dataset;
  };
  const Tenant tenants[] = {{"climate", "cesm_atm"},
                            {"cosmo", "hacc"},
                            {"fusion", "jetin"},
                            {"seismic", "scale"}};
  core::CompressorStream ref(jobConfig());
  std::vector<JobSpec> specs;
  for (u32 j = 0; j < jobsPerTenant; ++j) {
    for (const Tenant& t : tenants) {
      const u32 fields = datagen::datasetInfo(t.dataset).numFields;
      JobSpec spec;
      spec.tenant = t.name;
      spec.field =
          datagen::generateF32(t.dataset, j % fields, 2048 + 1024 * (j % 3));
      const core::Compressed ref32 = ref.compress<f32>(spec.field);
      if (j % 2 == 0) {
        spec.kind = service::JobKind::Compress;
        spec.expected = ref32.stream;
      } else {
        spec.kind = service::JobKind::Decompress;
        spec.stream = ref32.stream;
        spec.expected = toBytes(ref.decompress<f32>(ref32.stream).data);
      }
      specs.push_back(std::move(spec));
    }
  }
  for (u32 j = 0; j < poisonJobs; ++j) {
    JobSpec spec;
    spec.tenant = "poison";
    spec.kind = service::JobKind::Decompress;
    spec.poison = true;
    const auto field = datagen::generateF32("cesm_atm", j % 33, 3072);
    spec.stream = ref.compress<f32>(field).stream;
    // Smash payload bytes in the back half (the header stays intact so
    // the degraded decoder can still parse the frame and quarantine).
    const usize half = spec.stream.size() / 2;
    for (u32 k = 0; k < 8; ++k) {
      spec.stream[half + (k * 31) % half] ^= std::byte{0xA5};
    }
    specs.push_back(std::move(spec));
  }
  return specs;
}

service::ServiceConfig serviceConfig(u64 seed) {
  service::ChaosConfig chaos;
  chaos.seed = seed;
  chaos.stallTicks = 450;  // >> watchdog timeout: always recovered first
  chaos.wedgeTicks = 450;
  chaos.exemptTenant = "poison";  // poison carries its own corruption
  service::SeededChaosSchedule schedule(chaos);

  service::ServiceConfig cfg;
  cfg.workers = 3;
  cfg.startPaused = true;
  cfg.watchdog.pollMillis = 5;
  cfg.watchdog.minTimeoutMillis = 150;
  cfg.watchdog.maxRecoveries = 1;
  cfg.retry.maxAttempts = 2;
  cfg.retry.backoffBaseMillis = 1;
  cfg.retry.backoffCapMillis = 8;
  cfg.retry.jitterSeed = seed;
  cfg.breaker.threshold = 4;
  cfg.breaker.cooldownMillis = 10 * 60 * 1000;  // stays open for the drill
  cfg.degradedDecode = true;
  cfg.chaosHook = schedule.hook();
  return cfg;
}

/// Replays the chaos schedule analytically: how many first attempts get
/// tagged with each mode, given the submission-order job ids.
struct Forecast {
  u64 injected = 0;
  u64 stallsAndWedges = 0;
  u64 arenaFaults = 0;
};

Forecast forecast(u64 seed, const std::vector<JobSpec>& specs) {
  service::SeededChaosSchedule schedule(
      [&] {
        service::ChaosConfig c;
        c.seed = seed;
        c.stallTicks = 450;
        c.wedgeTicks = 450;
        c.exemptTenant = "poison";
        return c;
      }());
  Forecast f;
  for (usize i = 0; i < specs.size(); ++i) {
    service::ChaosJobInfo info;
    info.jobId = i + 1;
    info.tenant = specs[i].tenant;
    info.kind = specs[i].kind;
    info.attempt = 0;
    const service::ChaosFault fault = schedule.decide(info);
    using Mode = service::ChaosFault::Mode;
    if (fault.mode == Mode::None) continue;
    ++f.injected;
    if (fault.mode == Mode::Stall || fault.mode == Mode::Wedge) {
      ++f.stallsAndWedges;
    }
    if (fault.mode == Mode::ArenaExhaust) ++f.arenaFaults;
  }
  return f;
}

RunCounters runOnce(u64 seed, const std::vector<JobSpec>& specs) {
  service::CompressionService svc(serviceConfig(seed));
  const core::Config cfg = jobConfig();

  std::vector<service::Ticket> tickets;
  tickets.reserve(specs.size());
  u32 poisonJobs = 0;
  for (const JobSpec& spec : specs) {
    service::SubmitResult submitted =
        spec.kind == service::JobKind::Compress
            ? svc.submitCompress<f32>(spec.tenant,
                                      std::span<const f32>(spec.field), cfg)
            : svc.submitDecompress(spec.tenant, spec.stream, cfg);
    check(submitted.accepted(), "wave-1 submission accepted");
    tickets.push_back(submitted.ticket);
    if (spec.poison) ++poisonJobs;
  }
  svc.resume();

  // Contract #1: every ticket resolves (typed outcome, bounded time).
  for (usize i = 0; i < tickets.size(); ++i) {
    check(tickets[i].waitFor(std::chrono::seconds(120)),
          "ticket " + std::to_string(i + 1) + " resolves");
  }

  // Contract #2: byte identity for non-degraded work; quarantine for
  // poison.
  for (usize i = 0; i < tickets.size(); ++i) {
    if (!tickets[i].poll()) continue;  // already reported above
    const service::JobResult& r = tickets[i].result();
    const JobSpec& spec = specs[i];
    const std::string tag =
        spec.tenant + " job " + std::to_string(i + 1);
    if (spec.poison) {
      check(r.outcome == service::Outcome::Degraded,
            tag + " resolves Degraded (got " +
                std::string(toString(r.outcome)) + ")");
      check(!r.decodeReport.clean(), tag + " carries a non-clean report");
      check(r.decodeReport.badBlocks > 0, tag + " quarantined blocks");
      continue;
    }
    check(r.outcome == service::Outcome::Completed,
          tag + " completes (got " + std::string(toString(r.outcome)) +
              (r.error.empty() ? "" : ": " + r.error) + ")");
    const std::vector<std::byte>& got =
        spec.kind == service::JobKind::Compress ? r.compressed.stream
                                                : r.decompressed;
    check(got == spec.expected,
          tag + " output byte-identical to the fault-free serial run");
  }

  // Contract #4 (part 1): wave-1 counters are the predicted,
  // seed-determined values. Snapshot before wave 2 — its jobs draw their
  // own chaos decisions, which the analytic replay does not cover.
  const service::ServiceStats wave1 = svc.stats();
  const Forecast fc = forecast(seed, specs);
  check(wave1.failed == 0, "no wave-1 job failed outright");
  check(wave1.degraded == poisonJobs, "every poison job degraded");
  check(wave1.chaosInjected == fc.injected,
        "chaos injections match the schedule replay (" +
            std::to_string(wave1.chaosInjected) + " vs " +
            std::to_string(fc.injected) + ")");
  check(wave1.watchdogRecoveries == fc.stallsAndWedges,
        "watchdog recoveries == injected stalls+wedges (" +
            std::to_string(wave1.watchdogRecoveries) + " vs " +
            std::to_string(fc.stallsAndWedges) + ")");
  check(wave1.retries == fc.arenaFaults + poisonJobs,
        "service retries == arena faults + poison strict-decode failures (" +
            std::to_string(wave1.retries) + " vs " +
            std::to_string(fc.arenaFaults + poisonJobs) + ")");
  check(wave1.retriesExhausted == poisonJobs,
        "only poison jobs exhaust their attempts");
  check(wave1.breakerOpens == 1, "the breaker opened exactly once");

  // Contract #3: the breaker isolates exactly the poison tenant.
  check(svc.breakerState("poison") == service::BreakerState::Open,
        "poison breaker open after wave 1");
  for (const char* t : {"climate", "cosmo", "fusion", "seismic"}) {
    check(svc.breakerState(t) == service::BreakerState::Closed,
          std::string(t) + " breaker stays closed");
  }
  service::SubmitResult poisoned =
      svc.submitDecompress("poison", specs.back().stream, cfg);
  check(!poisoned.accepted() &&
            poisoned.reason == service::RejectReason::CircuitOpen,
        "wave-2 poison submission rejected circuit-open");
  std::vector<service::Ticket> wave2;
  for (const JobSpec& spec : specs) {
    if (spec.poison || spec.kind != service::JobKind::Compress) continue;
    service::SubmitResult submitted = svc.submitCompress<f32>(
        spec.tenant, std::span<const f32>(spec.field), cfg);
    check(submitted.accepted(), "wave-2 healthy submission accepted");
    if (submitted.accepted()) wave2.push_back(submitted.ticket);
    break;  // one job per wave is enough to show the lanes stay open
  }
  for (const service::Ticket& t : wave2) {
    check(t.waitFor(std::chrono::seconds(60)) &&
              t.result().outcome == service::Outcome::Completed,
          "wave-2 healthy job completes while poison is shed");
  }

  svc.shutdown();

  // Contract #4 (part 2): the full counter tuple — wave 2 included — must
  // reproduce bit-for-bit across runs of the same seed (checked in main).
  const service::ServiceStats stats = svc.stats();
  check(stats.failed == 0, "no job failed outright");
  check(stats.abandoned == 0, "no job was abandoned");
  check(stats.rejectedCircuitOpen == 1,
        "exactly the wave-2 poison submission was shed");

  RunCounters c;
  c.completed = stats.completed;
  c.failed = stats.failed;
  c.degraded = stats.degraded;
  c.abandoned = stats.abandoned;
  c.recoveries = stats.watchdogRecoveries;
  c.retries = stats.retries;
  c.retriesExhausted = stats.retriesExhausted;
  c.breakerOpens = stats.breakerOpens;
  c.chaosInjected = stats.chaosInjected;
  c.rejectedCircuitOpen = stats.rejectedCircuitOpen;
  c.streamFaultsDetected = stats.streamFaultsDetected;
  c.streamFaultRelaunches = stats.streamFaultRelaunches;
  return c;
}

// ---------------------------------------------------------------------
// --cluster mode

/// 8 healthy tenants, alternating compress/decompress, with fault-free
/// serial reference outputs. No poison tenant: in the cluster drill the
/// chaos is shard kills, not kernel faults.
std::vector<JobSpec> buildClusterSpecs(u32 jobsPerTenant) {
  struct Tenant {
    const char* name;
    const char* dataset;
  };
  const Tenant tenants[] = {
      {"climate", "cesm_atm"}, {"cosmo", "hacc"},  {"fusion", "jetin"},
      {"seismic", "scale"},    {"weather", "cesm_atm"}, {"astro", "hacc"},
      {"plasma", "jetin"},     {"geo", "scale"}};
  core::CompressorStream ref(jobConfig());
  std::vector<JobSpec> specs;
  for (u32 j = 0; j < jobsPerTenant; ++j) {
    for (const Tenant& t : tenants) {
      const u32 fields = datagen::datasetInfo(t.dataset).numFields;
      JobSpec spec;
      spec.tenant = t.name;
      spec.field = datagen::generateF32(t.dataset, j % fields,
                                        2048 + 1024 * (j % 3));
      const core::Compressed ref32 = ref.compress<f32>(spec.field);
      if (j % 2 == 0) {
        spec.kind = service::JobKind::Compress;
        spec.expected = ref32.stream;
      } else {
        spec.kind = service::JobKind::Decompress;
        spec.stream = ref32.stream;
        spec.expected = toBytes(ref.decompress<f32>(ref32.stream).data);
      }
      specs.push_back(std::move(spec));
    }
  }
  return specs;
}

struct ClusterRun {
  cluster::ClusterStats stats;
  std::vector<service::Outcome> outcomes;
  std::vector<u32> shards;
  std::vector<std::vector<std::byte>> outputs;

  bool operator==(const ClusterRun&) const = default;
};

ClusterRun runClusterOnce(u64 seed, const std::vector<JobSpec>& specs) {
  cluster::ClusterConfig cfg;
  cfg.shards = 4;
  cfg.replicas = 2;
  cfg.minShardsUp = 2;
  cfg.shard.workers = 1;
  cfg.startPaused = true;
  cluster::ShardChaosConfig chaos;
  chaos.seed = seed;
  chaos.killRate = 0.5;
  chaos.degradeRate = 0.2;
  cfg.shardChaos = cluster::ShardChaosSchedule(chaos).hook();
  cluster::CompressionCluster cl(cfg);
  const core::Config jobCfg = jobConfig();

  std::vector<cluster::ClusterTicket> tickets;
  tickets.reserve(specs.size());
  for (const JobSpec& spec : specs) {
    cluster::ClusterSubmitResult submitted =
        spec.kind == service::JobKind::Compress
            ? cl.submitCompress<f32>(
                  spec.tenant, std::span<const f32>(spec.field), jobCfg)
            : cl.submitDecompress(spec.tenant, ConstByteSpan(spec.stream),
                                  jobCfg);
    check(submitted.accepted(), "cluster submission accepted");
    tickets.push_back(submitted.ticket);
  }

  // Seeded kill schedule while paused: the deterministic drill recipe.
  for (int beat = 0; beat < 5; ++beat) cl.heartbeat();
  cl.resume();

  ClusterRun run;
  for (usize i = 0; i < tickets.size(); ++i) {
    check(tickets[i].waitFor(std::chrono::seconds(120)),
          "cluster ticket " + std::to_string(i + 1) + " resolves");
  }
  for (usize i = 0; i < tickets.size(); ++i) {
    if (!tickets[i].poll()) {
      run.outcomes.push_back(service::Outcome::Failed);
      run.shards.push_back(0);
      run.outputs.emplace_back();
      continue;  // already reported above
    }
    const cluster::ClusterJobResult& r = tickets[i].result();
    const JobSpec& spec = specs[i];
    const std::string tag =
        spec.tenant + " job " + std::to_string(i + 1);
    check(r.job.outcome == service::Outcome::Completed,
          tag + " completes across the kills (got " +
              std::string(toString(r.job.outcome)) +
              (r.job.error.empty() ? "" : ": " + r.job.error) + ")");
    const std::vector<std::byte>& got =
        spec.kind == service::JobKind::Compress ? r.job.compressed.stream
                                                : r.job.decompressed;
    check(got == spec.expected,
          tag + " output byte-identical to the fault-free serial run");
    run.outcomes.push_back(r.job.outcome);
    run.shards.push_back(r.shard);
    run.outputs.push_back(got);
  }

  // Archive drill over the post-kill membership (deterministic): a
  // single damaged chunk self-heals in place; two damaged chunks in one
  // parity group defeat XOR parity and force a replica failover plus
  // read-repair.
  std::vector<std::byte> raw(3 * cfg.replicaParity.chunkBytes);
  for (usize i = 0; i < raw.size(); ++i) {
    raw[i] = static_cast<std::byte>((i * 131 + 17) & 0xFF);
  }
  const std::vector<std::byte> sealed =
      io::withParityTrailer(raw, cfg.replicaParity);
  cl.putArchive("climate", "soak", ConstByteSpan(raw));
  const u32 primary = cl.primaryShardFor("climate/soak");

  cl.corruptArchiveCopy(primary, "climate", "soak", 33);
  check(cl.getArchive("climate", "soak").archive == sealed,
        "archive self-heals one damaged chunk bit-exactly");

  cl.corruptArchiveCopy(primary, "climate", "soak", 5);
  cl.corruptArchiveCopy(primary, "climate", "soak",
                        cfg.replicaParity.chunkBytes + 5);
  const cluster::CompressionCluster::ArchiveFetch fetched =
      cl.getArchive("climate", "soak");
  check(fetched.archive == sealed,
        "archive read fails over to an intact replica bit-exactly");
  check(fetched.shard != primary, "the failover read left the primary");
  check(cl.getArchive("climate", "soak").shard == primary,
        "read-repair restored the primary copy");

  cl.shutdown();
  run.stats = cl.stats();
  check(run.stats.archiveReadFailovers >= 1,
        "the archive drill recorded a read failover");
  check(run.stats.archiveRepairs >= 2,
        "the archive drill recorded self-heal + read-repair");
  return run;
}

int clusterMain(u64 seed, u32 jobsPerTenant) {
  const std::vector<JobSpec> specs = buildClusterSpecs(jobsPerTenant);
  std::printf("chaos_soak(cluster): seed=%llu jobs=%zu tenants=8 shards=4\n",
              static_cast<unsigned long long>(seed), specs.size());

  const ClusterRun first = runClusterOnce(seed, specs);
  const ClusterRun second = runClusterOnce(seed, specs);
  check(first.stats == second.stats,
        "cluster counters reproduce across two runs of the same seed");
  check(first.outcomes == second.outcomes &&
            first.shards == second.shards &&
            first.outputs == second.outputs,
        "cluster placements and bytes reproduce across runs");
  check(first.stats.shardKills > 0, "the drill killed at least one shard");
  check(first.stats.failovers > 0, "at least one job failed over");
  check(first.stats.abandoned == 0 && first.stats.failed == 0,
        "no ticket was lost to the kills");

  std::printf(
      "run: completed=%llu failovers=%llu steals=%llu kills=%llu "
      "vetoed=%llu degrades=%llu archive_failovers=%llu "
      "archive_repairs=%llu\n",
      static_cast<unsigned long long>(first.stats.completed),
      static_cast<unsigned long long>(first.stats.failovers),
      static_cast<unsigned long long>(first.stats.steals),
      static_cast<unsigned long long>(first.stats.shardKills),
      static_cast<unsigned long long>(first.stats.killsVetoed),
      static_cast<unsigned long long>(first.stats.shardDegrades),
      static_cast<unsigned long long>(first.stats.archiveReadFailovers),
      static_cast<unsigned long long>(first.stats.archiveRepairs));
  if (failures == 0) {
    std::printf("chaos_soak(cluster): OK\n");
    return 0;
  }
  std::fprintf(stderr,
               "chaos_soak(cluster): %d failure(s); replay with --cluster "
               "--seed %llu\n",
               failures, static_cast<unsigned long long>(seed));
  return 1;
}

// ---------------------------------------------------------------------
// --cas mode

/// What the drill believes one live object holds. Blobs must read back
/// byte-identical; streams must DECODE identical (compaction may rewrite
/// the wire bytes, never the content).
struct ShadowEntry {
  bool isStream = false;
  std::vector<std::byte> raw;  ///< blob: exact expected bytes
  Hash128 elements;            ///< stream: hash of decompressed bytes
};

struct CasRun {
  cas::StoreStats store;
  cas::CompactionStats compaction;
  u64 staleRefusals = 0;
  u64 liveObjects = 0;
  std::vector<u32> finalCrcs;  ///< crcOf every live key, key-sorted

  bool operator==(const CasRun&) const = default;
};

Hash128 elementsOf(core::CompressorStream& codec, ConstByteSpan stream) {
  const auto decoded = codec.decompress<f32>(stream);
  return hash128(ConstByteSpan{
      reinterpret_cast<const std::byte*>(decoded.data.data()),
      decoded.data.size() * sizeof(f32)});
}

CasRun runCasOnce(u64 seed, u32 rounds) {
  // Dedup-heavy corpus: a handful of unique payloads that the schedule
  // re-puts under many tenant/name keys (repeated simulation timesteps).
  core::CompressorStream codec(jobConfig());
  std::vector<std::vector<std::byte>> streams;
  for (u32 i = 0; i < 4; ++i) {
    const auto field = datagen::generateF32("cesm_atm", i, 4096);
    streams.push_back(codec.compress<f32>(field).stream);
  }
  std::vector<std::vector<std::byte>> blobs;
  for (u32 i = 0; i < 3; ++i) {
    std::vector<std::byte> b(40000 + 1000 * i);
    SplitMix64 mix(seed + i);
    for (auto& x : b) x = static_cast<std::byte>(mix.next() & 0xFF);
    blobs.push_back(std::move(b));
  }
  const char* tenants[] = {"climate", "cosmo", "fusion", "seismic"};

  cas::BlockStore store({.chunkBytes = 4096, .deferGc = true});
  cas::CompactionConfig ccfg;
  ccfg.coldTicks = 2;
  ccfg.maxPerSweep = 4;
  ccfg.requireSmaller = false;  // drill migrations deterministically
  // Seeded mid-compaction kill: pure in (seed, sweep, candidate), so two
  // same-seed runs abort the same sweeps at the same candidate.
  ccfg.chaosAbort = [seed](u64 sweep, usize candidate) {
    SplitMix64 mix(seed ^ (sweep * 0x9E3779B9ull + candidate));
    return mix.next() % 4 == 0;
  };
  cas::CompactionWorker worker(store, ccfg);

  std::map<std::string, ShadowEntry> shadow;  // key -> expected content
  std::vector<std::string> erased;
  Rng rng(seed);
  u64 staleRefusals = 0;

  const auto verifyAllLive = [&] {
    store.checkInvariants();
    for (const auto& [key, want] : shadow) {
      const auto slash = key.find('/');
      const std::string tenant = key.substr(0, slash);
      const std::string name = key.substr(slash + 1);
      check(store.contains(tenant, name), "live object present: " + key);
      const std::vector<std::byte> got = store.get(tenant, name);
      if (want.isStream) {
        check(elementsOf(codec, got) == want.elements,
              "stream content identical after churn: " + key);
      } else {
        check(got == want.raw, "blob bytes identical after churn: " + key);
      }
    }
    for (const std::string& key : erased) {
      if (shadow.count(key)) continue;  // re-put after the erase
      const auto slash = key.find('/');
      check(!store.contains(key.substr(0, slash), key.substr(slash + 1)),
            "erased object stays gone: " + key);
    }
  };

  for (u32 round = 0; round < rounds; ++round) {
    // A seeded burst of foreground traffic.
    for (u32 op = 0; op < 8; ++op) {
      const std::string tenant = tenants[rng.uniformInt(4)];
      const u64 roll = rng.uniformInt(100);
      if (roll < 50) {  // put (dedup-heavy: few payloads, many keys)
        const bool putStream = rng.uniformInt(2) == 0;
        const std::string name =
            (putStream ? "step-" : "blob-") +
            std::to_string(rng.uniformInt(6));
        const std::string key = tenant + "/" + name;
        ShadowEntry entry;
        if (putStream) {
          const auto& s = streams[rng.uniformInt(streams.size())];
          store.put(tenant, name, ConstByteSpan(s));
          entry.isStream = true;
          entry.elements = elementsOf(codec, s);
        } else {
          const auto& b = blobs[rng.uniformInt(blobs.size())];
          store.put(tenant, name, ConstByteSpan(b));
          entry.raw = b;
        }
        shadow[key] = std::move(entry);
      } else if (roll < 75) {  // get (warms the object)
        if (shadow.empty()) continue;
        auto it = shadow.begin();
        std::advance(it, static_cast<long>(
                             rng.uniformInt(shadow.size())));
        const auto slash = it->first.find('/');
        store.get(it->first.substr(0, slash),
                  it->first.substr(slash + 1));
      } else if (roll < 90) {  // erase
        if (shadow.empty()) continue;
        auto it = shadow.begin();
        std::advance(it, static_cast<long>(
                             rng.uniformInt(shadow.size())));
        const auto slash = it->first.find('/');
        check(store.erase(it->first.substr(0, slash),
                          it->first.substr(slash + 1)),
              "erase of a live key succeeds");
        erased.push_back(it->first);
        shadow.erase(it);
      } else {  // gc sweep of parked chunks
        store.gc();
      }
    }

    // Deliberate stale-commit race every third round: scan, let the
    // foreground delete the candidate, then try to commit it.
    if (round % 3 == 2) {
      const auto candidates = store.compactionCandidates(0, 1);
      if (!candidates.empty()) {
        const auto& c = candidates.front();
        store.erase(c.tenant, c.name);
        erased.push_back(c.tenant + "/" + c.name);
        shadow.erase(c.tenant + "/" + c.name);
        check(!store.commitCompaction(c.tenant, c.name,
                                      ConstByteSpan(c.bytes),
                                      c.generation),
              "stale commit after foreground delete is refused");
        ++staleRefusals;
      }
    }

    // One compaction sweep, possibly killed mid-way by the seeded hook.
    worker.runOnce();
    verifyAllLive();
  }

  store.gc();
  verifyAllLive();

  // Determinism snapshot + save/load round trip of the final store.
  CasRun run;
  run.store = store.stats();
  run.compaction = worker.stats();
  run.staleRefusals = staleRefusals;
  run.liveObjects = shadow.size();
  for (const auto& [key, want] : shadow) {
    const auto slash = key.find('/');
    run.finalCrcs.push_back(
        store.crcOf(key.substr(0, slash), key.substr(slash + 1)));
  }

  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("chaos_soak_cas_" + std::to_string(::getpid()) + ".cas"))
          .string();
  const io::ParityOptions parity;
  store.save(path, &parity);
  const auto loaded = cas::BlockStore::load(path, {.deferGc = true});
  std::string error;
  check(loaded->verifyAll(&error), "reloaded store verifies: " + error);
  loaded->checkInvariants();
  for (const auto& [key, want] : shadow) {
    const auto slash = key.find('/');
    const std::string tenant = key.substr(0, slash);
    const std::string name = key.substr(slash + 1);
    check(loaded->get(tenant, name) == store.get(tenant, name),
          "reloaded object byte-identical: " + key);
  }
  std::filesystem::remove(path);
  return run;
}

int casMain(u64 seed, u32 rounds) {
  std::printf("chaos_soak(cas): seed=%llu rounds=%u\n",
              static_cast<unsigned long long>(seed), rounds);

  const CasRun first = runCasOnce(seed, rounds);
  const CasRun second = runCasOnce(seed, rounds);
  check(first == second,
        "store + compaction stats reproduce across two runs of the seed");
  check(first.compaction.sweeps == rounds, "every round swept once");
  check(first.compaction.migrated > 0,
        "the drill migrated at least one object to v3");
  check(first.compaction.chaosAborts > 0,
        "the seeded hook killed at least one sweep mid-compaction");
  check(first.staleRefusals > 0,
        "the drill exercised the stale-commit race");
  check(first.compaction.roundTripRejects == 0,
        "no migration failed its byte-exact proof");
  check(first.store.dedupRatio() > 1.5,
        "the repeated-timestep corpus dedups (ratio " +
            std::to_string(first.store.dedupRatio()) + ")");

  std::printf(
      "run: objects=%llu unique=%llu parked=%llu dedup=%.2fx "
      "migrated=%llu aborts=%llu stale_drops=%llu stale_refused=%llu "
      "resurrections=%llu gc_freed=%llu\n",
      static_cast<unsigned long long>(first.store.objects),
      static_cast<unsigned long long>(first.store.uniqueChunks),
      static_cast<unsigned long long>(first.store.parkedChunks),
      first.store.dedupRatio(),
      static_cast<unsigned long long>(first.compaction.migrated),
      static_cast<unsigned long long>(first.compaction.chaosAborts),
      static_cast<unsigned long long>(first.compaction.staleDrops),
      static_cast<unsigned long long>(first.staleRefusals),
      static_cast<unsigned long long>(first.store.resurrections),
      static_cast<unsigned long long>(first.store.gcFreedChunks));
  if (failures == 0) {
    std::printf("chaos_soak(cas): OK\n");
    return 0;
  }
  std::fprintf(stderr,
               "chaos_soak(cas): %d failure(s); replay with --cas --seed "
               "%llu\n",
               failures, static_cast<unsigned long long>(seed));
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  // Fix the simulated-device pool width before any stream exists: worker
  // wedges park one pool thread, and the drill needs spare threads so a
  // wedged grid still finishes.
  setenv("CUSZP2_WORKERS", "4", 1);

  u64 seed = 20260805;
  u32 jobsPerTenant = 6;
  u32 poisonJobs = 6;
  bool clusterMode = false;
  bool casMode = false;
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--jobs" && i + 1 < argc) {
      jobsPerTenant = static_cast<u32>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--fast") {
      fast = true;
      jobsPerTenant = 4;
      poisonJobs = 5;
    } else if (arg == "--cluster") {
      clusterMode = true;
    } else if (arg == "--cas") {
      casMode = true;
    } else {
      std::fprintf(stderr,
                   "usage: chaos_soak [--seed N] [--jobs N] [--fast] "
                   "[--cluster] [--cas]\n");
      return 2;
    }
  }

  if (casMode) {
    return casMain(seed, fast ? 12 : 30);
  }
  if (clusterMode) {
    return clusterMain(seed, fast ? 2 : std::min(jobsPerTenant, 4u));
  }

  const std::vector<JobSpec> specs = buildSpecs(jobsPerTenant, poisonJobs);
  const Forecast fc = forecast(seed, specs);
  std::printf("chaos_soak: seed=%llu jobs=%zu (poison=%u) injected=%llu "
              "stalls+wedges=%llu arena=%llu\n",
              static_cast<unsigned long long>(seed), specs.size(), poisonJobs,
              static_cast<unsigned long long>(fc.injected),
              static_cast<unsigned long long>(fc.stallsAndWedges),
              static_cast<unsigned long long>(fc.arenaFaults));

  const RunCounters first = runOnce(seed, specs);
  const RunCounters second = runOnce(seed, specs);
  check(first == second,
        "recovery counters reproduce across two runs of the same seed");
  if (!(first == second)) {
    const auto row = [](const char* name, u64 a, u64 b) {
      if (a != b) {
        std::fprintf(stderr, "  %s: %llu vs %llu\n", name,
                     static_cast<unsigned long long>(a),
                     static_cast<unsigned long long>(b));
      }
    };
    row("completed", first.completed, second.completed);
    row("failed", first.failed, second.failed);
    row("degraded", first.degraded, second.degraded);
    row("abandoned", first.abandoned, second.abandoned);
    row("recoveries", first.recoveries, second.recoveries);
    row("retries", first.retries, second.retries);
    row("retriesExhausted", first.retriesExhausted, second.retriesExhausted);
    row("breakerOpens", first.breakerOpens, second.breakerOpens);
    row("chaosInjected", first.chaosInjected, second.chaosInjected);
    row("rejectedCircuitOpen", first.rejectedCircuitOpen,
        second.rejectedCircuitOpen);
    row("streamFaultsDetected", first.streamFaultsDetected,
        second.streamFaultsDetected);
    row("streamFaultRelaunches", first.streamFaultRelaunches,
        second.streamFaultRelaunches);
  }

  std::printf(
      "run: completed=%llu degraded=%llu recoveries=%llu retries=%llu "
      "exhausted=%llu breaker_opens=%llu chaos=%llu stream_faults=%llu "
      "stream_relaunches=%llu\n",
      static_cast<unsigned long long>(first.completed),
      static_cast<unsigned long long>(first.degraded),
      static_cast<unsigned long long>(first.recoveries),
      static_cast<unsigned long long>(first.retries),
      static_cast<unsigned long long>(first.retriesExhausted),
      static_cast<unsigned long long>(first.breakerOpens),
      static_cast<unsigned long long>(first.chaosInjected),
      static_cast<unsigned long long>(first.streamFaultsDetected),
      static_cast<unsigned long long>(first.streamFaultRelaunches));
  if (failures == 0) {
    std::printf("chaos_soak: OK\n");
    return 0;
  }
  std::fprintf(stderr, "chaos_soak: %d failure(s); replay with --seed %llu\n",
               failures, static_cast<unsigned long long>(seed));
  return 1;
}
