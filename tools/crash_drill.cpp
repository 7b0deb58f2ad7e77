// crash_drill — exhaustive crash-point enumeration for the durability
// stack (docs/DURABILITY.md).
//
// Store leg: a scripted churn workload (puts, rewrites, erases, gc,
// compaction commits, drill corruption, mid-script snapshots) runs over a
// journaled BlockStore. A counting pass learns how many operations pass
// each crash site (journal flushes, sync barriers, atomic-save renames,
// directory syncs); the drill then re-runs the workload once per
// enumerated (site, ordinal, mode) with a seeded CrashPlan armed, catches
// the simulated process death, and recovers from exactly the bytes the
// "dead" process left behind. After every single crash point:
//
//   * BlockStore::recover succeeds (only a damaged journal *header* may
//     refuse, and the drill never damages headers);
//   * the recovered store passes checkInvariants() and verifyAll();
//   * every ACKNOWLEDGED operation is present — an acked put/rewrite
//     reads back byte-identical, an acked erase stays erased. The one
//     in-flight operation may be present or absent (it was never acked),
//     but whichever way it landed the store still reads consistently;
//   * the resumed journal accepts new acknowledged work.
//
// Service leg: the same treatment for durable intake. A crafted job
// journal (accepts for jobs 1..3, a resolve for job 2, a garbage tail)
// must replay exactly jobs {1, 3} — exactly-once, original order, outputs
// byte-identical to a fault-free serial run — and a second restart must
// replay nothing. Then every journal crash point of a live submission
// burst is enumerated: the disk image at death is copied aside, a
// restarted service replays exactly the accepted-but-unresolved jobs from
// that image, and every replayed ticket completes with the reference
// bytes.
//
// The whole drill runs twice with the same seed and the two fingerprints
// (recovery reports, recovered-store stats, object CRCs, replay sets)
// must be bit-identical.
//
//   usage: crash_drill [--seed N] [--fast]
//
// Exit 0 when every invariant held at every crash point; 1 otherwise,
// printing the seed needed to replay the failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <unistd.h>

#include "cas/block_store.hpp"
#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/crash.hpp"
#include "io/journal.hpp"
#include "service/durability.hpp"
#include "service/service.hpp"

using namespace cuszp2;

namespace {

int failures = 0;

void check(bool ok, const std::string& what) {
  if (ok) return;
  std::fprintf(stderr, "FAIL: %s\n", what.c_str());
  ++failures;
}

struct DrillTotals {
  u64 crashPoints = 0;
  u64 tornTails = 0;
  u64 replayedRecords = 0;
  u64 discardedBytes = 0;
  u64 serviceReplays = 0;
};

/// FNV-style fold for the run fingerprint.
struct Fingerprint {
  u64 fp = 0xcbf29ce484222325ull;
  void mix(u64 v) {
    fp ^= v;
    fp *= 0x100000001b3ull;
  }
};

std::string scratchDir(const std::string& leg, u64 seed) {
  return (std::filesystem::temp_directory_path() /
          ("crash_drill_" + std::to_string(::getpid()) + "_" + leg + "_" +
           std::to_string(seed)))
      .string();
}

void resetDir(const std::string& dir) {
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
}

// ---------------------------------------------------------------------
// Store leg

struct Corpus {
  std::vector<std::vector<std::byte>> blobs;
  std::vector<std::vector<std::byte>> streams;  ///< hot v1/v2 encodings
};

Corpus buildCorpus(u64 seed) {
  Corpus c;
  for (u32 i = 0; i < 4; ++i) {
    std::vector<std::byte> b(3000 + 900 * i);
    SplitMix64 mix(seed ^ (i + 1));
    for (auto& x : b) x = static_cast<std::byte>(mix.next() & 0xFF);
    c.blobs.push_back(std::move(b));
  }
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  core::CompressorStream codec(cfg);
  for (u32 i = 0; i < 2; ++i) {
    const auto field = datagen::generateF32("cesm_atm", i, 2048);
    c.streams.push_back(codec.compress<f32>(std::span<const f32>(field)).stream);
  }
  return c;
}

cas::StoreConfig storeCfg() {
  return {.chunkBytes = 1024, .deferGc = true};
}

enum class OpKind { Put, PutStream, Erase, Gc, Compact, Save, Corrupt };

/// Fixed op-kind sequence (parameters are seeded): every durability
/// surface appears — rewrites, erases, gc, compaction commits, drill
/// corruption, and two mid-script snapshots so the journal-reset window
/// and the tick-skip rule both get crash points.
std::vector<OpKind> churnScript(bool fast) {
  using K = OpKind;
  if (fast) {
    return {K::Put,  K::Put,     K::PutStream, K::Erase, K::Gc,  K::Compact,
            K::Save, K::Put,     K::Corrupt,   K::Erase, K::Put, K::Gc};
  }
  return {K::Put,     K::Put,  K::PutStream, K::Put,     K::Erase, K::Put,
          K::Gc,      K::Compact, K::Put,    K::Save,    K::Put,   K::Corrupt,
          K::Erase,   K::Put,  K::Gc,        K::PutStream, K::Compact, K::Put,
          K::Erase,   K::Save, K::Put,       K::Gc,      K::Corrupt, K::Put};
}

/// What the "process" had acknowledged when it died.
struct ChurnOutcome {
  std::map<std::string, std::vector<std::byte>> acked;  ///< key -> bytes
  std::vector<std::string> erased;                      ///< acked erases
  std::string pendingKind;  ///< op in flight at the crash ("" = completed)
  std::string pendingKey;
  bool crashed = false;
};

std::pair<std::string, std::string> splitKey(const std::string& key) {
  const auto slash = key.find('/');
  return {key.substr(0, slash), key.substr(slash + 1)};
}

/// Runs the scripted churn. Deterministic in `seed`: every rng draw
/// happens on the same schedule whether or not a crash plan is armed, so
/// run N with a crash at op K is a byte-exact prefix of the clean run.
ChurnOutcome runChurn(u64 seed, bool fast, const Corpus& corpus,
                      const std::string& indexPath,
                      const std::string& journalPath) {
  ChurnOutcome out;
  Rng rng(seed);
  const char* tenants[] = {"climate", "cosmo", "fusion"};
  auto store = std::make_unique<cas::BlockStore>(storeCfg());

  const auto pickAcked = [&]() -> std::string {
    auto it = out.acked.begin();
    std::advance(it, static_cast<long>(rng.uniformInt(out.acked.size())));
    return it->first;
  };

  try {
    out.pendingKind = "attach";
    out.pendingKey = journalPath;
    store->attachJournal(journalPath);
    out.pendingKind.clear();
    out.pendingKey.clear();

    for (OpKind op : churnScript(fast)) {
      switch (op) {
        case OpKind::Put: {
          const std::string tenant = tenants[rng.uniformInt(3)];
          const std::string name = "blob-" + std::to_string(rng.uniformInt(4));
          const auto& payload = corpus.blobs[rng.uniformInt(corpus.blobs.size())];
          out.pendingKind = "put";
          out.pendingKey = tenant + "/" + name;
          store->put(tenant, name, ConstByteSpan(payload));
          out.acked[out.pendingKey] = payload;
          break;
        }
        case OpKind::PutStream: {
          const std::string tenant = tenants[rng.uniformInt(3)];
          const std::string name = "step-" + std::to_string(rng.uniformInt(2));
          const auto& payload =
              corpus.streams[rng.uniformInt(corpus.streams.size())];
          out.pendingKind = "put";
          out.pendingKey = tenant + "/" + name;
          store->put(tenant, name, ConstByteSpan(payload));
          out.acked[out.pendingKey] = payload;
          break;
        }
        case OpKind::Erase: {
          if (out.acked.empty()) break;
          const std::string key = pickAcked();
          const auto [tenant, name] = splitKey(key);
          out.pendingKind = "erase";
          out.pendingKey = key;
          store->erase(tenant, name);
          out.erased.push_back(key);
          out.acked.erase(key);
          break;
        }
        case OpKind::Gc: {
          out.pendingKind = "gc";
          out.pendingKey.clear();
          store->gc();
          break;
        }
        case OpKind::Compact: {
          const auto cands = store->compactionCandidates(0, 1);
          if (cands.empty()) break;
          const auto& c = cands.front();
          out.pendingKind = "compact";
          out.pendingKey = c.tenant + "/" + c.name;
          store->commitCompaction(c.tenant, c.name, ConstByteSpan(c.bytes),
                                  c.generation);
          break;  // identical bytes: the acked content is unchanged
        }
        case OpKind::Save: {
          out.pendingKind = "save";
          out.pendingKey = indexPath;
          store->save(indexPath);
          break;
        }
        case OpKind::Corrupt: {
          if (out.acked.empty()) break;
          const std::string key = pickAcked();
          const auto [tenant, name] = splitKey(key);
          const usize offset = rng.uniformInt(out.acked[key].size());
          out.pendingKind = "corrupt";
          out.pendingKey = key;
          store->corruptForDrill(tenant, name, offset);
          out.acked[key] = store->get(tenant, name);
          break;
        }
      }
      out.pendingKind.clear();
      out.pendingKey.clear();
    }
  } catch (const io::CrashError&) {
    out.crashed = true;
  }
  return out;
}

/// Recovers from the crashed run's disk image and asserts the durability
/// contract. Returns the recovered-state contribution to the fingerprint.
void recoverAndCheck(const ChurnOutcome& out, const std::string& indexPath,
                     const std::string& journalPath, const Corpus& corpus,
                     const std::string& tag, DrillTotals& totals,
                     Fingerprint& fp) {
  std::unique_ptr<cas::BlockStore> store;
  cas::RecoveryReport rep;
  if (!std::filesystem::exists(journalPath)) {
    // The crash hit the journal attach itself — nothing could have been
    // acknowledged, and the snapshot (if any) is the whole truth.
    check(out.acked.empty(), tag + ": no op can be acked before the journal");
    store = std::filesystem::exists(indexPath)
                ? cas::BlockStore::load(indexPath, storeCfg())
                : std::make_unique<cas::BlockStore>(storeCfg());
  } else {
    try {
      store = cas::BlockStore::recover(indexPath, journalPath, storeCfg(),
                                       &rep);
    } catch (const Error& e) {
      check(false, tag + ": recovery must succeed at every injected "
                         "crash point: " + e.what());
      return;
    }
  }

  try {
    store->checkInvariants();
  } catch (const Error& e) {
    check(false, tag + ": recovered store invariants: " + e.what());
  }
  std::string err;
  check(store->verifyAll(&err), tag + ": recovered store verifies: " + err);

  for (const auto& [key, bytes] : out.acked) {
    const auto [tenant, name] = splitKey(key);
    if (key == out.pendingKey) {
      // The in-flight (never acked) op targeted this key; it may have
      // become durable or not, but either state must read consistently.
      if (store->contains(tenant, name)) store->get(tenant, name);
      continue;
    }
    check(store->contains(tenant, name), tag + ": acked object present: " + key);
    if (store->contains(tenant, name)) {
      check(store->get(tenant, name) == bytes,
            tag + ": acked bytes intact: " + key);
      fp.mix(store->crcOf(tenant, name));
    }
  }
  for (const std::string& key : out.erased) {
    if (out.acked.count(key) != 0) continue;  // re-put after the erase
    if (key == out.pendingKey) continue;      // in-flight re-put may land
    const auto [tenant, name] = splitKey(key);
    check(!store->contains(tenant, name), tag + ": acked erase holds: " + key);
  }

  // The resumed journal must acknowledge new work.
  store->put("post", "recovery", ConstByteSpan(corpus.blobs[0]));
  check(store->get("post", "recovery") == corpus.blobs[0],
        tag + ": post-recovery put serves");
  if (std::filesystem::exists(journalPath)) {
    check(store->journalStatus().attached, tag + ": journal resumed");
  }

  const cas::StoreStats s = store->stats();
  fp.mix(s.objects);
  fp.mix(s.uniqueChunks);
  fp.mix(s.logicalBytes);
  fp.mix(s.physicalBytes);
  fp.mix(s.puts);
  fp.mix(s.erases);
  fp.mix(s.gcFreedChunks);
  fp.mix(s.resurrections);
  fp.mix(rep.snapshotLoaded);
  fp.mix(rep.snapshotTick);
  fp.mix(rep.journalRecords);
  fp.mix(rep.replayedRecords);
  fp.mix(rep.skippedRecords);
  fp.mix(rep.tornTail);
  fp.mix(rep.discardedBytes);

  totals.tornTails += rep.tornTail ? 1 : 0;
  totals.replayedRecords += rep.replayedRecords;
  totals.discardedBytes += rep.discardedBytes;
}

void storeDrill(u64 seed, bool fast, DrillTotals& totals, Fingerprint& fp) {
  const Corpus corpus = buildCorpus(seed);
  const std::string dir = scratchDir("store", seed);
  const std::string indexPath = dir + "/store.cas";
  const std::string journalPath = indexPath + ".jnl";

  const io::CrashSite sites[] = {io::CrashSite::Write, io::CrashSite::Sync,
                                 io::CrashSite::Rename,
                                 io::CrashSite::DirSync};

  // Counting pass: how many operations reach each crash site.
  std::map<io::CrashSite, u64> points;
  for (io::CrashSite site : sites) {
    resetDir(dir);
    io::startCrashCounting(site, "");
    const ChurnOutcome base =
        runChurn(seed, fast, corpus, indexPath, journalPath);
    points[site] = io::stopCrashCounting();
    check(!base.crashed, "counting pass must not crash");
    check(points[site] > 0,
          std::string("workload passes site ") + toString(site));
  }

  for (io::CrashSite site : sites) {
    const std::vector<io::CrashMode> modes =
        site == io::CrashSite::Write
            ? std::vector<io::CrashMode>{io::CrashMode::Tear,
                                         io::CrashMode::Truncate,
                                         io::CrashMode::Drop}
            // Barrier sites persist nothing by definition; the mode is
            // irrelevant, so enumerate each ordinal once.
            : std::vector<io::CrashMode>{io::CrashMode::Drop};
    std::fprintf(stderr, "  store site %s: %llu points\n", toString(site),
                 static_cast<unsigned long long>(points[site]));
    for (u64 op = 0; op < points[site]; ++op) {
      for (io::CrashMode mode : modes) {
        const std::string tag = "store crash(" + std::string(toString(site)) +
                                "," + toString(mode) + "," +
                                std::to_string(op) + ")";
        resetDir(dir);
        io::CrashPlan plan;
        plan.seed = seed;
        plan.site = site;
        plan.mode = mode;
        plan.triggerOp = op;
        io::installCrashPlan(plan);
        const ChurnOutcome out =
            runChurn(seed, fast, corpus, indexPath, journalPath);
        io::clearCrashPlan();
        check(out.crashed, tag + ": the armed plan fired");
        recoverAndCheck(out, indexPath, journalPath, corpus, tag, totals, fp);
        ++totals.crashPoints;
      }
    }
  }

  // A clean (uncrashed) run must also recover: the journal tail after the
  // last snapshot replays with nothing torn.
  resetDir(dir);
  const ChurnOutcome clean =
      runChurn(seed, fast, corpus, indexPath, journalPath);
  check(!clean.crashed, "clean run does not crash");
  recoverAndCheck(clean, indexPath, journalPath, corpus, "store clean-run",
                  totals, fp);

  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Service leg

std::vector<std::byte> toBytes(const std::vector<f32>& v) {
  std::vector<std::byte> bytes(v.size() * sizeof(f32));
  if (!bytes.empty()) std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

core::Config jobConfig() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = true;
  return cfg;
}

service::ServiceConfig durableServiceConfig(const std::string& journalPath) {
  service::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  sc.jobJournalPath = journalPath;
  return sc;
}

/// Crafted-journal restart: the spec case from docs/DURABILITY.md.
void serviceCraftedJournal(u64 seed, u32 jobs, DrillTotals& totals,
                           Fingerprint& fp) {
  const std::string dir = scratchDir("svc_crafted", seed);
  resetDir(dir);
  const std::string jpath = dir + "/jobs.jnl";
  const core::Config cfg = jobConfig();
  core::CompressorStream ref(cfg);

  std::vector<std::vector<f32>> fields;
  std::vector<std::vector<std::byte>> expected;
  for (u32 i = 0; i < jobs; ++i) {
    fields.push_back(datagen::generateF32("cesm_atm", i, 2048));
    expected.push_back(
        ref.compress<f32>(std::span<const f32>(fields.back())).stream);
  }

  {
    io::JournalWriter w(jpath, service::kJobJournalOwnerTag, 0);
    for (u32 i = 0; i < jobs; ++i) {
      service::JobAcceptRecord acc;
      acc.jobId = i + 1;
      acc.tenant = "climate";
      acc.kind = service::JobKind::Compress;
      acc.precision = Precision::F32;
      acc.config = cfg;
      acc.input = toBytes(fields[i]);
      const auto payload = service::encodeJobAccept(acc);
      w.append(service::kJobRecordAccept, ConstByteSpan(payload));
    }
    // Job 2 resolved before the "crash": it must NOT replay.
    const auto resolved =
        service::encodeJobResolve(2, service::Outcome::Completed);
    w.append(service::kJobRecordResolve, ConstByteSpan(resolved));
    w.sync();
  }
  {
    // Torn tail: seeded garbage after the valid records, as a crash
    // mid-append would leave. Replay must discard it silently.
    std::FILE* f = std::fopen(jpath.c_str(), "ab");
    SplitMix64 mix(seed);
    std::vector<std::byte> junk(37);
    for (auto& b : junk) b = static_cast<std::byte>(mix.next() & 0xFF);
    std::fwrite(junk.data(), 1, junk.size(), f);
    std::fclose(f);
  }

  {
    service::CompressionService svc(durableServiceConfig(jpath));
    const auto& replayed = svc.replayedJobs();
    check(replayed.size() == jobs - 1,
          "crafted journal replays every unresolved job (" +
              std::to_string(replayed.size()) + " of " +
              std::to_string(jobs - 1) + ")");
    std::set<u64> want;
    for (u32 i = 0; i < jobs; ++i) {
      if (i + 1 != 2) want.insert(i + 1);
    }
    u64 prev = 0;
    for (const service::ReplayedJob& rj : replayed) {
      check(want.count(rj.originalJobId) == 1,
            "replayed id " + std::to_string(rj.originalJobId) + " expected");
      check(rj.originalJobId > prev, "replay preserves original id order");
      prev = rj.originalJobId;
    }
    svc.resume();
    for (const service::ReplayedJob& rj : replayed) {
      check(rj.ticket.waitFor(std::chrono::seconds(120)),
            "replayed job " + std::to_string(rj.originalJobId) + " resolves");
      const service::JobResult& r = rj.ticket.result();
      check(r.outcome == service::Outcome::Completed,
            "replayed job " + std::to_string(rj.originalJobId) + " completes");
      check(r.compressed.stream == expected[rj.originalJobId - 1],
            "replayed job " + std::to_string(rj.originalJobId) +
                " output byte-identical to the fault-free run");
      fp.mix(rj.originalJobId);
      totals.serviceReplays += 1;
    }
    check(svc.jobJournalStatus().attached, "job journal attached after replay");
    svc.shutdown();
    fp.mix(svc.stats().completed);
  }
  {
    // Exactly-once: the journal now carries the superseding accepts and
    // their resolves — a second restart replays nothing.
    service::CompressionService svc(durableServiceConfig(jpath));
    check(svc.replayedJobs().empty(),
          "second restart replays nothing (exactly-once)");
    svc.shutdown();
  }
  std::filesystem::remove_all(dir);
}

struct BurstOutcome {
  std::vector<u64> ackedIds;  ///< ids whose submit returned a ticket
  bool crashed = false;
};

/// One "process life": construct a durable service, submit `jobs`
/// compress jobs, drain, shut down. A CrashError anywhere aborts the life
/// exactly where a real death would.
BurstOutcome runServiceBurst(const std::string& jpath,
                             const std::vector<std::vector<f32>>& fields) {
  BurstOutcome out;
  std::optional<service::CompressionService> svc;
  std::vector<service::Ticket> tickets;
  try {
    svc.emplace(durableServiceConfig(jpath));
    const core::Config cfg = jobConfig();
    for (const auto& field : fields) {
      service::SubmitResult r = svc->submitCompress<f32>(
          "climate", std::span<const f32>(field), cfg);
      check(r.accepted(), "burst submission accepted");
      out.ackedIds.push_back(r.ticket.id());
      tickets.push_back(r.ticket);
    }
    svc->resume();
    for (const service::Ticket& t : tickets) t.waitFor(std::chrono::seconds(120));
    svc->shutdown();
  } catch (const io::CrashError&) {
    out.crashed = true;
  }
  return out;
}

/// Enumerates every journal crash point of the burst. The journal file is
/// copied aside at the moment of death (the still-live service object
/// keeps appending while its destructor drains), and recovery runs from
/// that copy — exactly the bytes a rebooted machine would see.
void serviceCrashPoints(u64 seed, bool fast, DrillTotals& totals,
                        Fingerprint& fp) {
  const std::string dir = scratchDir("svc_burst", seed);
  const std::string jpath = dir + "/jobs.jnl";
  const std::string image = dir + "/jobs.crash-image.jnl";
  const u32 jobs = fast ? 2 : 4;
  const core::Config cfg = jobConfig();
  core::CompressorStream ref(cfg);

  std::vector<std::vector<f32>> fields;
  std::vector<std::vector<std::byte>> expected;
  for (u32 i = 0; i < jobs; ++i) {
    fields.push_back(datagen::generateF32("hacc", i, 2048));
    expected.push_back(
        ref.compress<f32>(std::span<const f32>(fields.back())).stream);
  }

  const io::CrashSite sites[] = {io::CrashSite::Write, io::CrashSite::Sync,
                                 io::CrashSite::Rename,
                                 io::CrashSite::DirSync};
  std::map<io::CrashSite, u64> points;
  for (io::CrashSite site : sites) {
    resetDir(dir);
    io::startCrashCounting(site, jpath);
    const BurstOutcome base = runServiceBurst(jpath, fields);
    points[site] = io::stopCrashCounting();
    check(!base.crashed, "service counting pass must not crash");
  }

  for (io::CrashSite site : sites) {
    const std::vector<io::CrashMode> modes =
        site == io::CrashSite::Write
            ? std::vector<io::CrashMode>{io::CrashMode::Tear,
                                         io::CrashMode::Drop}
            : std::vector<io::CrashMode>{io::CrashMode::Drop};
    std::fprintf(stderr, "  service site %s: %llu points\n", toString(site),
                 static_cast<unsigned long long>(points[site]));
    for (u64 op = 0; op < points[site]; ++op) {
      for (io::CrashMode mode : modes) {
        const std::string tag = "service crash(" +
                                std::string(toString(site)) + "," +
                                toString(mode) + "," + std::to_string(op) +
                                ")";
        resetDir(dir);
        io::CrashPlan plan;
        plan.seed = seed;
        plan.pathPattern = jpath;
        plan.site = site;
        plan.mode = mode;
        plan.triggerOp = op;
        io::installCrashPlan(plan);
        BurstOutcome out;
        {
          out = runServiceBurst(jpath, fields);
          // The image must be captured before anything else touches the
          // journal; runServiceBurst destroyed the service already (its
          // drain may have appended past the torn point — those bytes
          // are discarded at replay, exactly like a real crash).
          if (std::filesystem::exists(jpath)) {
            std::filesystem::copy_file(
                jpath, image,
                std::filesystem::copy_options::overwrite_existing);
          }
        }
        io::clearCrashPlan();
        check(io::crashPlanArmed() == false, tag + ": plan cleared");

        if (!std::filesystem::exists(image)) {
          // Death during the journal's own header creation: nothing was
          // acked, nothing to recover.
          check(out.ackedIds.empty(),
                tag + ": no job can be acked before the journal exists");
          ++totals.crashPoints;
          continue;
        }

        // Decode the image directly: every acked accept must be durable.
        io::ReplayResult replay;
        try {
          replay = io::replayJournal(image);
        } catch (const Error& e) {
          check(false, tag + ": crash image must replay: " + e.what());
          continue;
        }
        const service::JobJournalSummary summary =
            service::summarizeJobJournal(replay);
        std::set<u64> durableAccepts;
        for (const io::JournalRecord& rec : replay.records) {
          if (rec.type == service::kJobRecordAccept) {
            durableAccepts.insert(
                service::decodeJobAccept(ConstByteSpan(rec.payload)).jobId);
          }
        }
        for (u64 id : out.ackedIds) {
          check(durableAccepts.count(id) == 1,
                tag + ": acked accept " + std::to_string(id) + " is durable");
        }

        // Restart from the image: the constructor must replay exactly the
        // accepted-but-unresolved set, and every replayed job must finish
        // with the reference bytes.
        service::CompressionService svc(durableServiceConfig(image));
        const auto& replayed = svc.replayedJobs();
        check(replayed.size() == summary.pending.size(),
              tag + ": replay count matches the journal's pending set");
        svc.resume();
        for (const service::ReplayedJob& rj : replayed) {
          check(rj.ticket.waitFor(std::chrono::seconds(120)),
                tag + ": replayed job resolves");
          const service::JobResult& r = rj.ticket.result();
          check(r.outcome == service::Outcome::Completed,
                tag + ": replayed job completes");
          const usize idx = static_cast<usize>(rj.originalJobId - 1);
          check(idx < expected.size() &&
                    r.compressed.stream == expected[idx],
                tag + ": replayed output byte-identical");
          totals.serviceReplays += 1;
        }
        svc.shutdown();
        fp.mix(replayed.size());
        fp.mix(summary.accepts);
        fp.mix(summary.resolves);
        fp.mix(replay.torn);
        ++totals.crashPoints;
      }
    }
  }
  std::filesystem::remove_all(dir);
}

u64 drillOnce(u64 seed, bool fast, DrillTotals& totals) {
  Fingerprint fp;
  std::fprintf(stderr, "crash_drill: store leg...\n");
  storeDrill(seed, fast, totals, fp);
  std::fprintf(stderr, "crash_drill: service crafted-journal leg...\n");
  serviceCraftedJournal(seed, fast ? 2 : 3, totals, fp);
  std::fprintf(stderr, "crash_drill: service crash-point leg...\n");
  serviceCrashPoints(seed, fast, totals, fp);
  return fp.fp;
}

}  // namespace

int main(int argc, char** argv) {
  u64 seed = 20260809;
  bool fast = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--seed" && i + 1 < argc) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--fast") {
      fast = true;
    } else {
      std::fprintf(stderr, "usage: crash_drill [--seed N] [--fast]\n");
      return 2;
    }
  }

  std::printf("crash_drill: seed=%llu%s\n",
              static_cast<unsigned long long>(seed), fast ? " (fast)" : "");

  DrillTotals first, second;
  const u64 fp1 = drillOnce(seed, fast, first);
  const u64 fp2 = drillOnce(seed, fast, second);
  check(fp1 == fp2,
        "two same-seed drill runs produce bit-identical fingerprints");
  check(first.crashPoints == second.crashPoints,
        "two same-seed drill runs enumerate the same crash points");
  check(first.crashPoints > 0, "the drill enumerated crash points");
  check(first.tornTails > 0,
        "at least one crash point produced a torn tail the replay discarded");
  check(first.replayedRecords > 0,
        "at least one recovery replayed journal records");
  check(first.serviceReplays > 0,
        "at least one restarted service replayed a pending job");

  std::printf(
      "run: crash_points=%llu torn_tails=%llu replayed_records=%llu "
      "discarded_bytes=%llu service_replays=%llu fingerprint=%016llx\n",
      static_cast<unsigned long long>(first.crashPoints),
      static_cast<unsigned long long>(first.tornTails),
      static_cast<unsigned long long>(first.replayedRecords),
      static_cast<unsigned long long>(first.discardedBytes),
      static_cast<unsigned long long>(first.serviceReplays),
      static_cast<unsigned long long>(fp1));
  if (failures == 0) {
    std::printf("crash_drill: OK\n");
    return 0;
  }
  std::fprintf(stderr, "crash_drill: %d failure(s); replay with --seed %llu\n",
               failures, static_cast<unsigned long long>(seed));
  return 1;
}
