// Crash-consistent durability (docs/DURABILITY.md): the write-ahead
// journal's wire format and torn-tail tolerance, the seeded crash
// injector's purity, the hardened atomic-write primitive, BlockStore
// snapshot+tail recovery, and exactly-once durable service intake
// (including cluster shard journals).
//
// The load-bearing acceptance tests are:
//   * TornTail* — truncated, zero-filled, and garbage suffixes are all
//     discarded at replay, never fatal, with every intact record kept;
//   * BadHeaderIsUnrecoverable — only a damaged header refuses replay;
//   * ConcurrentWritersToOneDestination — the unique-temp-name regression
//     for io::writeBytesAtomic (the old fixed ".tmp" suffix let two
//     writers rename each other's half-written files);
//   * RecoverReplaysTailOntoSnapshot / RecoverSkipsSnapshotCovered… —
//     the tick-skip rule: records the snapshot already covers are
//     skipped, records after it replay, whichever side of the
//     snapshot-rename/journal-reset window a crash lands on;
//   * ServiceReplaysExactlyOnce — a restarted service re-runs exactly
//     the accepted-but-unresolved jobs, byte-identical, and a second
//     restart replays nothing;
//   * ClusterShardRecoversJournalBeforeJoining — a shard with a pending
//     journal replays it during construction, before ring membership.
//
// tools/crash_drill enumerates every crash point exhaustively; these
// tests pin the individual contracts.
#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "cas/block_store.hpp"
#include "cluster/cluster.hpp"
#include "common/error.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/crash.hpp"
#include "io/journal.hpp"
#include "io/raw.hpp"
#include "service/durability.hpp"
#include "service/service.hpp"

using namespace cuszp2;

namespace {

/// Unique scratch directory; removed by the guard.
struct TempDir {
  std::string path;
  explicit TempDir(const std::string& stem)
      : path((std::filesystem::temp_directory_path() /
              (stem + "-" + std::to_string(::getpid()) + "-" +
               std::to_string(counter++)))
                 .string()) {
    std::filesystem::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path, ec);
  }
  std::string file(const std::string& name) const { return path + "/" + name; }
  static inline int counter = 0;
};

std::vector<std::byte> bytesOf(const std::string& s) {
  const auto* p = reinterpret_cast<const std::byte*>(s.data());
  return {p, p + s.size()};
}

void appendRaw(const std::string& path, const std::vector<std::byte>& bytes) {
  std::FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, bytes.size(), f);
  std::fclose(f);
}

usize fileSize(const std::string& path) {
  return static_cast<usize>(std::filesystem::file_size(path));
}

// ---------------------------------------------------------------------
// Journal wire format

TEST(Journal, RoundTripPreservesRecordsAndIdentity) {
  TempDir dir("jnl-roundtrip");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, /*ownerTag=*/7, /*baseTick=*/5);
    w.append(1, ConstByteSpan(bytesOf("hello")));
    w.append(2, ConstByteSpan());
    w.sync();
    EXPECT_EQ(w.recordsAppended(), 2u);
    EXPECT_EQ(w.recordsSynced(), 2u);
  }
  const io::ReplayResult replay = io::replayJournal(path);
  EXPECT_EQ(replay.ownerTag, 7u);
  EXPECT_EQ(replay.baseTick, 5u);
  ASSERT_EQ(replay.records.size(), 2u);
  EXPECT_EQ(replay.records[0].type, 1u);
  EXPECT_EQ(replay.records[0].payload, bytesOf("hello"));
  EXPECT_EQ(replay.records[1].type, 2u);
  EXPECT_TRUE(replay.records[1].payload.empty());
  EXPECT_FALSE(replay.torn);
  EXPECT_EQ(replay.discardedBytes, 0u);
}

TEST(Journal, UnsyncedRecordsAreHonestlyLost) {
  TempDir dir("jnl-unsynced");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, 1, 0);
    w.append(1, ConstByteSpan(bytesOf("durable")));
    w.sync();
    w.append(1, ConstByteSpan(bytesOf("never synced")));
    EXPECT_EQ(w.recordsAppended(), 2u);
    EXPECT_EQ(w.recordsSynced(), 1u);
  }  // destructor drops the unsynced suffix
  const io::ReplayResult replay = io::replayJournal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, bytesOf("durable"));
  EXPECT_FALSE(replay.torn);
}

TEST(Journal, TornTailTruncatedMidRecord) {
  TempDir dir("jnl-torn-trunc");
  const std::string path = dir.file("a.jnl");
  usize afterFirst = 0;
  {
    io::JournalWriter w(path, 1, 0);
    w.append(1, ConstByteSpan(bytesOf("first record")));
    w.sync();
    afterFirst = fileSize(path);
    w.append(1, ConstByteSpan(bytesOf("second record")));
    w.sync();
  }
  // Cut the last record three bytes short — a mid-write power cut.
  std::filesystem::resize_file(path, fileSize(path) - 3);
  const io::ReplayResult replay = io::replayJournal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, bytesOf("first record"));
  EXPECT_TRUE(replay.torn);
  EXPECT_EQ(replay.validBytes, afterFirst);
  EXPECT_GT(replay.discardedBytes, 0u);
}

TEST(Journal, TornTailZeroFilled) {
  TempDir dir("jnl-torn-zero");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, 1, 0);
    w.append(3, ConstByteSpan(bytesOf("kept")));
    w.sync();
  }
  // A zero-filled tail cannot frame a record (kRecordMagic is nonzero).
  appendRaw(path, std::vector<std::byte>(64, std::byte{0}));
  const io::ReplayResult replay = io::replayJournal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_TRUE(replay.torn);
  EXPECT_EQ(replay.discardedBytes, 64u);
}

TEST(Journal, TornTailGarbage) {
  TempDir dir("jnl-torn-garbage");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, 1, 0);
    w.append(3, ConstByteSpan(bytesOf("kept")));
    w.sync();
  }
  std::vector<std::byte> junk(41);
  for (usize i = 0; i < junk.size(); ++i) {
    junk[i] = static_cast<std::byte>((i * 37 + 11) & 0xFF);
  }
  appendRaw(path, junk);
  const io::ReplayResult replay = io::replayJournal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, bytesOf("kept"));
  EXPECT_TRUE(replay.torn);
  EXPECT_EQ(replay.discardedBytes, junk.size());
}

TEST(Journal, CorruptPayloadCrcStopsReplayAtTheBadFrame) {
  TempDir dir("jnl-crc");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, 1, 0);
    w.append(1, ConstByteSpan(bytesOf("good")));
    w.append(1, ConstByteSpan(bytesOf("soon bad")));
    w.sync();
  }
  // Flip one payload byte of the LAST record.
  std::vector<std::byte> bytes = io::readBytes(path);
  bytes.back() ^= std::byte{0x40};
  io::writeBytes(path, ConstByteSpan(bytes));
  const io::ReplayResult replay = io::replayJournal(path);
  ASSERT_EQ(replay.records.size(), 1u);
  EXPECT_EQ(replay.records[0].payload, bytesOf("good"));
  EXPECT_TRUE(replay.torn);
}

TEST(Journal, BadHeaderIsUnrecoverable) {
  TempDir dir("jnl-header");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, 1, 0);
    w.append(1, ConstByteSpan(bytesOf("x")));
    w.sync();
  }
  std::vector<std::byte> bytes = io::readBytes(path);
  bytes[10] ^= std::byte{0xFF};  // inside the ownerTag field
  io::writeBytes(path, ConstByteSpan(bytes));
  EXPECT_THROW(io::replayJournal(path), Error);

  // A header shorter than the fixed frame is equally unrecoverable.
  const std::string shortPath = dir.file("short.jnl");
  io::writeBytes(shortPath, ConstByteSpan(bytesOf("JNL")));
  EXPECT_THROW(io::replayJournal(shortPath), Error);
}

TEST(Journal, ResumeTruncatesTornTailAndAppends) {
  TempDir dir("jnl-resume");
  const std::string path = dir.file("a.jnl");
  {
    io::JournalWriter w(path, 9, 4);
    w.append(1, ConstByteSpan(bytesOf("one")));
    w.sync();
  }
  appendRaw(path, std::vector<std::byte>(17, std::byte{0xAB}));  // torn tail
  const io::ReplayResult before = io::replayJournal(path);
  ASSERT_TRUE(before.torn);
  {
    auto w = io::JournalWriter::resume(path, before.ownerTag, before.baseTick,
                                       before.validBytes);
    w->append(2, ConstByteSpan(bytesOf("two")));
    w->sync();
  }
  const io::ReplayResult after = io::replayJournal(path);
  ASSERT_EQ(after.records.size(), 2u);
  EXPECT_EQ(after.records[1].payload, bytesOf("two"));
  EXPECT_FALSE(after.torn);  // the resume truncated the junk away
}

// ---------------------------------------------------------------------
// Crash injection

TEST(CrashPlan, ActionIsPureInSeedSiteAndOrdinal) {
  io::CrashPlan plan;
  plan.seed = 42;
  plan.pathPattern = "target";
  plan.site = io::CrashSite::Write;
  plan.mode = io::CrashMode::Tear;
  plan.triggerOp = 2;

  const auto runOnce = [&] {
    io::installCrashPlan(plan);
    io::CrashAction fired;
    for (int i = 0; i < 3; ++i) {
      const io::CrashAction act =
          io::crashCheckpoint(io::CrashSite::Write, "/tmp/target-file", 1000);
      if (i < 2) {
        EXPECT_FALSE(act.fire);
      } else {
        EXPECT_TRUE(act.fire);
        fired = act;
      }
    }
    io::clearCrashPlan();
    return fired;
  };

  const io::CrashAction a = runOnce();
  const io::CrashAction b = runOnce();
  EXPECT_EQ(a.keepBytes, b.keepBytes);
  EXPECT_EQ(a.garbage, b.garbage);
  EXPECT_LT(a.keepBytes, 1000u);  // a tear keeps a strict prefix
}

TEST(CrashPlan, PathPatternAndSiteFilterMatching) {
  io::CrashPlan plan;
  plan.pathPattern = "only-this";
  plan.site = io::CrashSite::Sync;
  plan.triggerOp = 0;
  io::installCrashPlan(plan);
  // Wrong path and wrong site never fire.
  EXPECT_FALSE(io::crashCheckpoint(io::CrashSite::Sync, "/other", 0).fire);
  EXPECT_FALSE(
      io::crashCheckpoint(io::CrashSite::Write, "/x/only-this", 10).fire);
  EXPECT_TRUE(
      io::crashCheckpoint(io::CrashSite::Sync, "/x/only-this", 0).fire);
  io::clearCrashPlan();
  EXPECT_FALSE(io::crashPlanArmed());
}

TEST(CrashPlan, CountingEnumeratesMatchingOperations) {
  io::startCrashCounting(io::CrashSite::Rename, "counted");
  for (int i = 0; i < 4; ++i) {
    io::crashCheckpoint(io::CrashSite::Rename, "/a/counted-file", 0);
  }
  io::crashCheckpoint(io::CrashSite::Rename, "/a/other", 0);
  io::crashCheckpoint(io::CrashSite::DirSync, "/a/counted-file", 0);
  EXPECT_EQ(io::stopCrashCounting(), 4u);
}

// ---------------------------------------------------------------------
// writeBytesAtomic hardening

TEST(WriteBytesAtomic, ConcurrentWritersToOneDestination) {
  // Regression: the old implementation derived its temp name solely from
  // the destination ("<path>.tmp"), so two concurrent writers clobbered
  // and renamed each other's half-written files. Unique names make every
  // writer's rename atomic and self-contained.
  TempDir dir("atomic-races");
  const std::string dest = dir.file("contended.bin");
  constexpr int kThreads = 8;
  constexpr int kRounds = 16;

  std::vector<std::vector<std::byte>> payloads;
  for (int t = 0; t < kThreads; ++t) {
    std::vector<std::byte> p(4096 + 512 * t);
    for (usize i = 0; i < p.size(); ++i) {
      p[i] = static_cast<std::byte>((t * 131 + i * 7) & 0xFF);
    }
    payloads.push_back(std::move(p));
  }

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int r = 0; r < kRounds; ++r) {
        io::writeBytesAtomic(dest, ConstByteSpan(payloads[t]));
      }
    });
  }
  for (auto& th : threads) th.join();

  // The final content is exactly one writer's payload, never a splice.
  const std::vector<std::byte> got = io::readBytes(dest);
  bool matched = false;
  for (const auto& p : payloads) matched = matched || got == p;
  EXPECT_TRUE(matched) << "destination holds a torn mix of payloads";

  // Every temp file was consumed by its rename.
  usize strays = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir.path)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      ++strays;
    }
  }
  EXPECT_EQ(strays, 0u);
}

TEST(WriteBytesAtomic, InjectedRenameCrashLeavesDestinationAbsent) {
  TempDir dir("atomic-crash");
  const std::string dest = dir.file("victim.bin");
  io::CrashPlan plan;
  plan.pathPattern = "victim.bin";
  plan.site = io::CrashSite::Rename;
  plan.triggerOp = 0;
  io::installCrashPlan(plan);
  EXPECT_THROW(io::writeBytesAtomic(dest, ConstByteSpan(bytesOf("payload"))),
               io::CrashError);
  io::clearCrashPlan();
  // Death before the rename publishes nothing at the destination.
  EXPECT_FALSE(std::filesystem::exists(dest));
  // The retry (the "restarted process") succeeds over the stray temp.
  io::writeBytesAtomic(dest, ConstByteSpan(bytesOf("payload")));
  EXPECT_EQ(io::readBytes(dest), bytesOf("payload"));
}

// ---------------------------------------------------------------------
// BlockStore recovery

cas::StoreConfig smallStore() {
  return {.chunkBytes = 512, .deferGc = true};
}

std::vector<std::byte> pattern(usize n, u32 salt) {
  std::vector<std::byte> out(n);
  u64 x = 0x9E3779B97F4A7C15ull + salt;
  for (usize i = 0; i < n; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    out[i] = static_cast<std::byte>(x & 0xFF);
  }
  return out;
}

TEST(StoreRecovery, ReplaysJournalTailOntoSnapshot) {
  TempDir dir("cas-recover");
  const std::string index = dir.file("store.cas");
  const std::string jnl = index + ".jnl";
  const auto blobA = pattern(3000, 1);
  const auto blobB = pattern(2500, 2);
  const auto blobC = pattern(1800, 3);
  {
    cas::BlockStore store(smallStore());
    store.attachJournal(jnl);
    store.put("t", "a", ConstByteSpan(blobA));
    store.put("t", "b", ConstByteSpan(blobB));
    store.erase("t", "a");
    store.save(index);  // snapshot; the journal resets behind it
    store.put("t", "c", ConstByteSpan(blobC));
    store.gc();
  }  // "crash": the process dies with c + gc only in the journal

  cas::RecoveryReport rep;
  auto store = cas::BlockStore::recover(index, jnl, smallStore(), &rep);
  EXPECT_TRUE(rep.snapshotLoaded);
  EXPECT_EQ(rep.replayedRecords, 2u);  // put c, gc
  EXPECT_EQ(rep.skippedRecords, 0u);
  EXPECT_FALSE(rep.tornTail);
  store->checkInvariants();
  std::string err;
  EXPECT_TRUE(store->verifyAll(&err)) << err;
  EXPECT_FALSE(store->contains("t", "a"));
  EXPECT_EQ(store->get("t", "b"), blobB);
  EXPECT_EQ(store->get("t", "c"), blobC);
  // The journal resumed: new acknowledged work lands in it.
  EXPECT_TRUE(store->journalStatus().attached);
  store->put("t", "d", ConstByteSpan(blobA));
  EXPECT_GE(store->journalStatus().recordsSynced, 1u);
}

TEST(StoreRecovery, MissingSnapshotReplaysOntoFreshStore) {
  TempDir dir("cas-nosnap");
  const std::string index = dir.file("never-saved.cas");
  const std::string jnl = dir.file("store.jnl");
  const auto blob = pattern(2000, 4);
  {
    cas::BlockStore store(smallStore());
    store.attachJournal(jnl);
    store.put("t", "only", ConstByteSpan(blob));
  }
  cas::RecoveryReport rep;
  auto store = cas::BlockStore::recover(index, jnl, smallStore(), &rep);
  EXPECT_FALSE(rep.snapshotLoaded);
  EXPECT_EQ(rep.replayedRecords, 1u);
  EXPECT_EQ(store->get("t", "only"), blob);
}

TEST(StoreRecovery, SkipsRecordsTheSnapshotAlreadyCovers) {
  // Crash in the window between the snapshot rename and the journal
  // reset: the snapshot is new, the journal still holds the records it
  // covers. The tick-skip rule must not double-apply them.
  TempDir dir("cas-skip");
  const std::string index = dir.file("store.cas");
  const std::string jnl = index + ".jnl";
  const auto blob = pattern(2600, 5);
  {
    cas::BlockStore store(smallStore());
    store.attachJournal(jnl);
    store.put("t", "x", ConstByteSpan(blob));
    store.put("t", "y", ConstByteSpan(blob));  // full-object dedup
    io::CrashPlan plan;
    plan.pathPattern = jnl;  // fire on the journal's reset header write
    plan.site = io::CrashSite::Rename;
    plan.triggerOp = 0;
    io::installCrashPlan(plan);
    EXPECT_THROW(store.save(index), io::CrashError);
    io::clearCrashPlan();
  }
  ASSERT_TRUE(std::filesystem::exists(index));  // the snapshot did land
  cas::RecoveryReport rep;
  auto store = cas::BlockStore::recover(index, jnl, smallStore(), &rep);
  EXPECT_TRUE(rep.snapshotLoaded);
  EXPECT_EQ(rep.replayedRecords, 0u);
  EXPECT_EQ(rep.skippedRecords, 2u);
  store->checkInvariants();
  EXPECT_EQ(store->get("t", "x"), blob);
  EXPECT_EQ(store->get("t", "y"), blob);
  EXPECT_EQ(store->stats().objects, 2u);
}

TEST(StoreRecovery, ForeignOwnerTagIsUnrecoverable) {
  TempDir dir("cas-owner");
  const std::string index = dir.file("store.cas");
  const std::string jnl = dir.file("store.jnl");
  {
    // A journal stamped by some OTHER store (different hashSeed): replay
    // onto this store would apply records addressed by a foreign hash.
    io::JournalWriter w(jnl, /*ownerTag=*/0xDEADBEEFull, 0);
    w.append(1, ConstByteSpan(bytesOf("foreign")));
    w.sync();
  }
  EXPECT_THROW(cas::BlockStore::recover(index, jnl, smallStore()), Error);
}

// ---------------------------------------------------------------------
// Durable service intake

core::Config jobConfig() {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.checksum = true;
  return cfg;
}

std::vector<std::byte> fieldBytes(const std::vector<f32>& v) {
  std::vector<std::byte> bytes(v.size() * sizeof(f32));
  std::memcpy(bytes.data(), v.data(), bytes.size());
  return bytes;
}

service::ServiceConfig durableConfig(const std::string& jnl) {
  service::ServiceConfig sc;
  sc.workers = 1;
  sc.startPaused = true;
  sc.jobJournalPath = jnl;
  return sc;
}

TEST(ServiceDurability, ReplaysExactlyOnce) {
  TempDir dir("svc-replay");
  const std::string jnl = dir.file("jobs.jnl");
  const core::Config cfg = jobConfig();
  core::CompressorStream ref(cfg);
  const auto field1 = datagen::generateF32("cesm_atm", 0, 2048);
  const auto field2 = datagen::generateF32("cesm_atm", 1, 2048);
  const auto expected1 =
      ref.compress<f32>(std::span<const f32>(field1)).stream;

  {
    io::JournalWriter w(jnl, service::kJobJournalOwnerTag, 0);
    for (u64 id : {1ull, 2ull}) {
      service::JobAcceptRecord acc;
      acc.jobId = id;
      acc.tenant = "climate";
      acc.kind = service::JobKind::Compress;
      acc.precision = Precision::F32;
      acc.config = cfg;
      acc.input = fieldBytes(id == 1 ? field1 : field2);
      const auto payload = service::encodeJobAccept(acc);
      w.append(service::kJobRecordAccept, ConstByteSpan(payload));
    }
    const auto resolved =
        service::encodeJobResolve(2, service::Outcome::Completed);
    w.append(service::kJobRecordResolve, ConstByteSpan(resolved));
    w.sync();
  }

  {
    service::CompressionService svc(durableConfig(jnl));
    ASSERT_EQ(svc.replayedJobs().size(), 1u);
    const service::ReplayedJob& rj = svc.replayedJobs().front();
    EXPECT_EQ(rj.originalJobId, 1u);
    svc.resume();
    ASSERT_TRUE(rj.ticket.waitFor(std::chrono::seconds(120)));
    const service::JobResult& r = rj.ticket.result();
    EXPECT_EQ(r.outcome, service::Outcome::Completed);
    EXPECT_EQ(r.compressed.stream, expected1);
    EXPECT_TRUE(svc.jobJournalStatus().attached);
    svc.shutdown();
  }
  {
    // Exactly-once: the replayed job is resolved in the journal now.
    service::CompressionService svc(durableConfig(jnl));
    EXPECT_TRUE(svc.replayedJobs().empty());
    svc.shutdown();
  }
}

TEST(ServiceDurability, AcceptIsDurableBeforeTheTicketReturns) {
  TempDir dir("svc-ack");
  const std::string jnl = dir.file("jobs.jnl");
  const auto field = datagen::generateF32("hacc", 0, 1024);
  {
    service::CompressionService svc(durableConfig(jnl));
    const service::SubmitResult r = svc.submitCompress<f32>(
        "cosmo", std::span<const f32>(field), jobConfig());
    ASSERT_TRUE(r.accepted());
    // The accept record is on disk BEFORE the job ever runs (the service
    // is paused): kill the process here and nothing is lost.
    const io::ReplayResult replay = io::replayJournal(jnl);
    const service::JobJournalSummary summary =
        service::summarizeJobJournal(replay);
    ASSERT_EQ(summary.pending.size(), 1u);
    EXPECT_EQ(summary.pending[0].jobId, r.ticket.id());
    EXPECT_EQ(summary.pending[0].tenant, "cosmo");
    EXPECT_EQ(summary.pending[0].input, fieldBytes(field));
    svc.resume();
    svc.shutdown();
  }
  // After the clean run, the resolve retired the accept.
  const service::JobJournalSummary after =
      service::summarizeJobJournal(io::replayJournal(jnl));
  EXPECT_TRUE(after.pending.empty());
  EXPECT_EQ(after.resolves, 1u);
}

TEST(ServiceDurability, DamagedJournalHeaderRefusesStartup) {
  TempDir dir("svc-badheader");
  const std::string jnl = dir.file("jobs.jnl");
  io::writeBytes(jnl, ConstByteSpan(bytesOf("this is not a journal header")));
  EXPECT_THROW(service::CompressionService svc(durableConfig(jnl)), Error);
}

TEST(ClusterDurability, ShardRecoversJournalBeforeJoining) {
  TempDir dir("cluster-jnl");
  const core::Config cfg = jobConfig();
  core::CompressorStream ref(cfg);
  const auto field = datagen::generateF32("jetin", 0, 2048);
  const u32 shardJobs = 2;
  {
    // A previous shard-0 life accepted two jobs and died unresolved.
    io::JournalWriter w(dir.file("shard-0.jobs.jnl"),
                        service::kJobJournalOwnerTag, 0);
    for (u64 id = 1; id <= shardJobs; ++id) {
      service::JobAcceptRecord acc;
      acc.jobId = id;
      acc.tenant = "fusion";
      acc.kind = service::JobKind::Compress;
      acc.precision = Precision::F32;
      acc.config = cfg;
      acc.input = fieldBytes(field);
      const auto payload = service::encodeJobAccept(acc);
      w.append(service::kJobRecordAccept, ConstByteSpan(payload));
    }
    w.sync();
  }

  cluster::ClusterConfig ccfg;
  ccfg.shards = 2;
  ccfg.replicas = 1;
  ccfg.shard.workers = 1;
  ccfg.journalDir = dir.path;
  cluster::CompressionCluster cl(ccfg);

  auto infos = cl.shardInfos();
  ASSERT_EQ(infos.size(), 2u);
  EXPECT_EQ(infos[0].replayedJobs, shardJobs);
  EXPECT_EQ(infos[1].replayedJobs, 0u);

  // The replayed jobs drain on the shard's own service.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (std::chrono::steady_clock::now() < deadline) {
    if (cl.shardInfos()[0].stats.completed >= shardJobs) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_GE(cl.shardInfos()[0].stats.completed, shardJobs);
  cl.shutdown();
}

}  // namespace
