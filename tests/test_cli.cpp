// End-to-end tests of the cuszp2 command-line tool: real process
// invocations over real files (the path is injected by CMake).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/stream.hpp"
#include "io/archive.hpp"
#include "io/raw.hpp"

#ifndef CUSZP2_CLI_PATH
#error "CUSZP2_CLI_PATH must be defined by the build"
#endif

namespace cuszp2 {
namespace {

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("cuszp2_cli_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);

    Rng rng(1);
    data_.resize(10000);
    f64 v = 0.0;
    for (auto& x : data_) {
      v += rng.uniform(-0.05, 0.05);
      x = static_cast<f32>(v);
    }
    io::writeRaw<f32>(file("in.f32"), data_);
  }

  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string file(const std::string& name) const {
    return (dir_ / name).string();
  }

  int run(const std::string& args) const {
    const std::string cmd =
        std::string(CUSZP2_CLI_PATH) + " " + args + " > " + file("log.txt") +
        " 2>&1";
    const int rc = std::system(cmd.c_str());
    return WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  }

  std::string lastLog() const {
    const auto bytes = io::readBytes(file("log.txt"));
    return std::string(reinterpret_cast<const char*>(bytes.data()),
                       bytes.size());
  }

  std::filesystem::path dir_;
  std::vector<f32> data_;
};

TEST_F(CliTest, CompressDecompressVerifyPipeline) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("out.czp2") +
                " --rel 1e-3 --mode outlier"),
            0)
      << lastLog();
  EXPECT_NE(lastLog().find("ratio:"), std::string::npos);

  ASSERT_EQ(run("info " + file("out.czp2")), 0) << lastLog();
  EXPECT_NE(lastLog().find("encoding mode:   outlier"), std::string::npos);

  ASSERT_EQ(run("decompress " + file("out.czp2") + " " + file("rec.f32")),
            0)
      << lastLog();
  const auto rec = io::readRaw<f32>(file("rec.f32"));
  ASSERT_EQ(rec.size(), data_.size());

  ASSERT_EQ(run("verify " + file("in.f32") + " " + file("out.czp2")), 0)
      << lastLog();
  EXPECT_NE(lastLog().find("Pass error check!"), std::string::npos);
}

TEST_F(CliTest, PlainModeAndAbsBound) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("p.czp2") +
                " --abs 0.01 --mode plain --block 64"),
            0)
      << lastLog();
  ASSERT_EQ(run("info " + file("p.czp2")), 0);
  EXPECT_NE(lastLog().find("encoding mode:   plain"), std::string::npos);
  EXPECT_NE(lastLog().find("block size:      64"), std::string::npos);
  EXPECT_NE(lastLog().find("abs error bound: 0.01"), std::string::npos);
}

TEST_F(CliTest, DoublePrecisionFiles) {
  std::vector<f64> d(data_.begin(), data_.end());
  io::writeRaw<f64>(file("in.f64"), d);
  ASSERT_EQ(run("compress " + file("in.f64") + " " + file("d.czp2") +
                " --rel 1e-4 --precision f64"),
            0)
      << lastLog();
  ASSERT_EQ(run("decompress " + file("d.czp2") + " " + file("rec.f64")), 0);
  EXPECT_EQ(io::readRaw<f64>(file("rec.f64")).size(), d.size());
  ASSERT_EQ(run("verify " + file("in.f64") + " " + file("d.czp2")), 0);
}

TEST_F(CliTest, VerifyFailsOnWrongOriginal) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("out.czp2")), 0);
  // A different original with the same length: error check must fail.
  std::vector<f32> other(data_.size(), 1234.5f);
  io::writeRaw<f32>(file("other.f32"), other);
  EXPECT_NE(run("verify " + file("other.f32") + " " + file("out.czp2")), 0);
}

TEST_F(CliTest, ErrorPaths) {
  EXPECT_NE(run(""), 0);
  EXPECT_NE(run("unknown-command x y"), 0);
  EXPECT_NE(run("compress /nonexistent.f32 " + file("x.czp2")), 0);
  EXPECT_NE(run("info /nonexistent.czp2"), 0);
  EXPECT_NE(run("compress " + file("in.f32") + " " + file("x.czp2") +
                " --mode bogus"),
            0);
  // info on a non-stream file.
  EXPECT_NE(run("info " + file("in.f32")), 0);
}

// ---- Integrity exit codes and salvage / repair commands --------------------

TEST_F(CliTest, InfoShowsFormatVersionAndBlockChecksums) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("v1.czp2") +
                " --abs 0.01"),
            0)
      << lastLog();
  ASSERT_EQ(run("info " + file("v1.czp2")), 0);
  EXPECT_NE(lastLog().find("format version:  1"), std::string::npos);
  EXPECT_NE(lastLog().find("block checksums: no"), std::string::npos);

  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("v2.czp2") +
                " --abs 0.01 --checksum --block-checksum"),
            0)
      << lastLog();
  ASSERT_EQ(run("info " + file("v2.czp2")), 0);
  EXPECT_NE(lastLog().find("format version:  2"), std::string::npos);
  EXPECT_NE(lastLog().find("block checksums: yes"), std::string::npos);
  EXPECT_NE(lastLog().find("checksum:        yes"), std::string::npos);
}

// Exit-code contract: bound violations exit 1, integrity failures exit 2.
TEST_F(CliTest, VerifyDistinguishesBoundViolationFromCorruption) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("out.czp2") +
                " --abs 0.01 --checksum --block-checksum"),
            0)
      << lastLog();

  // Wrong original, intact stream: an error-bound violation -> exit 1.
  std::vector<f32> other(data_.size(), 1234.5f);
  io::writeRaw<f32>(file("other.f32"), other);
  EXPECT_EQ(run("verify " + file("other.f32") + " " + file("out.czp2")), 1)
      << lastLog();

  // Corrupted stream, correct original: an integrity failure -> exit 2.
  auto bytes = io::readBytes(file("out.czp2"));
  bytes[bytes.size() - 100] ^= std::byte{0x20};
  io::writeBytes(file("bad.czp2"), bytes);
  EXPECT_EQ(run("verify " + file("in.f32") + " " + file("bad.czp2")), 2);
  EXPECT_NE(lastLog().find("integrity failure"), std::string::npos);
}

TEST_F(CliTest, VerifyIntegrityOnlyForm) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("out.czp2") +
                " --abs 0.01 --checksum --block-checksum"),
            0);
  EXPECT_EQ(run("verify " + file("out.czp2")), 0) << lastLog();
  EXPECT_NE(lastLog().find("integrity ok (format v2, with per-block "
                           "checksums)"),
            std::string::npos);

  auto bytes = io::readBytes(file("out.czp2"));
  bytes[bytes.size() - 100] ^= std::byte{0x20};
  io::writeBytes(file("bad.czp2"), bytes);
  EXPECT_EQ(run("verify " + file("bad.czp2")), 2) << lastLog();
  EXPECT_NE(lastLog().find("quarantined"), std::string::npos);
}

// `profile` reports the ratio of the very stream `compress` writes, for
// every integrity-flag combination and both writers.
TEST_F(CliTest, ProfileRatioMatchesCompressRatio) {
  const auto ratioIn = [](const std::string& log) {
    const usize at = log.find("ratio: ");
    if (at == std::string::npos) return std::string();
    const usize first = at + 7;
    return log.substr(first,
                      log.find_first_not_of("0123456789.", first) - first);
  };
  for (const char* integrity :
       {"", " --checksum", " --block-checksum",
        " --checksum --block-checksum"}) {
    for (const char* pipeline : {"", " --pipeline auto"}) {
      const std::string flags =
          std::string(" --rel 1e-3") + integrity + pipeline;
      ASSERT_EQ(run("compress " + file("in.f32") + " " + file("r.czp2") +
                    flags),
                0)
          << lastLog();
      const std::string compressRatio = ratioIn(lastLog());
      ASSERT_FALSE(compressRatio.empty()) << flags;
      ASSERT_EQ(run("profile " + file("in.f32") + flags), 0) << lastLog();
      EXPECT_EQ(ratioIn(lastLog()), compressRatio) << flags;
    }
  }
}

TEST_F(CliTest, SalvageDecompressRecoversDamagedStream) {
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("out.czp2") +
                " --abs 0.01 --block-checksum"),
            0);
  auto bytes = io::readBytes(file("out.czp2"));
  bytes[bytes.size() / 2] ^= std::byte{0x08};  // payload damage
  io::writeBytes(file("bad.czp2"), bytes);

  // Strict decompression refuses.
  EXPECT_NE(run("decompress " + file("bad.czp2") + " " + file("rec.f32")),
            0);

  // Salvage writes the output, reports the damage, and exits 2.
  EXPECT_EQ(run("decompress " + file("bad.czp2") + " " + file("rec.f32") +
                " --salvage --fill -7"),
            2)
      << lastLog();
  EXPECT_NE(lastLog().find("quarantined"), std::string::npos);
  const auto rec = io::readRaw<f32>(file("rec.f32"));
  ASSERT_EQ(rec.size(), data_.size());
  EXPECT_NE(std::find(rec.begin(), rec.end(), -7.0f), rec.end());

  // On a clean stream salvage exits 0.
  EXPECT_EQ(run("decompress " + file("out.czp2") + " " + file("rec2.f32") +
                " --salvage"),
            0)
      << lastLog();
}

TEST_F(CliTest, RepairFixesDamagedParityArchive) {
  // Build a parity-protected archive holding one compressed stream.
  core::Config cfg;
  cfg.absErrorBound = 0.01;
  cfg.blockChecksums = true;
  core::CompressorStream compressor(cfg);
  const auto stream = compressor.compress<f32>(data_).stream;
  io::ArchiveWriter w;
  w.addField("in", stream);
  const auto archive =
      w.finalize(io::ParityOptions{.chunkBytes = 256, .groupSize = 8});
  io::writeBytes(file("a.czar"), archive);

  EXPECT_EQ(run("verify " + file("a.czar")), 0) << lastLog();

  auto damaged = archive;
  damaged[damaged.size() / 3] ^= std::byte{0x11};
  io::writeBytes(file("a.czar"), damaged);
  EXPECT_EQ(run("verify " + file("a.czar")), 2) << lastLog();
  EXPECT_EQ(run("repair " + file("a.czar") + " --dry-run"), 2) << lastLog();

  EXPECT_EQ(run("repair " + file("a.czar")), 0) << lastLog();
  EXPECT_NE(lastLog().find("repaired"), std::string::npos);
  const auto repaired = io::readBytes(file("a.czar"));
  EXPECT_EQ(repaired, archive);  // bit-exact restoration
  EXPECT_EQ(run("verify " + file("a.czar")), 0) << lastLog();

  // Repair on a non-archive input is an operational error (exit 1).
  EXPECT_EQ(run("repair " + file("in.f32")), 1);
}

TEST_F(CliTest, ServeRunsManifestAndPrintsTenantSummary) {
  io::writeBytes(
      file("jobs.txt"),
      [] {
        const std::string text =
            "# tenant dataset elems jobs [rel]\n"
            "climate  cesm_atm 2048 4 1e-3\n"
            "physics  hacc     4096 3 1e-3\n"
            "fluids   jetin    1024 3 1e-3\n"
            "tiny     cesm_atm 512  2 1e-2\n";
        std::vector<std::byte> bytes(text.size());
        std::memcpy(bytes.data(), text.data(), text.size());
        return bytes;
      }());
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt") + " --workers 2"), 0)
      << lastLog();
  const std::string log = lastLog();
  EXPECT_NE(log.find("served 12 jobs from 4 tenants"), std::string::npos);
  EXPECT_NE(log.find("per-tenant summary:"), std::string::npos);
  for (const char* tenant : {"climate", "physics", "fluids", "tiny"}) {
    EXPECT_NE(log.find(tenant), std::string::npos) << tenant;
  }
  // One dispatch per job.
  EXPECT_NE(log.find("scheduler: 12 jobs dispatched"), std::string::npos);
  EXPECT_NE(log.find("per-kernel summary:"), std::string::npos);

  // Unknown dataset in the manifest is an operational error.
  io::writeBytes(file("bad.txt"), [] {
    const std::string text = "t no_such_dataset 128 1\n";
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    return bytes;
  }());
  EXPECT_EQ(run("serve --jobs " + file("bad.txt")), 1);
}

TEST_F(CliTest, ServeChaosSeedDrillResolvesEveryJob) {
  io::writeBytes(file("jobs.txt"), [] {
    const std::string text =
        "climate cesm_atm 2048 4 1e-3\n"
        "physics hacc     4096 3 1e-3\n";
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    return bytes;
  }());
  // Seeded fault drill: injected faults must be absorbed by retries, the
  // watchdog and in-stream relaunches — exit 0, no failed jobs.
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt") +
                " --workers 2 --chaos-seed 7"),
            0)
      << lastLog();
  const std::string log = lastLog();
  EXPECT_NE(log.find("served 7 jobs from 2 tenants"), std::string::npos);
  EXPECT_NE(log.find("health: 7 completed, 0 failed"), std::string::npos);
  EXPECT_EQ(log.find("FAILED"), std::string::npos);

  // The health summary is printed on fault-free runs too.
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt")), 0) << lastLog();
  EXPECT_NE(lastLog().find("health: 7 completed, 0 failed"),
            std::string::npos);
  EXPECT_NE(lastLog().find("chaos injections 0"), std::string::npos);
}

TEST_F(CliTest, ServeClusterShardsManifestAcrossHeterogeneousFleet) {
  io::writeBytes(file("jobs.txt"), [] {
    const std::string text =
        "climate cesm_atm 2048 4 1e-3\n"
        "physics hacc     4096 3 1e-3\n"
        "fluids  jetin    1024 3 1e-3\n"
        "tiny    cesm_atm 512  2 1e-2\n";
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    return bytes;
  }());
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt") +
                " --shards 4 --replicas 2"),
            0)
      << lastLog();
  const std::string log = lastLog();
  EXPECT_NE(log.find("served 12 jobs from 4 tenants on 4 shards"),
            std::string::npos);
  EXPECT_NE(log.find("per-tenant summary:"), std::string::npos);
  EXPECT_NE(log.find("per-shard summary:"), std::string::npos);
  // The cluster health line tallies every typed outcome plus the
  // failover counters.
  EXPECT_NE(log.find("health: 12 completed, 0 failed, 0 degraded, "
                     "0 abandoned, 0 canceled"),
            std::string::npos);
  EXPECT_NE(log.find("failovers 0"), std::string::npos);
  EXPECT_NE(log.find("shard kills 0"), std::string::npos);
  // The heterogeneous fleet shows up in the per-shard table.
  EXPECT_NE(log.find("A100"), std::string::npos);
  EXPECT_NE(log.find("up"), std::string::npos);

  // The seeded service-level fault drill also resolves under sharding.
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt") +
                " --shards 2 --chaos-seed 7"),
            0)
      << lastLog();
  EXPECT_NE(lastLog().find("served 12 jobs from 4 tenants on 2 shards"),
            std::string::npos);
  EXPECT_EQ(lastLog().find("FAILED"), std::string::npos);
}

TEST_F(CliTest, TraceIsFlushedOnErrorAndUsagePaths) {
  // Operational error mid-run: the trace file must still be complete JSON.
  EXPECT_EQ(run("--trace " + file("err.json") + " compress " +
                file("missing.raw") + " " + file("out.czp2")),
            1);
  ASSERT_TRUE(std::filesystem::exists(file("err.json")));
  const auto errTrace = io::readBytes(file("err.json"));
  const std::string errJson(
      reinterpret_cast<const char*>(errTrace.data()), errTrace.size());
  EXPECT_NE(errJson.find("\"traceEvents\""), std::string::npos);
  EXPECT_EQ(errJson.back(), '\n');

  // usage() exits with 2 without running dispatch; the trace still lands.
  EXPECT_EQ(run("--trace " + file("usage.json") + " no-such-subcommand"), 2);
  ASSERT_TRUE(std::filesystem::exists(file("usage.json")));
  const auto usageTrace = io::readBytes(file("usage.json"));
  EXPECT_NE(std::string(reinterpret_cast<const char*>(usageTrace.data()),
                        usageTrace.size())
                .find("\"traceEvents\""),
            std::string::npos);
}

TEST_F(CliTest, ServeWithTraceEmitsPerJobSpans) {
  io::writeBytes(file("jobs.txt"), [] {
    const std::string text = "a cesm_atm 1024 3\nb hacc 1024 2\n";
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    return bytes;
  }());
  ASSERT_EQ(run("--trace " + file("serve.json") + " serve --jobs " +
                file("jobs.txt")),
            0)
      << lastLog();
  const auto trace = io::readBytes(file("serve.json"));
  const std::string json(reinterpret_cast<const char*>(trace.data()),
                         trace.size());
  EXPECT_NE(json.find("service.job"), std::string::npos);
  EXPECT_NE(json.find("\"tenant\""), std::string::npos);
}

TEST_F(CliTest, StoreSubcommandDedupsAcrossTenantsAndCompacts) {
  // put the same compressed stream under two tenants: the second put is
  // pure dedup (zero physical bytes added).
  ASSERT_EQ(run("compress " + file("in.f32") + " " + file("s.czp2") +
                " --rel 1e-3"),
            0);
  ASSERT_EQ(run("store put " + file("st.cas") + " climate run1 " +
                file("s.czp2")),
            0)
      << lastLog();
  ASSERT_EQ(run("store put " + file("st.cas") + " physics run1 " +
                file("s.czp2")),
            0)
      << lastLog();
  EXPECT_NE(lastLog().find("0 new +"), std::string::npos);
  EXPECT_NE(lastLog().find("(0 physical bytes added)"), std::string::npos);

  // `info` on a store file prints the dedup health line, not stream
  // fields.
  ASSERT_EQ(run("info " + file("st.cas")), 0) << lastLog();
  EXPECT_NE(lastLog().find("cuSZp2 CAS store:"), std::string::npos);
  EXPECT_NE(lastLog().find("cas: 2 objects"), std::string::npos);
  EXPECT_NE(lastLog().find("bytes saved"), std::string::npos);

  // get returns the exact stored bytes; decompress proves it end-to-end.
  ASSERT_EQ(run("store get " + file("st.cas") + " climate run1 " +
                file("back.czp2")),
            0)
      << lastLog();
  EXPECT_EQ(io::readBytes(file("back.czp2")), io::readBytes(file("s.czp2")));
  ASSERT_EQ(run("verify " + file("in.f32") + " " + file("back.czp2")), 0);

  // compact migrates cold v1 objects to v3 when it wins; either way the
  // stream must still verify against the original after the sweep.
  ASSERT_EQ(run("store compact " + file("st.cas")), 0) << lastLog();
  EXPECT_NE(lastLog().find("compact: scanned"), std::string::npos);
  ASSERT_EQ(run("store get " + file("st.cas") + " climate run1 " +
                file("after.czp2")),
            0);
  ASSERT_EQ(run("verify " + file("in.f32") + " " + file("after.czp2")), 0);

  // rm + gc drop the last reference and sweep the parked chunks.
  ASSERT_EQ(run("store rm " + file("st.cas") + " climate run1"), 0);
  ASSERT_EQ(run("store rm " + file("st.cas") + " physics run1"), 0);
  ASSERT_EQ(run("store gc " + file("st.cas")), 0) << lastLog();
  ASSERT_EQ(run("store stat " + file("st.cas")), 0) << lastLog();
  EXPECT_NE(lastLog().find("objects:         0"), std::string::npos);

  // Error paths: unknown object, unknown verb.
  EXPECT_NE(run("store get " + file("st.cas") + " nosuch x " +
                file("y.bin")),
            0);
  EXPECT_NE(run("store frobnicate " + file("st.cas")), 0);
}

TEST_F(CliTest, ServeCasPrintsDedupHealthLine) {
  io::writeBytes(file("jobs.txt"), [] {
    // Two tenants compressing the SAME dataset fields: their compressed
    // streams are identical, so the CAS dedups across tenants.
    const std::string text =
        "climate cesm_atm 2048 3 1e-3\n"
        "mirror  cesm_atm 2048 3 1e-3\n";
    std::vector<std::byte> bytes(text.size());
    std::memcpy(bytes.data(), text.data(), text.size());
    return bytes;
  }());
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt") + " --cas"), 0)
      << lastLog();
  std::string log = lastLog();
  EXPECT_NE(log.find("cas: 6 objects"), std::string::npos);
  EXPECT_NE(log.find("bytes saved"), std::string::npos);
  // Identical per-tenant streams: half the logical blocks are shared.
  EXPECT_NE(log.find("dedup)"), std::string::npos);
  EXPECT_EQ(log.find("(1.00x dedup)"), std::string::npos);

  // Cluster mode: the health line sums every shard's replica store.
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt") +
                " --shards 2 --replicas 2 --cas"),
            0)
      << lastLog();
  log = lastLog();
  EXPECT_NE(log.find("cas: 12 objects"), std::string::npos);

  // Without --cas no dedup line is printed.
  ASSERT_EQ(run("serve --jobs " + file("jobs.txt")), 0);
  EXPECT_EQ(lastLog().find("cas:"), std::string::npos);
}

}  // namespace
}  // namespace cuszp2
