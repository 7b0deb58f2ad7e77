// Unit tests for the analytic timing model and device presets.
#include <gtest/gtest.h>

#include <vector>

#include "common/thread_pool.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/timing.hpp"

namespace cuszp2::gpusim {
namespace {

TEST(DeviceSpec, PresetsAreOrderedByBandwidth) {
  EXPECT_GT(a100_40gb().memBandwidthGBps, rtx3090().memBandwidthGBps);
  EXPECT_GT(rtx3090().memBandwidthGBps, rtx3080().memBandwidthGBps);
  EXPECT_EQ(a100_40gb().memBandwidthGBps, 1555.0);  // paper's figure
}

TEST(Timing, EmptyKernelCostsOnlyLaunch) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  EXPECT_DOUBLE_EQ(t.totalSeconds, model.launchSeconds());
}

TEST(Timing, BandwidthTermScalesWithTransactions) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.noteVectorRead(1'000'000'000, 32);  // 1 GB coalesced
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  // 1 GB at 1555 GB/s ~ 0.643 ms.
  EXPECT_NEAR(t.bandwidthSeconds, 1.0 / 1555.0, 1e-5);
}

TEST(Timing, StridedAccessCostsMoreThanCoalesced) {
  const TimingModel model(a100_40gb());
  MemCounters coalesced;
  coalesced.noteVectorRead(100'000'000, 32);
  MemCounters strided;
  strided.noteStridedRead(100'000'000, 4);
  SyncStats sync;
  EXPECT_GT(model.kernel(strided, sync).totalSeconds,
            2 * model.kernel(coalesced, sync).totalSeconds);
}

TEST(Timing, VectorizationReducesIssueTime) {
  const TimingModel model(a100_40gb());
  MemCounters vec;
  vec.noteVectorRead(400'000'000, 32);
  MemCounters scalar;
  scalar.noteScalarRead(400'000'000, 4, 32);
  SyncStats sync;
  const auto tv = model.kernel(vec, sync);
  const auto ts = model.kernel(scalar, sync);
  // Same bytes and transactions, but 4x the instructions.
  EXPECT_DOUBLE_EQ(tv.bandwidthSeconds, ts.bandwidthSeconds);
  EXPECT_NEAR(ts.issueSeconds / tv.issueSeconds, 4.0, 0.01);
}

TEST(Timing, ChainedScanSyncScalesLinearly) {
  const TimingModel model(a100_40gb());
  SyncStats sync;
  sync.method = SyncMethod::ChainedScan;
  sync.tiles = 1000;
  const f64 t1000 = model.syncSeconds(sync);
  sync.tiles = 2000;
  EXPECT_NEAR(model.syncSeconds(sync) / t1000, 2.0, 1e-9);
}

TEST(Timing, LookbackBeatsChainedScan) {
  const TimingModel model(a100_40gb());
  SyncStats chained;
  chained.method = SyncMethod::ChainedScan;
  chained.tiles = 5000;
  SyncStats lookback;
  lookback.method = SyncMethod::DecoupledLookback;
  lookback.tiles = 5000;
  lookback.maxLookbackDepth = 12;
  const f64 ratio =
      model.syncSeconds(chained) / model.syncSeconds(lookback);
  // The paper measures ~2.41x; the model should land in the same regime.
  EXPECT_GT(ratio, 1.5);
  EXPECT_LT(ratio, 30.0);
}

TEST(Timing, AtomicsSerializeSeparately) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.noteAtomics(1'200'000'000);  // one second worth at the preset rate
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  EXPECT_NEAR(t.atomicSeconds, 1.0, 1e-9);
}

TEST(Timing, MemsetChargedAtMemsetRate) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.noteMemset(2'000'000'000);
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  EXPECT_NEAR(t.memsetSeconds, 0.001, 1e-6);  // 2 GB at 2000 GB/s = 1 ms
}

TEST(Timing, PcieMatchesSpec) {
  const TimingModel model(a100_40gb());
  EXPECT_NEAR(model.pcieSeconds(12'000'000'000ull), 1.0, 1e-9);
}

TEST(Timing, MemThroughputIncludesAllBytes) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.noteVectorRead(500'000'000, 32);
  mem.noteVectorWrite(500'000'000, 32);
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  EXPECT_GT(t.memThroughputGBps, 100.0);
  EXPECT_LT(t.memThroughputGBps, 1555.0);
}

TEST(Timing, GbpsHelper) {
  EXPECT_DOUBLE_EQ(gbps(1'000'000'000, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(gbps(1'000'000'000, 0.0), 0.0);
}

void expectSameTiming(const KernelTiming& a, const KernelTiming& b,
                      const char* what) {
  EXPECT_EQ(a.bandwidthSeconds, b.bandwidthSeconds) << what;
  EXPECT_EQ(a.issueSeconds, b.issueSeconds) << what;
  EXPECT_EQ(a.computeSeconds, b.computeSeconds) << what;
  EXPECT_EQ(a.atomicSeconds, b.atomicSeconds) << what;
  EXPECT_EQ(a.memsetSeconds, b.memsetSeconds) << what;
  EXPECT_EQ(a.syncSeconds, b.syncSeconds) << what;
  EXPECT_EQ(a.launchSeconds, b.launchSeconds) << what;
  EXPECT_EQ(a.totalSeconds, b.totalSeconds) << what;
  EXPECT_EQ(a.memThroughputGBps, b.memThroughputGBps) << what;
}

// The modelled kernel must not depend on how the host pool interleaved
// the tiles: the same lookback compress and decompress on a 1-worker pool
// (tiles in serial order) and a 4-worker pool (tiles racing) give the same
// KernelTiming, field by field. Several 4-worker rounds vary the races.
TEST(Timing, KernelTimingIndependentOfWorkerCount) {
  const std::vector<f32> data = datagen::generateF32("cesm_atm", 0, 1 << 18);
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  const TimingModel model(a100_40gb());
  struct Run {
    KernelTiming compress;
    KernelTiming decompress;
  };
  const auto run = [&](ThreadPool& pool) {
    core::CompressorStream stream(cfg, a100_40gb(), pool);
    const core::Compressed c = stream.compress<f32>(data);
    const core::Decompressed<f32> d = stream.decompress<f32>(c.stream);
    EXPECT_GT(c.profile.sync.tiles, 1u);
    return Run{model.kernel(c.profile.mem, c.profile.sync),
               model.kernel(d.profile.mem, d.profile.sync)};
  };
  ThreadPool serialPool(1);
  ThreadPool racingPool(4);
  const Run serial = run(serialPool);
  for (int round = 0; round < 3; ++round) {
    const Run racing = run(racingPool);
    expectSameTiming(serial.compress, racing.compress, "compress");
    expectSameTiming(serial.decompress, racing.decompress, "decompress");
  }
}

}  // namespace
}  // namespace cuszp2::gpusim
