// Tests for the device-level prefix-sum protocols: chained scan, decoupled
// lookback, and the standalone device scan driver. Includes concurrency
// stress and parameterized property sweeps.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "gpusim/launcher.hpp"
#include "gpusim/timing.hpp"
#include "scan/chained.hpp"
#include "scan/cpu_scan.hpp"
#include "scan/device_scan.hpp"
#include "core/stream.hpp"
#include "scan/lookback.hpp"

namespace cuszp2::scan {
namespace {

std::vector<u64> randomValues(usize n, u64 seed, u64 maxValue = 1000) {
  Rng rng(seed);
  std::vector<u64> v(n);
  for (auto& x : v) x = rng.uniformInt(maxValue + 1);
  return v;
}

TEST(CpuScan, ExclusiveScanReference) {
  const std::vector<u64> in = {3, 1, 4, 1, 5};
  std::vector<u64> out(in.size());
  exclusiveScan(in, out);
  EXPECT_EQ(out, (std::vector<u64>{0, 3, 4, 8, 9}));
}

TEST(CpuScan, InclusiveScanReference) {
  const std::vector<u64> in = {3, 1, 4, 1, 5};
  std::vector<u64> out(in.size());
  inclusiveScan(in, out);
  EXPECT_EQ(out, (std::vector<u64>{3, 4, 8, 9, 14}));
}

TEST(CpuScan, Reduce) {
  EXPECT_EQ(reduce(std::vector<u64>{1, 2, 3}), 6u);
  EXPECT_EQ(reduce(std::vector<u64>{}), 0u);
}

// ---- Protocol-level tests (processTile called from launcher blocks) -----

class ScanProtocolTest : public ::testing::TestWithParam<u32> {};

TEST_P(ScanProtocolTest, LookbackComputesExclusivePrefixes) {
  const u32 tiles = GetParam();
  const auto values = randomValues(tiles, 42);
  std::vector<u64> expected(tiles);
  exclusiveScan(values, expected);

  LookbackState state(tiles);
  std::vector<u64> got(tiles, ~u64{0});
  gpusim::Launcher launcher;
  const auto result = launcher.launch(
      tiles,
      [&](gpusim::BlockCtx& ctx) {
        got[ctx.blockIdx] = state.processTile(
            ctx.blockIdx, values[ctx.blockIdx], ctx.sync, ctx.mem);
      },
      1);  // one block per task maximizes interleaving
  EXPECT_EQ(got, expected);
  EXPECT_EQ(result.sync.method, gpusim::SyncMethod::DecoupledLookback);
  EXPECT_EQ(result.sync.tiles, tiles);
}

TEST_P(ScanProtocolTest, ChainedScanComputesExclusivePrefixes) {
  const u32 tiles = GetParam();
  const auto values = randomValues(tiles, 7);
  std::vector<u64> expected(tiles);
  exclusiveScan(values, expected);

  ChainedScanState state(tiles);
  std::vector<u64> got(tiles, ~u64{0});
  gpusim::Launcher launcher;
  const auto result = launcher.launch(
      tiles,
      [&](gpusim::BlockCtx& ctx) {
        got[ctx.blockIdx] = state.processTile(
            ctx.blockIdx, values[ctx.blockIdx], ctx.sync, ctx.mem);
      },
      1);
  EXPECT_EQ(got, expected);
  EXPECT_EQ(result.sync.method, gpusim::SyncMethod::ChainedScan);
}

INSTANTIATE_TEST_SUITE_P(TileCounts, ScanProtocolTest,
                         ::testing::Values(1, 2, 3, 8, 64, 257, 1024));

TEST(Lookback, SingleTileReturnsZero) {
  LookbackState state(1);
  gpusim::SyncStats sync;
  gpusim::MemCounters mem;
  EXPECT_EQ(state.processTile(0, 123, sync, mem), 0u);
  EXPECT_EQ(state.waitInclusivePrefix(0), 123u);
}

TEST(Lookback, InclusivePrefixMatchesReduction) {
  const u32 tiles = 100;
  const auto values = randomValues(tiles, 9);
  LookbackState state(tiles);
  gpusim::Launcher launcher;
  launcher.launch(tiles, [&](gpusim::BlockCtx& ctx) {
    state.processTile(ctx.blockIdx, values[ctx.blockIdx], ctx.sync, ctx.mem);
  });
  EXPECT_EQ(state.waitInclusivePrefix(tiles - 1), reduce(values));
}

TEST(Lookback, ResetAllowsReuse) {
  LookbackState state(4);
  gpusim::Launcher launcher;
  for (int round = 0; round < 3; ++round) {
    state.reset();
    launcher.launch(4, [&](gpusim::BlockCtx& ctx) {
      state.processTile(ctx.blockIdx, 10, ctx.sync, ctx.mem);
    });
    EXPECT_EQ(state.waitInclusivePrefix(3), 40u);
  }
}

TEST(Lookback, RejectsOversizedAggregate) {
  LookbackState state(2);
  gpusim::SyncStats sync;
  gpusim::MemCounters mem;
  EXPECT_THROW(state.processTile(0, u64{1} << 63, sync, mem), Error);
}

TEST(Lookback, RejectsOutOfRangeTile) {
  LookbackState state(2);
  gpusim::SyncStats sync;
  gpusim::MemCounters mem;
  EXPECT_THROW(state.processTile(5, 1, sync, mem), Error);
}

TEST(Lookback, StatsRecordDepth) {
  const u32 tiles = 64;
  LookbackState state(tiles);
  gpusim::Launcher launcher;
  const auto result = launcher.launch(
      tiles,
      [&](gpusim::BlockCtx& ctx) {
        state.processTile(ctx.blockIdx, 1, ctx.sync, ctx.mem);
      },
      1);
  EXPECT_GE(result.sync.lookbackSteps, tiles - 1);  // every tile >= 1 step
  EXPECT_GE(result.sync.maxLookbackDepth, 1u);
  EXPECT_LT(result.sync.maxLookbackDepth, tiles);
}

// Stress: repeated concurrent scans with adversarial value patterns.
TEST(Lookback, StressManyRounds) {
  gpusim::Launcher launcher;
  for (u64 seed = 0; seed < 10; ++seed) {
    const u32 tiles = 128;
    const auto values = randomValues(tiles, seed, 1u << 20);
    std::vector<u64> expected(tiles);
    exclusiveScan(values, expected);
    LookbackState state(tiles);
    std::vector<u64> got(tiles);
    launcher.launch(
        tiles,
        [&](gpusim::BlockCtx& ctx) {
          got[ctx.blockIdx] = state.processTile(
              ctx.blockIdx, values[ctx.blockIdx], ctx.sync, ctx.mem);
        },
        1);
    ASSERT_EQ(got, expected) << "seed " << seed;
  }
}

// ---- Device-scan driver --------------------------------------------------

class DeviceScanTest
    : public ::testing::TestWithParam<std::tuple<usize, u32, Algorithm>> {};

TEST_P(DeviceScanTest, MatchesCpuReference) {
  const auto [n, tileSize, algo] = GetParam();
  const auto values = randomValues(n, 1234 + n);
  std::vector<u64> expected(n);
  exclusiveScan(values, expected);

  gpusim::Launcher launcher;
  const auto result = deviceExclusiveScan(values, tileSize, algo, launcher);
  EXPECT_EQ(result.exclusive, expected);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DeviceScanTest,
    ::testing::Combine(::testing::Values<usize>(0, 1, 31, 32, 1000, 4096,
                                                65537),
                       ::testing::Values<u32>(1, 32, 128),
                       ::testing::Values(Algorithm::ChainedScan,
                                         Algorithm::DecoupledLookback,
                                         Algorithm::ReduceThenScan)));

TEST(DeviceScan, LookbackHasLowerModeledSyncCost) {
  const auto values = randomValues(100000, 5);
  gpusim::Launcher launcher;
  const auto chained =
      deviceExclusiveScan(values, 128, Algorithm::ChainedScan, launcher);
  const auto lookback = deviceExclusiveScan(
      values, 128, Algorithm::DecoupledLookback, launcher);
  const gpusim::TimingModel model(gpusim::a100_40gb());
  EXPECT_LT(model.syncSeconds(lookback.launch.sync),
            model.syncSeconds(chained.launch.sync));
}

TEST(DeviceScan, ReduceThenScanCostOrdering) {
  // At compression-tile data coverage (16 KiB/tile), decoupled lookback
  // is strictly fastest and reduce-then-scan's re-staging keeps it in
  // chained-scan territory — chained scan replaced RTS as the
  // "state-of-the-art" the paper benchmarks against (Sec. IV-C), and
  // lookback beats both.
  const auto values = randomValues(100000, 15);
  gpusim::Launcher launcher;
  const gpusim::TimingModel model(gpusim::a100_40gb());
  const f64 chained = model.syncSeconds(
      deviceExclusiveScan(values, 128, Algorithm::ChainedScan, launcher)
          .launch.sync);
  const f64 lookback = model.syncSeconds(
      deviceExclusiveScan(values, 128, Algorithm::DecoupledLookback,
                          launcher)
          .launch.sync);
  auto rtsResult =
      deviceExclusiveScan(values, 128, Algorithm::ReduceThenScan, launcher);
  rtsResult.launch.sync.tileDataBytes = 16384;  // compression-tile coverage
  const f64 rts = model.syncSeconds(rtsResult.launch.sync);
  EXPECT_LT(lookback, rts);
  EXPECT_LT(lookback, chained);
  EXPECT_GT(rts, chained * 0.5);
  EXPECT_LT(rts, chained * 2.0);
}

TEST(DeviceScan, ReduceThenScanRecordsMethodAndTiles) {
  const auto values = randomValues(1000, 16);
  gpusim::Launcher launcher;
  const auto r =
      deviceExclusiveScan(values, 128, Algorithm::ReduceThenScan, launcher);
  EXPECT_EQ(r.launch.sync.method, gpusim::SyncMethod::ReduceThenScan);
  EXPECT_EQ(r.launch.sync.tiles, 8u);
  EXPECT_GT(r.launch.sync.tileDataBytes, 0u);
  // Three kernels => the values round-trip: read twice, written once.
  EXPECT_GE(r.launch.mem.bytesRead, 2 * values.size() * 8);
}

TEST(DeviceScan, CompressorRejectsReduceThenScan) {
  core::Config cfg;
  cfg.absErrorBound = 1e-3;
  cfg.syncAlgorithm = Algorithm::ReduceThenScan;
  EXPECT_THROW(core::CompressorStream{cfg}, Error);
}

TEST(DeviceScan, RejectsZeroTileSize) {
  gpusim::Launcher launcher;
  const std::vector<u64> values = {1, 2, 3};
  EXPECT_THROW(
      deviceExclusiveScan(values, 0, Algorithm::ChainedScan, launcher),
      Error);
}

}  // namespace
}  // namespace cuszp2::scan
