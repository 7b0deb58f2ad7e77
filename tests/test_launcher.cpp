// Unit tests for the gpusim kernel launcher: coverage, counter reduction,
// in-order block claiming, and concurrency behaviour.
#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

#include "gpusim/launcher.hpp"

namespace cuszp2::gpusim {
namespace {

TEST(Launcher, EveryBlockRunsExactlyOnce) {
  Launcher launcher;
  std::vector<std::atomic<int>> hits(1000);
  const auto result = launcher.launch(1000, [&](BlockCtx& ctx) {
    hits[ctx.blockIdx].fetch_add(1, std::memory_order_relaxed);
    EXPECT_EQ(ctx.gridSize, 1000u);
  });
  EXPECT_EQ(result.gridSize, 1000u);
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Launcher, ZeroGridIsNoop) {
  Launcher launcher;
  const auto result = launcher.launch(0, [](BlockCtx&) { FAIL(); });
  EXPECT_EQ(result.gridSize, 0u);
  EXPECT_EQ(result.mem.totalBytes(), 0u);
}

TEST(Launcher, CountersAreReducedAcrossBlocks) {
  Launcher launcher;
  const auto result = launcher.launch(64, [](BlockCtx& ctx) {
    ctx.mem.noteVectorRead(128, 32);
    ctx.mem.noteOps(10);
  });
  EXPECT_EQ(result.mem.bytesRead, 64u * 128u);
  EXPECT_EQ(result.mem.vectorLoadInstr, 64u * 8u);
  EXPECT_EQ(result.mem.coalescedTransactions, 64u * 4u);
  EXPECT_EQ(result.mem.arithmeticOps, 640u);
}

TEST(Launcher, SyncStatsReduceWithMaxDepth) {
  Launcher launcher;
  const auto result = launcher.launch(8, [](BlockCtx& ctx) {
    ctx.sync.method = SyncMethod::DecoupledLookback;
    ctx.sync.tiles = 1;
    ctx.sync.lookbackSteps = ctx.blockIdx;
    ctx.sync.maxLookbackDepth = ctx.blockIdx;
  });
  EXPECT_EQ(result.sync.tiles, 8u);
  EXPECT_EQ(result.sync.maxLookbackDepth, 7u);
  EXPECT_EQ(result.sync.lookbackSteps, 0u + 1 + 2 + 3 + 4 + 5 + 6 + 7);
}

// Grids smaller than, equal to and larger than the pool: every block is
// claimed exactly once whatever the number of claimers.
TEST(Launcher, EveryGridSizeCoversAllBlocks) {
  Launcher launcher;
  const u32 workers = static_cast<u32>(launcher.workerCount());
  for (u32 grid : {1u, 3u, workers - 1, workers, workers + 1, 257u}) {
    if (grid == 0) continue;
    std::vector<std::atomic<int>> hits(grid);
    launcher.launch(grid, [&](BlockCtx& ctx) {
      hits[ctx.blockIdx].fetch_add(1, std::memory_order_relaxed);
    });
    for (usize i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "block " << i << " grid " << grid;
    }
  }
}

TEST(Launcher, SharedExternalPool) {
  ThreadPool pool(3);
  Launcher a(pool);
  Launcher b(pool);
  std::atomic<int> count{0};
  a.launch(10, [&](BlockCtx&) { ++count; });
  b.launch(10, [&](BlockCtx&) { ++count; });
  EXPECT_EQ(count.load(), 20);
  EXPECT_EQ(a.workerCount(), 3u);
}

// A block may spin-wait on a lower-indexed block's published value; the
// launcher must guarantee progress (this deadlocks if a block can wait on
// one that no worker has started).
TEST(Launcher, BackwardDependenciesMakeProgress) {
  Launcher launcher;
  constexpr u32 kBlocks = 200;
  std::vector<std::atomic<u64>> published(kBlocks);
  for (auto& p : published) p.store(0);
  launcher.launch(
      kBlocks,
      [&](BlockCtx& ctx) {
        u64 sum = 1;
        if (ctx.blockIdx > 0) {
          u64 prev = 0;
          while ((prev = published[ctx.blockIdx - 1].load(
                      std::memory_order_acquire)) == 0) {
            std::this_thread::yield();
          }
          sum += prev;
        }
        published[ctx.blockIdx].store(sum, std::memory_order_release);
      });
  EXPECT_EQ(published[kBlocks - 1].load(), kBlocks);
}

TEST(Launcher, WallTimeIsPositive) {
  Launcher launcher;
  const auto result = launcher.launch(4, [](BlockCtx&) {});
  EXPECT_GT(result.wallSeconds, 0.0);
}

// Two launches issued concurrently from different host threads against
// the same pool must each wait only on their own tasks and produce
// correct, independent results.
TEST(Launcher, ConcurrentLaunchesOnSharedPool) {
  ThreadPool pool(4);
  Launcher a(pool);
  Launcher b(pool);
  std::atomic<int> countA{0};
  std::atomic<int> countB{0};
  std::thread ta([&] {
    for (int round = 0; round < 5; ++round) {
      a.launch(64, [&](BlockCtx& ctx) {
        ctx.mem.noteOps(1);
        ++countA;
      });
    }
  });
  std::thread tb([&] {
    for (int round = 0; round < 5; ++round) {
      b.launch(64, [&](BlockCtx& ctx) {
        ctx.mem.noteOps(2);
        ++countB;
      });
    }
  });
  ta.join();
  tb.join();
  EXPECT_EQ(countA.load(), 5 * 64);
  EXPECT_EQ(countB.load(), 5 * 64);
}

}  // namespace
}  // namespace cuszp2::gpusim
