// Tests for the zero-allocation hot path: the scratch arena, reusable
// CompressorStream (growing/shrinking inputs, precision alternation,
// exception recovery, steady-state allocation behaviour, nested
// launches), and the worker-pool environment override.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <vector>

#include "common/arena.hpp"
#include "common/error.hpp"
#include "common/thread_pool.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/launcher.hpp"
#include "scan/lookback.hpp"

namespace cuszp2::core {
namespace {

// ---- Arena ----------------------------------------------------------------

TEST(Arena, AllocationsAreAlignedAndBumped) {
  Arena arena;
  void* a = arena.allocate(1);
  void* b = arena.allocate(100);
  void* c = arena.allocate(64);
  for (void* p : {a, b, c}) {
    EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % Arena::kAlignment, 0u);
  }
  // Small allocations come from one slab, bump-style.
  EXPECT_EQ(arena.stats().slabAllocations, 1u);
  EXPECT_EQ(static_cast<std::byte*>(b) - static_cast<std::byte*>(a), 64);
  EXPECT_EQ(arena.bytesInUse(), 64u + 128u + 64u);
}

TEST(Arena, ResetCoalescesIntoOneSlab) {
  Arena arena;
  // Force several slabs: each allocation exceeds what remains in the last.
  arena.allocate(Arena::kMinSlabBytes);
  arena.allocate(Arena::kMinSlabBytes + 1);
  arena.allocate(3 * Arena::kMinSlabBytes);
  const u64 grownSlabs = arena.stats().slabAllocations;
  EXPECT_GT(grownSlabs, 1u);
  const usize peak = arena.stats().highWater;

  // Coalescing reset: one more slab sized to the high-water mark...
  arena.reset();
  EXPECT_EQ(arena.stats().slabAllocations, grownSlabs + 1);
  EXPECT_GE(arena.stats().bytesReserved, peak);
  EXPECT_EQ(arena.bytesInUse(), 0u);

  // ...after which the same peak usage allocates nothing new.
  arena.allocate(peak);
  arena.reset();
  arena.allocate(peak);
  EXPECT_EQ(arena.stats().slabAllocations, grownSlabs + 1);
}

TEST(Arena, AllocSpanIsUsableAndEmptyOnZero) {
  Arena arena;
  auto span = arena.allocSpan<i32>(1000);
  ASSERT_EQ(span.size(), 1000u);
  for (usize i = 0; i < span.size(); ++i) span[i] = static_cast<i32>(i);
  EXPECT_EQ(span[999], 999);
  EXPECT_TRUE(arena.allocSpan<i32>(0).empty());
  // std::atomic is not trivially constructible: allocSpan must run ctors.
  auto atomics = arena.allocSpan<std::atomic<u64>>(8);
  atomics[0].store(7);
  EXPECT_EQ(atomics[0].load(), 7u);
}

// ---- CompressorStream reuse ----------------------------------------------

Config testConfig() {
  Config cfg;
  cfg.absErrorBound = 1e-3;
  return cfg;
}

// Compares the warm, reused `stream` against freshly constructed (cold)
// streams, one per call, so warm scratch can never leak into the bytes.
template <FloatingPoint T>
void expectRoundTripMatchesOneShot(CompressorStream& stream,
                                   std::span<const T> data) {
  const auto expected = CompressorStream(stream.config()).compress<T>(data);
  const auto actual = stream.compress<T>(data);
  ASSERT_EQ(actual.stream, expected.stream);
  const auto decoded = stream.decompress<T>(actual.stream);
  const auto expectedDecoded =
      CompressorStream(stream.config()).decompress<T>(expected.stream);
  ASSERT_EQ(decoded.data, expectedDecoded.data);
}

TEST(StreamReuse, GrowingAndShrinkingSizesMatchOneShot) {
  CompressorStream stream(testConfig());
  // Grow, shrink, regrow — including empty and non-block-multiple sizes.
  for (usize n : {usize{64}, usize{100000}, usize{31}, usize{0}, usize{4097},
                  usize{257}, usize{100000}}) {
    const auto data = datagen::generateF32("miranda", 0, std::max<usize>(n, 1));
    expectRoundTripMatchesOneShot<f32>(
        stream, std::span<const f32>(data.data(), n));
  }
}

TEST(StreamReuse, AlternatingPrecisionsMatchOneShot) {
  CompressorStream stream(testConfig());
  const auto data32 = datagen::generateF32("miranda", 0, 5000);
  const auto data64 = datagen::generateF64("s3d", 0, 3000);
  for (int round = 0; round < 3; ++round) {
    expectRoundTripMatchesOneShot<f32>(stream, data32);
    expectRoundTripMatchesOneShot<f64>(stream, data64);
  }
}

TEST(StreamReuse, ExceptionLeavesStreamReusable) {
  Config cfg;
  cfg.absErrorBound = 1e-12;  // quantizing ~1e0 values overflows i32 range
  CompressorStream stream(cfg);
  const auto data = datagen::generateF32("miranda", 0, 10000);
  EXPECT_THROW(stream.compress<f32>(std::span<const f32>(data)), Error);

  // The stream recovers: next calls succeed and stay byte-identical.
  stream.reconfigure(testConfig());
  expectRoundTripMatchesOneShot<f32>(stream, std::span<const f32>(data));
}

TEST(StreamReuse, SteadyStatePerformsNoArenaAllocations) {
  CompressorStream stream(testConfig());
  const auto big = datagen::generateF32("miranda", 0, 1 << 16);
  const auto small = datagen::generateF32("nyx", 0, 1 << 12);

  // Warm-up at the peak size: one compress grows the arena, the following
  // reset coalesces it into a single high-water slab.
  auto compressed = stream.compress<f32>(std::span<const f32>(big));
  stream.decompress<f32>(compressed.stream);
  const u64 warmSlabs = stream.arenaStats().slabAllocations;

  for (int round = 0; round < 5; ++round) {
    auto c = stream.compress<f32>(std::span<const f32>(big));
    stream.decompress<f32>(c.stream);
    stream.decompressBlocks<f32>(c.stream, 3, 17);
    stream.compress<f32>(std::span<const f32>(small));
  }
  // Zero heap allocations in steady state: the slab counter is unchanged
  // while resets keep ticking.
  EXPECT_EQ(stream.arenaStats().slabAllocations, warmSlabs);
  EXPECT_GT(stream.arenaStats().resets, 5u);
}

// ---- Nested launches on the shared pool ---------------------------------

TEST(LaunchBatch, NestedLaunchOnSharedPoolRunsInline) {
  // A kernel body launching another grid on the same pool must not
  // deadlock (every worker could be blocked in a nested wait); the
  // launcher runs nested grids inline on the calling thread instead.
  gpusim::Launcher launcher;
  const u32 outer = static_cast<u32>(launcher.workerCount()) * 2 + 3;
  const u32 inner = 5;
  std::atomic<u64> hits{0};
  launcher.launch(outer, [&](gpusim::BlockCtx&) {
    gpusim::Launcher nested;
    nested.launch(inner, [&](gpusim::BlockCtx&) {
      hits.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(hits.load(), static_cast<u64>(outer) * inner);
}

// ---- Worker-pool environment override ------------------------------------

TEST(ThreadPoolEnv, WorkerCountOverride) {
  const char* old = std::getenv("CUSZP2_WORKERS");
  const std::string saved = old != nullptr ? old : "";

  ::setenv("CUSZP2_WORKERS", "3", 1);
  EXPECT_EQ(ThreadPool::defaultWorkers(), 3u);
  // An explicit 1 is honoured (serial tile order → deterministic sync
  // stats; the perf-regression harness depends on this).
  ::setenv("CUSZP2_WORKERS", "1", 1);
  EXPECT_EQ(ThreadPool::defaultWorkers(), 1u);
  ::setenv("CUSZP2_WORKERS", "0", 1);  // non-positive: hardware default
  EXPECT_GE(ThreadPool::defaultWorkers(), 2u);
  ::setenv("CUSZP2_WORKERS", "9999", 1);  // above the ceiling: clamped
  EXPECT_EQ(ThreadPool::defaultWorkers(), 64u);
  ::setenv("CUSZP2_WORKERS", "junk", 1);  // unparseable: hardware default
  const usize fallback = ThreadPool::defaultWorkers();
  EXPECT_GE(fallback, 2u);
  EXPECT_LE(fallback, 16u);

  if (old != nullptr) {
    ::setenv("CUSZP2_WORKERS", saved.c_str(), 1);
  } else {
    ::unsetenv("CUSZP2_WORKERS");
  }
}

// A single worker must make forward progress through the decoupled
// lookback protocol (tiles only wait on earlier tiles, and one FIFO
// worker runs them in order), and the resulting sync stats must be the
// deterministic serial ones: depth 1 everywhere, zero wait spins.
TEST(ThreadPoolEnv, SingleWorkerLookbackIsSerialAndDeterministic) {
  ThreadPool pool(1);
  gpusim::Launcher launcher(pool);
  constexpr u32 kTiles = 64;
  scan::LookbackState state(kTiles);
  std::vector<u64> exclusive(kTiles);
  const auto result = launcher.launch(kTiles, [&](gpusim::BlockCtx& ctx) {
    exclusive[ctx.blockIdx] =
        state.processTile(ctx.blockIdx, 10, ctx.sync, ctx.mem);
  });
  for (u32 t = 0; t < kTiles; ++t) {
    EXPECT_EQ(exclusive[t], 10u * t);
  }
  EXPECT_EQ(result.sync.maxLookbackDepth, 1u);
  EXPECT_EQ(result.sync.waitSpins, 0u);
}

}  // namespace
}  // namespace cuszp2::core
