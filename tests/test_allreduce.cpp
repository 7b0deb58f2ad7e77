// Tests for the simulated ring allreduce with inline compression.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/stream.hpp"
#include "distributed/allreduce.hpp"

namespace cuszp2::distributed {
namespace {

std::vector<std::vector<f32>> makeGradients(u32 devices, usize n, u64 seed) {
  Rng rng(seed);
  std::vector<std::vector<f32>> grads(devices);
  for (auto& g : grads) {
    g.resize(n);
    for (auto& v : g) v = static_cast<f32>(rng.normal(0.0, 1e-2));
  }
  return grads;
}

ExchangeCodec cuszp2Codec(f64 absEb) {
  ExchangeCodec codec;
  codec.name = "cuSZp2-O";
  codec.transform = [absEb](std::span<const f32> values,
                            std::vector<f32>& reconstructed, u64& wireBytes,
                            f64& codecSeconds) {
    core::Config cfg;
    cfg.absErrorBound = absEb;
    core::CompressorStream comp(cfg);
    const auto c = comp.compress<f32>(values);
    auto d = comp.decompress<f32>(c.stream);
    wireBytes = c.stream.size();
    codecSeconds =
        c.profile.endToEndSeconds + d.profile.endToEndSeconds;
    reconstructed = std::move(d.data);
  };
  return codec;
}

TEST(Allreduce, RawMatchesExactSum) {
  for (u32 devices : {2u, 3u, 4u, 8u}) {
    const auto grads = makeGradients(devices, 64 * devices, devices);
    const RingAllreduce ring(devices, LinkSpec{});
    const auto result = ring.run(grads, rawCodec());
    const auto expected = RingAllreduce::exactSum(grads);
    ASSERT_EQ(result.reduced.size(), expected.size());
    for (usize i = 0; i < expected.size(); ++i) {
      ASSERT_NEAR(result.reduced[i], expected[i], 1e-5) << i;
    }
    EXPECT_DOUBLE_EQ(result.errorBound, 0.0);
  }
}

TEST(Allreduce, CompressedStaysWithinReportedBound) {
  const f64 eb = 1e-4;
  for (u32 devices : {2u, 4u}) {
    const auto grads = makeGradients(devices, 256 * devices, 77 + devices);
    const RingAllreduce ring(devices, LinkSpec{});
    const auto result = ring.run(grads, cuszp2Codec(eb), eb);
    const auto expected = RingAllreduce::exactSum(grads);
    EXPECT_DOUBLE_EQ(result.errorBound, eb * devices);
    for (usize i = 0; i < expected.size(); ++i) {
      ASSERT_LE(std::abs(result.reduced[i] - expected[i]),
                result.errorBound * (1.0 + 1e-6) +
                    std::abs(expected[i]) * 1e-6)
          << "device count " << devices << " elem " << i;
    }
  }
}

TEST(Allreduce, CompressionReducesWireBytes) {
  const auto grads = makeGradients(4, 4096, 5);
  const RingAllreduce ring(4, LinkSpec{});
  const auto raw = ring.run(grads, rawCodec());
  const auto compressed = ring.run(grads, cuszp2Codec(1e-4), 1e-4);
  EXPECT_LT(compressed.wireBytes, raw.wireBytes);
}

TEST(Allreduce, CompressionWinsOnSlowLinks) {
  // PCIe-class links: the compressed exchange beats raw wall time once
  // chunks are large enough to amortize the per-hop kernel launches —
  // the paper's Fig. 1 argument at realistic layer sizes.
  const auto grads = makeGradients(4, 1 << 20, 6);
  LinkSpec pcie;
  pcie.bandwidthGBps = 12.0;
  const RingAllreduce ring(4, pcie);
  const auto raw = ring.run(grads, rawCodec());
  const auto compressed = ring.run(grads, cuszp2Codec(1e-4), 1e-4);
  EXPECT_LT(compressed.seconds, raw.seconds);
  EXPECT_GT(compressed.algbwGBps, raw.algbwGBps);
}

TEST(Allreduce, FasterLinksRaiseAlgbw) {
  const auto grads = makeGradients(4, 1 << 14, 7);
  LinkSpec slow;
  slow.bandwidthGBps = 10.0;
  LinkSpec fast;
  fast.bandwidthGBps = 50.0;
  const auto rSlow = RingAllreduce(4, slow).run(grads, rawCodec());
  const auto rFast = RingAllreduce(4, fast).run(grads, rawCodec());
  EXPECT_GT(rFast.algbwGBps, rSlow.algbwGBps);
}

TEST(Allreduce, Validation) {
  EXPECT_THROW(RingAllreduce(1, LinkSpec{}), Error);
  const RingAllreduce ring(3, LinkSpec{});
  // Wrong gradient count.
  EXPECT_THROW(ring.run(makeGradients(2, 6, 1), rawCodec()), Error);
  // Length not divisible by device count.
  EXPECT_THROW(ring.run(makeGradients(3, 7, 1), rawCodec()), Error);
  // Mismatched lengths.
  auto bad = makeGradients(3, 6, 1);
  bad[1].resize(9);
  EXPECT_THROW(ring.run(bad, rawCodec()), Error);
}

TEST(Allreduce, StreamCodecMatchesPerChunkCodec) {
  // The stream-holding codec reuses one warm stream across hops; the
  // reduced vector and wire bytes must match a fresh stream per chunk.
  const f64 eb = 1e-4;
  const auto grads = makeGradients(4, 4096, 11);
  const RingAllreduce ring(4, LinkSpec{});
  const auto perChunk = ring.run(grads, cuszp2Codec(eb), eb);
  const auto streamed = ring.run(grads, cuszp2StreamCodec(eb), eb);
  EXPECT_EQ(streamed.wireBytes, perChunk.wireBytes);
  ASSERT_EQ(streamed.reduced.size(), perChunk.reduced.size());
  for (usize i = 0; i < perChunk.reduced.size(); ++i) {
    ASSERT_EQ(streamed.reduced[i], perChunk.reduced[i]) << i;
  }
  EXPECT_DOUBLE_EQ(streamed.errorBound, eb * 4);
}

TEST(Allreduce, WireBytesAccountsAllHops) {
  const u32 P = 4;
  const usize n = 1024;
  const auto grads = makeGradients(P, n, 8);
  const auto raw = RingAllreduce(P, LinkSpec{}).run(grads, rawCodec());
  // 2*(P-1) steps, P transfers each, chunk bytes each.
  EXPECT_EQ(raw.wireBytes, 2u * (P - 1) * P * (n / P) * 4);
}

}  // namespace
}  // namespace cuszp2::distributed
