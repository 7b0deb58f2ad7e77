#include "distributed/allreduce.hpp"

#include <algorithm>
#include <memory>

#include <cmath>

#include "common/error.hpp"
#include "core/stream.hpp"
#include "telemetry/metrics.hpp"

namespace cuszp2::distributed {

RingAllreduce::RingAllreduce(u32 devices, LinkSpec link)
    : devices_(devices), link_(link) {
  require(devices >= 2, "RingAllreduce: need at least 2 devices");
}

std::vector<f32> RingAllreduce::exactSum(
    const std::vector<std::vector<f32>>& gradients) {
  require(!gradients.empty(), "RingAllreduce: no gradients");
  std::vector<f32> out(gradients[0].size(), 0.0f);
  for (const auto& g : gradients) {
    require(g.size() == out.size(), "RingAllreduce: length mismatch");
    for (usize i = 0; i < out.size(); ++i) out[i] += g[i];
  }
  return out;
}

ExchangeCodec rawCodec() {
  ExchangeCodec codec;
  codec.name = "uncompressed";
  codec.transform = [](std::span<const f32> values,
                       std::vector<f32>& reconstructed, u64& wireBytes,
                       f64& codecSeconds) {
    reconstructed.assign(values.begin(), values.end());
    wireBytes = values.size() * sizeof(f32);
    codecSeconds = 0.0;
  };
  return codec;
}

ExchangeCodec cuszp2StreamCodec(f64 absErrorBound, gpusim::DeviceSpec device) {
  core::Config cfg;
  cfg.absErrorBound = absErrorBound;
  auto stream =
      std::make_shared<core::CompressorStream>(cfg, std::move(device));

  ExchangeCodec codec;
  codec.name = "cuSZp2-O";
  codec.transform = [stream](std::span<const f32> values,
                             std::vector<f32>& reconstructed, u64& wireBytes,
                             f64& codecSeconds) {
    const auto c = stream->compress<f32>(values);
    auto d = stream->decompress<f32>(c.stream);
    wireBytes = c.stream.size();
    codecSeconds = c.profile.endToEndSeconds + d.profile.endToEndSeconds;
    reconstructed = std::move(d.data);
  };
  return codec;
}

AllreduceResult RingAllreduce::run(
    const std::vector<std::vector<f32>>& gradients,
    const ExchangeCodec& codec, f64 perHopErrorBound) const {
  require(gradients.size() == devices_,
          "RingAllreduce: gradient count must equal device count");
  const usize n = gradients[0].size();
  for (const auto& g : gradients) {
    require(g.size() == n, "RingAllreduce: gradient length mismatch");
  }
  require(n % devices_ == 0,
          "RingAllreduce: vector length must divide into device count");
  require(static_cast<bool>(codec.transform),
          "RingAllreduce: codec has no transform");

  const usize chunk = n / devices_;
  const u32 P = devices_;

  // Working copy per device.
  std::vector<std::vector<f32>> buf = gradients;

  AllreduceResult result;
  std::vector<f32> wire;  // reconstructed payload of one transfer

  auto chunkSpan = [&](u32 device, u32 c) {
    return std::span<f32>(buf[device].data() + static_cast<usize>(c) * chunk,
                          chunk);
  };

  // Runs one ring step's P concurrent sends: device d ships chunk
  // sendChunkOf(d) to its right neighbour. Fills `incoming[d]` with what
  // device d receives, accumulates wire bytes, and returns the step's
  // critical-path time (slowest codec + link pair; the step is a
  // synchronization point).
  auto exchangeStep = [&](auto sendChunkOf,
                          std::vector<std::vector<f32>>& incoming) -> f64 {
    f64 stepSeconds = 0.0;
    f64 roundCodecSeconds = 0.0;  // critical-path codec time of this round
    u64 roundWireBytes = 0;
    for (u32 d = 0; d < P; ++d) {
      u64 bytes = 0;
      f64 codecSeconds = 0.0;
      codec.transform(chunkSpan(d, sendChunkOf(d)), wire, bytes,
                      codecSeconds);
      incoming[(d + 1) % P] = wire;
      result.wireBytes += bytes;
      roundWireBytes += bytes;
      roundCodecSeconds = std::max(roundCodecSeconds, codecSeconds);
      stepSeconds = std::max(stepSeconds,
                             codecSeconds + link_.transferSeconds(bytes));
    }
    // Per-round telemetry: the round's critical-path codec time (in µs,
    // the histogram is integer-valued) and the ring's wire traffic.
    telemetry::MetricsRegistry& reg = telemetry::registry();
    reg.histogram("allreduce.round_codec_us")
        .record(static_cast<u64>(std::llround(roundCodecSeconds * 1e6)));
    reg.counter("allreduce.steps").add(1);
    reg.counter("allreduce.wire_bytes").add(roundWireBytes);
    return stepSeconds;
  };

  // ---- Reduce-scatter: P-1 steps ---------------------------------------
  for (u32 step = 0; step < P - 1; ++step) {
    // Compute all sends of this step before applying receives (devices
    // run concurrently; the step is a synchronization point).
    std::vector<std::vector<f32>> incoming(P);
    const f64 stepSeconds = exchangeStep(
        [&](u32 d) { return (d + P - step) % P; }, incoming);
    for (u32 d = 0; d < P; ++d) {
      const u32 recvChunk = (d + 2 * P - step - 1) % P;
      auto dst = chunkSpan(d, recvChunk);
      const auto& src = incoming[d];
      require(src.size() == dst.size(), "RingAllreduce: bad wire size");
      for (usize i = 0; i < dst.size(); ++i) dst[i] += src[i];
    }
    result.seconds += stepSeconds;
  }

  // After reduce-scatter, device d owns fully reduced chunk (d+1) mod P.
  // ---- All-gather: P-1 steps --------------------------------------------
  for (u32 step = 0; step < P - 1; ++step) {
    std::vector<std::vector<f32>> incoming(P);
    const f64 stepSeconds = exchangeStep(
        [&](u32 d) { return (d + 1 + P - step) % P; }, incoming);
    for (u32 d = 0; d < P; ++d) {
      // The sender was device (d - 1 + P) % P; reconstruct which chunk it
      // shipped so the receive lands in place.
      const u32 sender = (d + P - 1) % P;
      const u32 recvChunk = (sender + 1 + P - step) % P;
      auto dst = chunkSpan(d, recvChunk);
      const auto& src = incoming[d];
      require(src.size() == dst.size(), "RingAllreduce: bad wire size");
      std::copy(src.begin(), src.end(), dst.begin());
    }
    result.seconds += stepSeconds;
  }

  // All devices now hold the full reduced vector; they agree up to the
  // lossy exchanges. Report device 0's copy.
  result.reduced = std::move(buf[0]);
  const f64 idealBytes = 2.0 * (P - 1) / P * static_cast<f64>(n) * 4.0;
  result.algbwGBps =
      result.seconds > 0.0 ? idealBytes / result.seconds / 1e9 : 0.0;
  // Each reduce-scatter hop adds one quantization error; the gather pass
  // adds one more (re-quantization of already-quantized data is
  // idempotent, so forwarding is lossless afterwards).
  result.errorBound = perHopErrorBound * static_cast<f64>(P);
  return result;
}

}  // namespace cuszp2::distributed
