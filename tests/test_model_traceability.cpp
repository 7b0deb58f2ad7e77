// Traceability tests: the worked equations documented in docs/MODEL.md
// must match what TimingModel actually computes, term by term. If the
// model changes, either these tests or the document must change with it.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "gpusim/device_spec.hpp"
#include "gpusim/timing.hpp"
#include "telemetry/trace.hpp"

namespace cuszp2::gpusim {
namespace {

TEST(ModelTraceability, BandwidthTerm) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.coalescedTransactions = 1'000'000;
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  // t_bandwidth = transactions * 32 B / 1555 GB/s
  EXPECT_NEAR(t.bandwidthSeconds, 1e6 * 32.0 / 1555e9, 1e-12);
}

TEST(ModelTraceability, IssueTerm) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.scalarLoadInstr = 90'000'000;  // one millisecond at 90 G/s
  SyncStats sync;
  EXPECT_NEAR(model.kernel(mem, sync).issueSeconds, 1e-3, 1e-9);
}

TEST(ModelTraceability, ComputeTerm) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.arithmeticOps = 2'000'000'000;  // one millisecond at 2 T/s
  SyncStats sync;
  EXPECT_NEAR(model.kernel(mem, sync).computeSeconds, 1e-3, 1e-9);
}

TEST(ModelTraceability, OverlappingTermsTakeTheMax) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.coalescedTransactions = 1'000'000;   // ~20.6 us
  mem.vectorLoadInstr = 90'000;            // 1 us
  mem.arithmeticOps = 2'000'000;           // 1 us
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  EXPECT_DOUBLE_EQ(t.totalSeconds,
                   t.bandwidthSeconds + t.launchSeconds);  // bw dominates
}

TEST(ModelTraceability, SerializingTermsAdd) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.atomicOps = 1'200'000;   // 1 ms at 1.2 G/s
  mem.memsetBytes = 2'000'000; // 1 us at 2000 GB/s
  SyncStats sync;
  sync.method = SyncMethod::ChainedScan;
  sync.tiles = 1000;           // 45 us at 45 ns/hop
  const auto t = model.kernel(mem, sync);
  EXPECT_NEAR(t.totalSeconds,
              t.atomicSeconds + t.memsetSeconds + t.syncSeconds +
                  t.launchSeconds,
              1e-12);
  EXPECT_NEAR(t.atomicSeconds, 1e-3, 1e-9);
  EXPECT_NEAR(t.syncSeconds, 1000 * 45e-9, 1e-12);
}

TEST(ModelTraceability, LookbackEquation) {
  const TimingModel model(a100_40gb());
  SyncStats sync;
  sync.method = SyncMethod::DecoupledLookback;
  sync.tiles = 2600;
  sync.maxLookbackDepth = 10;  // observed depth: telemetry, not charged
  // tiles * 45 ns / 2.6 + 1 * 45 ns (the serial depth)
  EXPECT_NEAR(model.syncSeconds(sync), 2600 * 45e-9 / 2.6 + 1 * 45e-9,
              1e-12);
  sync.tiles = 1;  // a lone tile has no predecessor to look back at
  EXPECT_NEAR(model.syncSeconds(sync), 45e-9 / 2.6, 1e-12);
}

TEST(ModelTraceability, ReduceThenScanEquation) {
  const TimingModel model(a100_40gb());
  SyncStats sync;
  sync.method = SyncMethod::ReduceThenScan;
  sync.tiles = 1000;
  sync.tileDataBytes = 16384;
  // 2 launches + tiles * bytes * 2 / BW + tiles * 2 ns
  EXPECT_NEAR(model.syncSeconds(sync),
              2 * 6e-6 + 1000.0 * 16384 * 2 / 1555e9 + 1000 * 2e-9, 1e-12);
}

TEST(ModelTraceability, CalibrationAnchors) {
  // The MODEL.md anchor claims, verified numerically.
  const auto spec = a100_40gb();
  EXPECT_EQ(spec.memBandwidthGBps, 1555.0);  // A100 datasheet
  // Chained-scan sync throughput of a 16 KiB tile at 45 ns/hop ~ 364 GB/s.
  EXPECT_NEAR(16384.0 / (spec.chainHopNs * 1e-9) / 1e9, 364.1, 0.5);
  // Lookback overlap reproduces the ~2.4-2.6x Fig. 17 speedup regime.
  EXPECT_GE(spec.lookbackOverlap, 2.4);
  EXPECT_LE(spec.lookbackOverlap, 2.8);
}

TEST(ModelTraceability, MemThroughputIncludesHierarchyBytes) {
  const TimingModel model(a100_40gb());
  MemCounters mem;
  mem.noteVectorRead(1'000'000, 32);
  mem.noteL1(3'000'000);
  SyncStats sync;
  const auto t = model.kernel(mem, sync);
  EXPECT_NEAR(t.memThroughputGBps,
              4'000'000 / t.totalSeconds / 1e9, 1e-6);
}

// ---- composition: a call's modelled time is its kernels plus its passes --

/// One traced call's launches: per kernel name, the launch count, the
/// summed modelled seconds, and the last launch's bytes written.
struct TracedKernels {
  std::map<std::string, int> launches;
  std::map<std::string, f64> seconds;
  std::map<std::string, f64> bytesWritten;
};

TracedKernels tracedKernels(const telemetry::TraceSession& trace) {
  TracedKernels k;
  for (const telemetry::TraceEvent& e : trace.events()) {
    if (e.phase != 'X') continue;
    k.launches[e.name] += 1;
    for (const auto& a : e.args) {
      if (a.key == "modelled_seconds") k.seconds[e.name] += a.number;
      if (a.key == "bytes_written") k.bytesWritten[e.name] = a.number;
    }
  }
  return k;
}

/// MODEL.md's kDigestOpsPerByte: ops charged per byte the in-kernel
/// per-block digest covers (descriptor + payload).
constexpr u64 kDigestOpsPerByte = 4;

/// A v3 compress is exactly its two kernels, plus the REL range pass only
/// under a REL bound and the stream CRC-32 pass only with `checksum`: the
/// per-block footer is taken inside v3_encode, so no hidden integrity pass
/// may appear in the end-to-end time.
TEST(ModelTraceability, V3CompressIsTwoKernelsPlusRequestedPasses) {
  const std::vector<f32> field = datagen::generateF32("cesm_atm", 0, 1 << 14);
  const u64 inputBytes = field.size() * sizeof(f32);
  for (const bool rel : {false, true}) {
    for (const bool checksum : {false, true}) {
      core::Config cfg;
      cfg.pipeline = core::PipelineMode::Auto;
      cfg.absErrorBound = rel ? 0.0 : 1e-3;
      cfg.checksum = checksum;
      telemetry::TraceSession trace;
      core::Compressed c;
      {
        telemetry::ScopedTrace scoped(trace);
        core::CompressorStream codec(cfg);
        c = codec.compress<f32>(std::span<const f32>(field));
      }
      TracedKernels k = tracedKernels(trace);
      ASSERT_EQ(k.launches.size(), 2u) << rel << checksum;
      ASSERT_EQ(k.launches["v3_analyze"], 1);
      ASSERT_EQ(k.launches["v3_encode"], 1);

      const DeviceSpec spec = a100_40gb();
      const f64 passes =
          (rel ? modelledPassSeconds(inputBytes, spec, 1.0) : 0.0) +
          (checksum ? modelledPassSeconds(c.stream.size(), spec, 1.0) : 0.0);
      EXPECT_DOUBLE_EQ(c.profile.endToEndSeconds,
                       k.seconds["v3_analyze"] +
                           (k.seconds["v3_encode"] + passes))
          << "rel " << rel << " checksum " << checksum;

      // The encode kernel writes the payload, one descriptor byte and the
      // 2 footer bytes per block.
      const core::StreamHeader header = core::StreamHeader::parse(c.stream);
      const u64 payloadBytes =
          c.stream.size() - header.payloadBegin() - header.footerBytes();
      EXPECT_EQ(k.bytesWritten["v3_encode"],
                static_cast<f64>(payloadBytes + 3 * header.numBlocks()));
    }
  }
}

/// A v3 full decode is exactly its one kernel, plus the stream CRC-32 pass
/// only when the stream carries one; the per-block digests are checked in
/// the kernel, whose counters carry their footer reads and ops.
TEST(ModelTraceability, V3DecodeIsOneKernelPlusStreamCrcPass) {
  const std::vector<f32> field = datagen::generateF32("jetin", 0, 1 << 14);
  for (const bool checksum : {false, true}) {
    core::Config cfg;
    cfg.pipeline = core::PipelineMode::Auto;
    cfg.absErrorBound = 1e-3;
    cfg.checksum = checksum;
    core::CompressorStream codec(cfg);
    const auto c = codec.compress<f32>(std::span<const f32>(field));

    telemetry::TraceSession trace;
    core::Decompressed<f32> d;
    {
      telemetry::ScopedTrace scoped(trace);
      d = codec.decompress<f32>(c.stream);
    }
    TracedKernels k = tracedKernels(trace);
    ASSERT_EQ(k.launches.size(), 1u) << checksum;
    ASSERT_EQ(k.launches["v3_decompress"], 1);
    const f64 crcPass =
        checksum ? modelledPassSeconds(c.stream.size(), a100_40gb(), 1.0)
                 : 0.0;
    EXPECT_DOUBLE_EQ(d.profile.endToEndSeconds,
                     k.seconds["v3_decompress"] + crcPass)
        << "checksum " << checksum;

    // Every block's descriptor and payload is digested and its 2 footer
    // bytes read; zero blocks are flushed by memset and not decoded.
    const core::StreamHeader header = core::StreamHeader::parse(c.stream);
    const u64 numBlocks = header.numBlocks();
    const u64 payloadBytes =
        c.stream.size() - header.payloadBegin() - header.footerBytes();
    const u64 decodedElems =
        field.size() - d.profile.mem.memsetBytes / sizeof(f32);
    EXPECT_EQ(d.profile.mem.bytesRead, payloadBytes + 3 * numBlocks);
    EXPECT_EQ(d.profile.mem.arithmeticOps,
              decodedElems * 8 +
                  (numBlocks + payloadBytes) * kDigestOpsPerByte);
  }
}

/// A v2 full decode is likewise its one lookback kernel, plus the stream
/// CRC-32 pass only when the stream carries one: the kernel checks each
/// block's footer digest once the scan has positioned it, so no separate
/// footer pass is charged. Against the v1 stream of the same field (the
/// same offsets and payload, no footer) the kernel's ops grow by exactly
/// the digested bytes; the lookback charges no ops, so this is
/// independent of tile completion order.
TEST(ModelTraceability, V2DecodeIsOneKernelPlusStreamCrcPass) {
  const std::vector<f32> field = datagen::generateF32("jetin", 0, 1 << 14);
  for (const bool checksum : {false, true}) {
    core::Config cfg;
    cfg.absErrorBound = 1e-3;
    cfg.checksum = checksum;
    core::CompressorStream v1codec(cfg);
    const auto v1 = v1codec.compress<f32>(std::span<const f32>(field));
    cfg.blockChecksums = true;
    core::CompressorStream codec(cfg);
    const auto c = codec.compress<f32>(std::span<const f32>(field));

    telemetry::TraceSession trace;
    core::Decompressed<f32> d;
    {
      telemetry::ScopedTrace scoped(trace);
      d = codec.decompress<f32>(c.stream);
    }
    TracedKernels k = tracedKernels(trace);
    ASSERT_EQ(k.launches.size(), 1u) << checksum;
    ASSERT_EQ(k.launches["decompress"], 1);
    const f64 crcPass =
        checksum ? modelledPassSeconds(c.stream.size(), a100_40gb(), 1.0)
                 : 0.0;
    EXPECT_DOUBLE_EQ(d.profile.endToEndSeconds,
                     k.seconds["decompress"] + crcPass)
        << "checksum " << checksum;

    const core::StreamHeader header = core::StreamHeader::parse(c.stream);
    const u64 numBlocks = header.numBlocks();
    const u64 payloadBytes =
        c.stream.size() - header.payloadBegin() - header.footerBytes();
    const auto plain = v1codec.decompress<f32>(v1.stream);
    EXPECT_EQ(d.profile.mem.arithmeticOps,
              plain.profile.mem.arithmeticOps +
                  (numBlocks + payloadBytes) * kDigestOpsPerByte);
    EXPECT_EQ(d.data, plain.data);
  }
}

}  // namespace
}  // namespace cuszp2::gpusim
