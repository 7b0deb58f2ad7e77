// Cross-module integration tests: full pipelines over the synthetic
// datasets, stream persistence through the IO layer, consistency between
// full decode and random access, and the paper's headline relationships.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>

#include "common/error.hpp"
#include "baselines/cuszp2_adapter.hpp"
#include "baselines/fzgpu.hpp"
#include "baselines/zfp.hpp"
#include "core/lorenzo_nd.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "io/raw.hpp"
#include "metrics/error_stats.hpp"
#include "metrics/ssim.hpp"

namespace cuszp2 {
namespace {

TEST(Integration, CompressWriteReadDecompress) {
  const auto data = datagen::generateF32("nyx", 2, 1 << 15);
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  core::CompressorStream comp(cfg);
  const auto c = comp.compress<f32>(data);

  const auto path = (std::filesystem::temp_directory_path() /
                     "cuszp2_integration.czp2")
                        .string();
  io::writeBytes(path, c.stream);
  const auto loaded = io::readBytes(path);
  std::remove(path.c_str());
  ASSERT_EQ(loaded, c.stream);

  const auto d = comp.decompress<f32>(loaded);
  const auto header = core::StreamHeader::parse(loaded);
  EXPECT_TRUE(metrics::computeErrorStats<f32>(data, d.data)
                  .withinBoundFp(header.absErrorBound, Precision::F32));
}

TEST(Integration, RandomAccessAgreesWithFullDecodeEverywhere) {
  const auto data = datagen::generateF32("scale", 5, 1 << 14);
  core::Config cfg;
  cfg.relErrorBound = 1e-4;
  core::CompressorStream comp(cfg);
  const auto c = comp.compress<f32>(data);
  const auto full = comp.decompress<f32>(c.stream);
  const auto header = core::StreamHeader::parse(c.stream);

  // Cover the whole stream in irregular chunks.
  u64 blk = 0;
  u64 step = 1;
  while (blk < header.numBlocks()) {
    const u64 count = std::min(step, header.numBlocks() - blk);
    const auto range = comp.decompressBlocks<f32>(c.stream, blk, count);
    for (usize i = 0; i < range.values.size(); ++i) {
      ASSERT_EQ(range.values[i], full.data[range.firstElement + i])
          << "blk " << blk;
    }
    blk += count;
    step = step % 7 + 1;
  }
}

TEST(Integration, ErrorBoundedCompressorsShareReconstruction) {
  // cuSZp2-P, cuSZp2-O and cuSZp v1 share the lossy step: identical
  // reconstructions at the same bound (paper Sec. V-D).
  const auto data = datagen::generateF32("miranda", 0, 1 << 14);
  const auto rP = baselines::Cuszp2Baseline::cuszp2Plain()->run(data, 1e-3);
  const auto rO =
      baselines::Cuszp2Baseline::cuszp2Outlier()->run(data, 1e-3);
  const auto rV1 = baselines::Cuszp2Baseline::cuszpV1()->run(data, 1e-3);
  EXPECT_EQ(rP.reconstructed, rO.reconstructed);
  EXPECT_EQ(rP.reconstructed, rV1.reconstructed);
}

TEST(Integration, HeadlineThroughputOrdering) {
  // Fig. 14 shape: cuSZp2 modes beat cuSZp v1 and FZ-GPU end-to-end.
  const auto data = datagen::generateF32("rtm", 2, 1 << 17);
  const auto rP = baselines::Cuszp2Baseline::cuszp2Plain()->run(data, 1e-3);
  const auto rO =
      baselines::Cuszp2Baseline::cuszp2Outlier()->run(data, 1e-3);
  const auto rV1 = baselines::Cuszp2Baseline::cuszpV1()->run(data, 1e-3);
  const auto rFz = baselines::FzGpuBaseline().run(data, 1e-3);
  EXPECT_GT(rP.compressGBps, rV1.compressGBps);
  EXPECT_GT(rO.compressGBps, rV1.compressGBps);
  EXPECT_GT(rP.compressGBps, rFz.compressGBps);
  EXPECT_GT(rP.decompressGBps, rV1.decompressGBps);
}

TEST(Integration, QualityAtMatchedRatioBeatsZfp) {
  // Fig. 18 shape: at a matched aggressive ratio, the error-bounded
  // compressor preserves structure better than the fixed-rate one.
  const auto data = datagen::generateF32("rtm", 0, 1 << 16);

  // Find a cuSZp2 ratio at REL 1e-3, then run zfp at the same ratio.
  const auto rO =
      baselines::Cuszp2Baseline::cuszp2Outlier()->run(data, 1e-3);
  const f64 matchedRate = 32.0 / rO.ratio;
  if (matchedRate < 0.1) GTEST_SKIP() << "ratio too extreme to match";
  const auto rZ = baselines::ZfpBaseline(matchedRate).run(data, 0.0);

  const f64 ssimO = metrics::ssim<f32>(data, rO.reconstructed);
  const f64 ssimZ = metrics::ssim<f32>(data, rZ.reconstructed);
  EXPECT_GT(ssimO, ssimZ);

  const auto isoO = metrics::isoCrossingFidelity<f32>(
      data, rO.reconstructed, 100.0);
  const auto isoZ = metrics::isoCrossingFidelity<f32>(
      data, rZ.reconstructed, 100.0);
  EXPECT_GE(isoO.matchRatio, isoZ.matchRatio);
}

TEST(Integration, DoublePrecisionFasterThanSingle) {
  // Sec. VI-A: same integer pipeline, double the input bytes => roughly
  // 2x the modelled GB/s.
  core::Config cfg;
  cfg.relErrorBound = 1e-3;
  core::CompressorStream comp(cfg);
  const auto dataF = datagen::generateF32("miranda", 0, 1 << 16);
  std::vector<f64> dataD(dataF.begin(), dataF.end());
  const auto cF = comp.compress<f32>(dataF);
  const auto cD = comp.compress<f64>(dataD);
  EXPECT_GT(cD.profile.endToEndGBps, cF.profile.endToEndGBps * 1.3);
}

TEST(Integration, NdAndOneDAgreeOnErrorBound) {
  const core::Dims3 grid{32, 32, 16};
  const auto data = datagen::generateF32("cesm_atm", 0, grid.count());
  const f64 absEb = core::Quantizer::absFromRel(
      1e-3, metrics::valueRange<f32>(data));

  core::Config cfg1;
  cfg1.absErrorBound = absEb;
  const auto d1 = core::CompressorStream(cfg1).decompress<f32>(
      core::CompressorStream(cfg1).compress<f32>(data).stream);

  core::NdConfig cfg3;
  cfg3.absErrorBound = absEb;
  cfg3.dims = core::LorenzoDims::D3;
  const core::NdCompressor nd(cfg3);
  const auto d3 = nd.decompress<f32>(nd.compress<f32>(data, grid).stream);

  EXPECT_TRUE(metrics::computeErrorStats<f32>(data, d1.data)
                  .withinBoundFp(absEb, Precision::F32));
  EXPECT_TRUE(
      metrics::computeErrorStats<f32>(data, d3).withinBoundFp(absEb, Precision::F32));
}

TEST(Integration, SparseDatasetGetsMemsetFastPath) {
  // JetIn decompression flushes zero blocks with memset (Sec. V-B).
  const auto data = datagen::generateF32("jetin", 0, 1 << 17);
  core::Config cfg;
  cfg.relErrorBound = 1e-2;
  core::CompressorStream comp(cfg);
  const auto c = comp.compress<f32>(data);
  const auto d = comp.decompress<f32>(c.stream);
  EXPECT_GT(d.profile.mem.memsetBytes, data.size());  // many zero blocks
  // And that fast path shows up as higher decompression throughput than a
  // dense dataset of the same size.
  const auto dense = datagen::generateF32("miranda", 0, 1 << 17);
  const auto cDense = comp.compress<f32>(dense);
  const auto dDense = comp.decompress<f32>(cDense.stream);
  EXPECT_GT(d.profile.endToEndGBps, dDense.profile.endToEndGBps);
}

TEST(Integration, DesignMatrixTableI) {
  // Table I self-check: cuSZp2 is pure-GPU (no PCIe/CPU stage in its
  // profile), single kernel, and uses lookback latency control.
  const auto data = datagen::generateF32("qmcpack", 1, 1 << 14);
  core::Config cfg;
  cfg.absErrorBound = 1e-3;  // pre-resolved bound: no range pass needed
  core::CompressorStream comp(cfg);
  const auto c = comp.compress<f32>(data);
  EXPECT_EQ(c.profile.sync.method, gpusim::SyncMethod::DecoupledLookback);
  // End-to-end equals the single kernel + launch overhead: no hidden
  // stages.
  EXPECT_NEAR(c.profile.endToEndSeconds, c.profile.timing.totalSeconds,
              1e-12);
}

}  // namespace
}  // namespace cuszp2
