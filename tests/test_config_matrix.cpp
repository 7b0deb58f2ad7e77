// Randomized configuration-matrix property test: random fields compressed
// under random valid configurations must always round-trip within the
// bound and decode identically through a default-config compressor (the
// stream is self-describing). This is the broadest invariant sweep in the
// suite — any interaction bug between block size, mode, predictor,
// rounding, sync algorithm, vectorization, and checksums fails here.
#include <gtest/gtest.h>

#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "datagen/fields.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::core {
namespace {

const std::vector<std::string>& corpusDatasets() {
  static const std::vector<std::string> kDatasets = {
      "cesm_atm", "hacc", "rtm", "scale", "qmcpack",
      "nyx",      "jetin", "miranda", "syntruss"};
  return kDatasets;
}

Config randomConfig(Rng& rng, f64 absEb) {
  Config cfg;
  cfg.absErrorBound = absEb;
  const u32 blockSizes[] = {8, 16, 32, 64, 128, 256};
  cfg.blockSize = blockSizes[rng.uniformInt(6)];
  cfg.blocksPerTile = 1 + static_cast<u32>(rng.uniformInt(256));
  cfg.mode = rng.uniform() < 0.5 ? EncodingMode::Plain
                                 : EncodingMode::Outlier;
  cfg.predictor = rng.uniform() < 0.5 ? Predictor::FirstOrder
                                      : Predictor::SecondOrder;
  cfg.roundingMode = rng.uniform() < 0.5 ? RoundingMode::Nearest
                                         : RoundingMode::Ceiling;
  cfg.syncAlgorithm = rng.uniform() < 0.5
                          ? scan::Algorithm::DecoupledLookback
                          : scan::Algorithm::ChainedScan;
  cfg.vectorizedAccess = rng.uniform() < 0.5;
  cfg.checksum = rng.uniform() < 0.5;
  return cfg;
}

TEST(ConfigMatrix, RandomConfigsAlwaysRoundTrip) {
  Rng rng(20260704);
  for (int trial = 0; trial < 40; ++trial) {
    const auto& dataset =
        corpusDatasets()[rng.uniformInt(corpusDatasets().size())];
    const u32 field = static_cast<u32>(
        rng.uniformInt(datagen::datasetInfo(dataset).numFields));
    const usize n = 1 + rng.uniformInt(20000);
    const auto data = datagen::generateF32(dataset, field, n);

    const f64 rel = 10.0e-3 / static_cast<f64>(1 + rng.uniformInt(100));
    const f64 absEb =
        Quantizer::absFromRel(rel, metrics::valueRange<f32>(data));
    const Config cfg = randomConfig(rng, absEb);

    SCOPED_TRACE("trial " + std::to_string(trial) + " dataset " + dataset +
                 " field " + std::to_string(field) + " n " +
                 std::to_string(n) + " bs " +
                 std::to_string(cfg.blockSize) + " mode " +
                 toString(cfg.mode) + " pred " + toString(cfg.predictor));

    CompressorStream comp(cfg);
    const auto c = comp.compress<f32>(data);
    ASSERT_GT(c.stream.size(), StreamHeader::kBytes);

    // Decode through a *default* compressor: streams are self-describing.
    Config defaultCfg;
    defaultCfg.absErrorBound = 1.0;
    const auto d = CompressorStream(defaultCfg).decompress<f32>(c.stream);
    ASSERT_EQ(d.data.size(), data.size());

    const auto stats = metrics::computeErrorStats<f32>(data, d.data);
    if (cfg.roundingMode == RoundingMode::Nearest) {
      ASSERT_TRUE(stats.withinBoundFp(absEb, Precision::F32))
          << "max " << stats.maxAbsError << " eb " << absEb;
    } else {
      // Ceiling: one-sided error in (-2eb, 0].
      ASSERT_TRUE(stats.withinBoundFp(2.0 * absEb, Precision::F32))
          << "max " << stats.maxAbsError << " eb " << absEb;
    }

    // Random access must agree with the full decode on a random range.
    const auto header = StreamHeader::parse(c.stream);
    if (header.numBlocks() > 1) {
      const u64 first = rng.uniformInt(header.numBlocks());
      const u64 count =
          1 + rng.uniformInt(header.numBlocks() - first);
      const auto range = comp.decompressBlocks<f32>(c.stream, first, count);
      for (usize i = 0; i < range.values.size(); ++i) {
        ASSERT_EQ(range.values[i], d.data[range.firstElement + i])
            << "range elem " << i;
      }
    }
  }
}

TEST(ConfigMatrix, RandomConfigsRoundTripF64) {
  Rng rng(777);
  for (int trial = 0; trial < 15; ++trial) {
    const char* dataset = rng.uniform() < 0.5 ? "s3d" : "nwchem";
    const usize n = 1 + rng.uniformInt(10000);
    const auto data = datagen::generateF64(dataset, 0, n);
    const f64 absEb =
        Quantizer::absFromRel(1e-4, metrics::valueRange<f64>(data));
    const Config cfg = randomConfig(rng, absEb);
    SCOPED_TRACE("trial " + std::to_string(trial));

    CompressorStream comp(cfg);
    const auto c = comp.compress<f64>(data);
    const auto d = comp.decompress<f64>(c.stream);
    const auto stats = metrics::computeErrorStats<f64>(data, d.data);
    const f64 bound =
        cfg.roundingMode == RoundingMode::Ceiling ? 2.0 * absEb : absEb;
    ASSERT_TRUE(stats.withinBoundFp(bound, Precision::F64))
        << stats.maxAbsError;
  }
}

}  // namespace
}  // namespace cuszp2::core
