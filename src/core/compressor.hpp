// cuSZp2 public API: single-kernel error-bounded lossy compression and
// decompression under the GPU execution model (paper Secs. III and IV).
//
// compress():   Lossy Conversion -> Lossless Encoding -> Global Prefix-sum
//               (decoupled lookback) -> Block Concatenation, all inside one
//               simulated kernel launch.
// decompress(): offset scan -> payload decode -> reconstruction, also one
//               kernel; all-zero blocks are flushed via device memset.
// decompressBlocks(): random access to a block range (paper Sec. VI-B):
//               a host walk over the offset (descriptor) array positions
//               the blocks, then one kernel decodes only the requested
//               ones. It shares that walk with replaceBlocks() and
//               decompressResilient() for every format version.
//
// Every call returns a KernelProfile with the recorded memory counters,
// sync statistics, and the modelled device timing used by the bench
// harness; wall-clock time of the host simulation is reported separately
// and is never used for the figures.
//
// Compressor is a thin convenience wrapper: each call runs on a
// thread-local core::CompressorStream (see stream.hpp), so repeated
// one-shot calls already reuse warm scratch and the shared worker pool.
// Layers with a long-lived compression loop should hold a
// CompressorStream directly.
#pragma once

#include "core/stream.hpp"

namespace cuszp2::core {

class Compressor {
 public:
  explicit Compressor(Config config,
                      gpusim::DeviceSpec device = gpusim::a100_40gb());

  const Config& config() const { return config_; }
  const gpusim::DeviceSpec& device() const { return device_; }

  /// Compresses `data`, producing a self-describing stream. When
  /// Config::absErrorBound is unset, the value range is reduced on-device
  /// first (and its modelled cost charged) to honour the REL bound.
  template <FloatingPoint T>
  Compressed compress(std::span<const T> data) const;

  /// Decompresses a full stream produced by compress().
  template <FloatingPoint T>
  Decompressed<T> decompress(ConstByteSpan stream) const;

  /// Salvage decode of an untrusted/damaged stream: quarantines corrupt
  /// blocks (filling their elements with `fillValue`) and returns a
  /// DecodeReport instead of throwing. See
  /// CompressorStream::decompressResilient.
  template <FloatingPoint T>
  Salvaged<T> decompressResilient(ConstByteSpan stream,
                                  T fillValue = T{}) const;

  /// Random access: decodes blocks [firstBlock, firstBlock + blockCount).
  template <FloatingPoint T>
  BlockRange<T> decompressBlocks(ConstByteSpan stream, u64 firstBlock,
                                 u64 blockCount) const;

  /// Random-access write (paper Sec. VI-B mentions writes behave like
  /// reads): re-encodes the blocks covering `values` — which replace the
  /// elements starting at firstBlock * blockSize — under the stream's own
  /// error bound and mode, and splices them into a new stream. `values`
  /// must cover whole blocks (its size is a multiple of the block size, or
  /// ends exactly at the stream's final element).
  template <FloatingPoint T>
  Compressed replaceBlocks(ConstByteSpan stream, u64 firstBlock,
                           std::span<const T> values) const;

 private:
  /// The calling thread's stream, re-targeted to this compressor's
  /// configuration and device.
  CompressorStream& threadStream() const;

  Config config_;
  gpusim::DeviceSpec device_;
};

}  // namespace cuszp2::core
