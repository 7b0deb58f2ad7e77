// Internal helpers shared by the legacy (v1/v2) stream pipeline in
// stream.cpp and the format-v3 pipeline and shared readers in
// stream_v3.cpp. Not part of the public API — include only from core/
// translation units.
#pragma once

#include <limits>
#include <span>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "common/simd.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "core/stream.hpp"
#include "gpusim/launcher.hpp"

namespace cuszp2::core::detail {

/// Records the traffic of the kernel's input/output streams under the
/// configured access pattern (vectorized + coalesced vs scalar strided,
/// Sec. IV-B).
struct AccessRecorder {
  bool vectorized;
  u32 transactionBytes;

  void read(gpusim::MemCounters& mem, u64 bytes, u32 elemBytes) const {
    if (vectorized) {
      mem.noteVectorRead(bytes, transactionBytes);
    } else {
      mem.noteStridedRead(bytes, elemBytes);
    }
  }

  void write(gpusim::MemCounters& mem, u64 bytes, u32 elemBytes) const {
    if (vectorized) {
      mem.noteVectorWrite(bytes, transactionBytes);
    } else {
      mem.noteStridedWrite(bytes, elemBytes);
    }
  }
};

/// Second-difference pass of the SecondOrder predictor, applied on top of
/// first-order residuals. The block head stays out of the chain: d_0 = q_0
/// is the (often huge) block-independence outlier and chaining d_1 against
/// it would poison every second-order block.
inline void secondOrderDiff(std::span<i32> res) {
  i32 prevD = 0;
  for (usize i = 1; i < res.size(); ++i) {
    const i32 d = res[i];
    const i64 r2 = static_cast<i64>(d) - static_cast<i64>(prevD);
    require(r2 >= std::numeric_limits<i32>::min() &&
                r2 <= std::numeric_limits<i32>::max(),
            "CompressorStream: error bound too small for the second-order "
            "predictor's residual range");
    res[i] = static_cast<i32>(r2);
    prevD = d;
  }
}

/// Inverse of the prediction (prefix sums, once or twice).
inline void residualsToQuants(std::span<const i32> res, std::span<i32> quants,
                              Predictor predictor) {
  if (predictor == Predictor::SecondOrder) {
    if (res.empty()) return;
    quants[0] = res[0];
    i32 d = 0;
    i32 q = res[0];
    for (usize i = 1; i < res.size(); ++i) {
      d += res[i];
      q += d;
      quants[i] = q;
    }
  } else {
    if (simd::prefixSumI32(res, quants.data())) return;
    i32 q = 0;
    for (usize i = 0; i < res.size(); ++i) {
      q += res[i];
      quants[i] = q;
    }
  }
}

/// Reconstruction loop: out[i] = q[i] * 2eb, SIMD when active (the vector
/// path performs the identical f64 multiply + narrowing convert).
template <FloatingPoint T>
void dequantizeSpan(const Quantizer& quantizer, std::span<const i32> q,
                    T* out) {
  if (simd::dequantize(q, quantizer.twoEb(), out)) return;
  for (usize i = 0; i < q.size(); ++i) {
    out[i] = quantizer.dequantize<T>(q[i]);
  }
}

/// Ops the model charges per byte a kernel digests for the per-block CRC
/// footer (table-driven CRC: load, xor, table lookup, shift per byte; see
/// docs/MODEL.md, "Format-v3 pipeline stages").
inline constexpr u64 kDigestOpsPerByte = 4;

/// Footer bytes per block (the 16-bit digest).
inline constexpr u64 kDigestBytes = 2;

/// Per-block footer digest taken inside a kernel that already holds the
/// block's descriptor (v3) or offset byte (v2) and payload: charges the
/// digested bytes' ops to `mem` and returns blockDigestV3(). The footer
/// slot's DRAM traffic is charged by the caller with its other traffic.
inline u16 kernelBlockDigest(gpusim::MemCounters& mem,
                             ConstByteSpan descriptor, ConstByteSpan payload) {
  mem.noteOps((descriptor.size() + payload.size()) * kDigestOpsPerByte);
  return blockDigestV3(descriptor, payload);
}

/// Little-endian footer slot of block `blk`.
inline void putFooterDigest(std::byte* footer, u64 blk, u16 digest) {
  footer[kDigestBytes * blk] = static_cast<std::byte>(digest & 0xFFu);
  footer[kDigestBytes * blk + 1] = static_cast<std::byte>(digest >> 8);
}

inline u16 footerDigestAt(const std::byte* footer, u64 blk) {
  return static_cast<u16>(
      std::to_integer<u16>(footer[kDigestBytes * blk]) |
      (std::to_integer<u16>(footer[kDigestBytes * blk + 1]) << 8));
}

/// In-kernel check of block `blk` against its footer slot: digests the
/// block's descriptor and payload (charging the ops to `mem`) and compares.
inline bool kernelDigestMatches(gpusim::MemCounters& mem,
                                const std::byte* descs,
                                const std::byte* footer, u64 blk,
                                ConstByteSpan payload) {
  return kernelBlockDigest(
             mem, ConstByteSpan(descs + blk * kV3DescBytes, kV3DescBytes),
             payload) == footerDigestAt(footer, blk);
}

/// Sentinel of a decode tile's failing-block slot: every digest matched.
inline constexpr u64 kNoBadBlock = ~u64{0};

/// After a decode launch: throws the digest error for the lowest failing
/// block any tile recorded. Tiles are scanned in index order and each slot
/// holds its tile's lowest failing block, so the message is the same at
/// every worker count and tile completion order.
void throwFirstDigestMismatch(const char* api, std::span<const u64> tileBad,
                              std::span<const u64> blockStart,
                              usize payloadBegin);

/// The header's whole-stream CRC-32: over every byte after the 40-byte
/// header, with 0 (the "absent" marker) mapped to 1.
inline u32 streamCrc(ConstByteSpan stream) {
  const u32 crc = crc32(stream.subspan(StreamHeader::kBytes));
  return crc == 0 ? 1 : crc;
}

/// Sets header.checksum to streamCrc(stream) and re-serializes the header
/// into the stream's first 40 bytes.
inline void stampStreamCrc(StreamHeader& header, std::span<std::byte> stream) {
  header.checksum = streamCrc(stream);
  header.serialize(stream.data());
}

/// Block `blk`'s descriptor under the header's format version. Before v3
/// every byte is a legacy FLE offset byte — including a (corrupted) byte
/// in the 0x20-0x7F range that v3 reserves for its pipeline ids.
inline V3BlockDesc descriptorAt(const StreamHeader& header,
                                const std::byte* descs, u64 blk) {
  const std::byte* at = descs + blk * kV3DescBytes;
  if (header.version >= kFormatVersionV3) return V3BlockDesc::unpack(at);
  return V3BlockDesc{PipelineId::Fle, std::to_integer<u8>(*at)};
}

/// The host descriptor walk every reader of every format version shares.
/// Positions each block from its descriptor (descriptorAt) into
/// `blockStart` — numBlocks + 1 exclusive prefix positions, the last one
/// the payload total — and checks it against the payload region. The
/// dictionary section is empty before v3, and the per-block footer (with
/// its digests and the exact-framing check) is present iff
/// hasBlockChecksums().
///
/// Strict (`verdicts` empty): throws Error naming `api`, the block and its
/// stream byte offset on the first unknown pipeline id, payload overrun or
/// (with `checkDigests`) digest mismatch, then on a framing mismatch.
/// Salvage: never throws; records each bad block's verdict — Truncated,
/// ChecksumMismatch, or DecodeError for an unknown pipeline id or for a
/// Huffman block without `huffmanDecodable` — and returns whether the
/// framing is damaged.
bool walkBlockLayout(const char* api, const StreamHeader& header,
                     ConstByteSpan stream, std::span<u64> blockStart,
                     bool checkDigests, std::span<BlockVerdict> verdicts = {},
                     bool huffmanDecodable = true);

inline KernelProfile makeProfile(const gpusim::LaunchResult& launch,
                                 const gpusim::TimingModel& timing,
                                 u64 originalBytes, f64 extraSeconds = 0.0) {
  KernelProfile p;
  p.mem = launch.mem;
  p.sync = launch.sync;
  p.timing = timing.kernel(launch.mem, launch.sync);
  p.endToEndSeconds = p.timing.totalSeconds + extraSeconds;
  p.endToEndGBps = gpusim::gbps(originalBytes, p.endToEndSeconds);
  p.wallSeconds = launch.wallSeconds;
  return p;
}

}  // namespace cuszp2::core::detail
