// Self-describing compressed stream layout.
//
//   [StreamHeader, 40 bytes, little-endian]
//   [offset bytes: 1 per block]                 <- "Part 1" in paper Fig. 5
//   [concatenated block payloads]               <- "Part 2"
//   [per-block CRC footer: 2 bytes per block]   <- version 2 only
//
// Block payload start positions are the exclusive prefix sum of the
// per-block payload sizes, each derivable from its offset byte alone.
//
// Version 2 appends a footer of 16-bit per-block digests (CRC-32 over the
// block's offset byte and payload, truncated) so corruption can be pinned
// to individual blocks and the remaining blocks salvaged; version 1
// streams carry no footer and parse unchanged. See docs/FORMAT.md for the
// byte-level specification of both versions.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "common/types.hpp"

namespace cuszp2::core {

inline constexpr u64 kMagic = 0x325A5053'32505A43ull;  // "CZP2SPZ2"
inline constexpr u32 kFormatVersion = 1;
inline constexpr u32 kFormatVersionV2 = 2;  // adds the per-block CRC footer
/// Version 3: per-block pipeline selection packed into the descriptor
/// byte's unused 0x20-0x7F range, a stream-level dictionary section (see
/// core/pipeline.hpp and docs/FORMAT.md), and the v2 CRC footer
/// unconditionally.
inline constexpr u32 kFormatVersionV3 = 3;

/// 16-bit per-block integrity digest: CRC-32 chained over the block's
/// offset byte and payload bytes, truncated to its low 16 bits. Including
/// the offset byte means a corrupted offset byte fails its own block's
/// digest even when the payload bytes survive.
u16 blockDigest(std::byte offsetByte, ConstByteSpan payload);

/// Version-3 digest: the same CRC chained over the block's descriptor
/// byte and its payload (including any entropy size prefix), so
/// pipeline-id or framing corruption fails the block's own digest exactly
/// like offset-byte corruption does in version 2.
u16 blockDigestV3(ConstByteSpan descriptor, ConstByteSpan payload);

struct StreamHeader {
  u32 version = kFormatVersion;
  Precision precision = Precision::F32;
  EncodingMode mode = EncodingMode::Outlier;
  Predictor predictor = Predictor::FirstOrder;
  u32 blockSize = 32;
  u64 numElements = 0;
  f64 absErrorBound = 0.0;

  /// Optional CRC-32 over everything after the header (offsets, payload,
  /// and in version 2 the per-block footer); 0 = no checksum
  /// (Config::checksum enables it at compression time).
  u32 checksum = 0;

  /// Version 3 only: total bytes of the dictionary section (its 8-byte
  /// section header plus the serialized table). Stored in the header's
  /// formerly reserved bytes [36, 40), which versions 1/2 keep at zero —
  /// their serialized bytes are unchanged.
  u32 dictBytes = 0;

  static constexpr usize kBytes = 40;

  u64 numBlocks() const {
    return (numElements + blockSize - 1) / blockSize;
  }

  /// Original (uncompressed) size in bytes.
  u64 originalBytes() const {
    return numElements * byteWidth(precision);
  }

  /// Byte offset of the per-block descriptor array (versions 1/2: the
  /// offset bytes; version 3: the 1-byte pipeline descriptors).
  static constexpr usize offsetsBegin() { return kBytes; }

  /// Bytes per block in the descriptor array. Every format version packs
  /// one descriptor byte per block (v3 folds the pipeline id into the
  /// unused 0x20-0x7F range of the legacy offset byte).
  usize descriptorStride() const { return 1; }

  /// Size of the descriptor array.
  usize descriptorBytes() const {
    return static_cast<usize>(numBlocks()) * descriptorStride();
  }

  /// Byte offset of the version-3 dictionary section (== payloadBegin()
  /// for versions 1/2, whose dictBytes is 0).
  usize dictBegin() const { return kBytes + descriptorBytes(); }

  /// Byte offset of the payload region within the stream.
  usize payloadBegin() const {
    return kBytes + descriptorBytes() + dictBytes;
  }

  /// True when the stream carries the per-block CRC footer (version 2
  /// optional-on-request, version 3 always).
  bool hasBlockChecksums() const { return version >= kFormatVersionV2; }

  /// Size of the per-block CRC footer (trailing bytes of the stream);
  /// 0 for version-1 streams.
  usize footerBytes() const {
    return hasBlockChecksums() ? static_cast<usize>(numBlocks()) * 2 : 0;
  }

  void serialize(std::byte* out) const;  // writes kBytes bytes

  /// Parses and validates; throws cuszp2::Error on corrupt input.
  static StreamHeader parse(ConstByteSpan stream);

  /// Non-throwing parse for salvage paths; on failure returns nullopt and
  /// stores the parse error in `error` (when non-null).
  static std::optional<StreamHeader> tryParse(ConstByteSpan stream,
                                              std::string* error = nullptr);
};

}  // namespace cuszp2::core
