// Format-v3 pipeline paths of CompressorStream (see core/pipeline.hpp and
// docs/FORMAT.md for the wire layout).
//
// Compression is a two-kernel pass with a host selection stage between
// them, replacing the legacy single kernel + decoupled-lookback scan:
//
//   "v3_analyze"  quantize + delta-1 per block, store residuals/symbols,
//                 gather per-block candidate sizes for every pipeline
//   (host)        whole-stream symbol histogram -> shared Huffman table,
//                 per-block Huffman sizes, selectPipelines(), prefix sum
//                 of the chosen sizes into exact payload positions
//   "v3_encode"   encode each block with its selected pipeline at its
//                 precomputed offset, write the 1-byte descriptors, and
//                 digest each block into its slot of the per-block CRC
//                 footer (whose position the prefix sum also fixes)
//
// Because block positions are prefix-summed on the host, neither kernel
// needs inter-tile synchronization, and decompression positions blocks
// from the descriptor array alone. Version-3 streams always carry the
// per-block CRC footer; the decode kernels check each block's digest
// before decoding it, so no v3 call pays a separate footer pass. The
// detect-and-retry machinery of the legacy path (Config::faultRetries)
// does not apply to the v3 kernels.
#include <algorithm>
#include <cstring>
#include <optional>
#include <vector>

#include "common/crc32.hpp"
#include "common/error.hpp"
#include "core/block_codec.hpp"
#include "core/pipeline.hpp"
#include "core/quantizer.hpp"
#include "core/stream_internal.hpp"
#include "metrics/error_stats.hpp"

namespace cuszp2::core {

namespace {

using detail::AccessRecorder;
using detail::dequantizeSpan;
using detail::footerDigestAt;
using detail::kDigestBytes;
using detail::kernelBlockDigest;
using detail::makeProfile;
using detail::putFooterDigest;
using detail::residualsToQuants;

void put32(std::byte* p, u32 v) {
  for (int i = 0; i < 4; ++i) {
    p[i] = static_cast<std::byte>((v >> (8 * i)) & 0xFFu);
  }
}

u32 get32(const std::byte* p) {
  u32 v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= std::to_integer<u32>(p[i]) << (8 * i);
  }
  return v;
}

void put16(std::byte* p, u16 v) {
  p[0] = static_cast<std::byte>(v & 0xFFu);
  p[1] = static_cast<std::byte>(v >> 8);
}

/// Sentinel of a decode tile's failing-block slot: every digest matched.
constexpr u64 kNoBadBlock = ~u64{0};

[[noreturn]] void throwDigestMismatch(const char* api, u64 blk,
                                      u64 byteOffset) {
  throw Error(std::string(api) + ": per-block checksum mismatch at block " +
              std::to_string(blk) + " (stream byte offset " +
              std::to_string(byteOffset) + ") — the stream is corrupted");
}

/// After a decode launch: throws the digest error for the lowest failing
/// block any tile recorded. Tiles are scanned in index order and each slot
/// holds its tile's lowest failing block, so the message is the same at
/// every worker count and tile completion order.
void throwFirstDigestMismatch(const char* api, std::span<const u64> tileBad,
                              std::span<const u64> blockStart,
                              usize payloadBegin) {
  for (const u64 blk : tileBad) {
    if (blk != kNoBadBlock) {
      throwDigestMismatch(api, blk, payloadBegin + blockStart[blk]);
    }
  }
}

/// Strict validation of a v3 stream's block layout before any payload
/// decode: every descriptor must name a known pipeline, and the
/// prefix-summed payload positions must stay inside the payload region and
/// land exactly on the footer. With `checkDigests` every block's digest
/// must match too (replaceBlocks, whose splice has no decode kernel to
/// check them; the decode kernels check their own blocks). Fills
/// `blockStart` (exclusive prefix positions) when non-empty and returns
/// the total payload size.
u64 validateV3Layout(const char* api, const StreamHeader& header,
                     ConstByteSpan stream, bool checkDigests,
                     std::span<u64> blockStart = {}) {
  const u64 numBlocks = header.numBlocks();
  const usize payloadBegin = header.payloadBegin();
  const usize footerB = header.footerBytes();
  const usize payloadAvail = stream.size() - payloadBegin - footerB;
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + payloadBegin;
  const std::byte* footer = stream.data() + (stream.size() - footerB);
  const PayloadSizeTable psize(header.blockSize);

  u64 cursor = 0;
  for (u64 blk = 0; blk < numBlocks; ++blk) {
    if (!blockStart.empty()) blockStart[blk] = cursor;
    const std::byte* descBytes = descs + blk * kV3DescBytes;
    const V3BlockDesc desc = V3BlockDesc::unpack(descBytes);
    if (!desc.knownPipeline()) {
      throw Error(std::string(api) + ": unknown pipeline id " +
                  std::to_string(static_cast<u32>(desc.pipeline)) +
                  " at block " + std::to_string(blk) +
                  " — the descriptor array is corrupt");
    }
    const usize size =
        desc.payloadBytes(psize, payload + cursor, payloadAvail - cursor);
    if (cursor + size > payloadAvail) {
      throw Error(std::string(api) +
                  ": descriptors imply a payload overrun at block " +
                  std::to_string(blk) + " (stream byte offset " +
                  std::to_string(payloadBegin + cursor) + ", needs " +
                  std::to_string(size) + " bytes) — the stream is corrupt "
                  "or truncated");
    }
    if (checkDigests &&
        footerDigestAt(footer, blk) !=
            blockDigestV3(ConstByteSpan(descBytes, kV3DescBytes),
                          ConstByteSpan(payload + cursor, size))) {
      throwDigestMismatch(api, blk, payloadBegin + cursor);
    }
    cursor += size;
  }
  if (payloadBegin + cursor + footerB != stream.size()) {
    throw Error(std::string(api) +
                ": version-3 stream framing mismatch (descriptors imply " +
                std::to_string(payloadBegin + cursor + footerB) +
                " bytes, stream has " + std::to_string(stream.size()) +
                ") — the stream is corrupted or truncated");
  }
  return cursor;
}

/// Strict parse of the v3 dictionary section: [u32 tableBytes][u32 CRC-32]
/// [serialized table]. Returns an empty table for a stream that ships no
/// Huffman blocks (tableBytes == 0).
HuffTable parseDictV3(const char* api, const StreamHeader& header,
                      ConstByteSpan stream) {
  if (header.numBlocks() == 0) return {};
  const std::byte* dict = stream.data() + header.dictBegin();
  const u32 tableBytes = get32(dict);
  require(8 + static_cast<usize>(tableBytes) == header.dictBytes,
          std::string(api) + ": dictionary section size mismatch — the "
          "stream is corrupted");
  const u32 storedCrc = get32(dict + 4);
  const ConstByteSpan tableSpan(dict + 8, tableBytes);
  require(crc32(tableSpan) == storedCrc,
          std::string(api) + ": dictionary checksum mismatch — the shared "
          "Huffman table is corrupted");
  if (tableBytes == 0) return {};
  return HuffTable::parse(tableSpan);
}

/// Decodes one v3 block's payload into quantization integers (full padded
/// block length). Throws cuszp2::Error on malformed payloads.
void decodeBlockV3(const V3BlockDesc& desc, ConstByteSpan payload,
                   const BlockCodec& codec, const HuffDecoder* decoder,
                   std::span<i32> quants) {
  const usize L = quants.size();
  i32 resArr[256];
  std::span<i32> res(resArr, L);
  switch (desc.pipeline) {
    case PipelineId::Fle:
    case PipelineId::LorenzoFle: {
      const auto h = BlockHeader::unpack(desc.offsetByte);
      if (!h.outlierMode && h.fixedLength == 0) {
        // Zero block under either predictor: all residuals are zero, so
        // the reconstruction is zero regardless of the prediction stage.
        std::fill(quants.begin(), quants.end(), 0);
        return;
      }
      codec.decodeResiduals(h, payload.data(), res);
      if (desc.pipeline == PipelineId::LorenzoFle) {
        lorenzo2dReconstruct(res, quants);
      } else {
        residualsToQuants(res, quants, Predictor::FirstOrder);
      }
      return;
    }
    case PipelineId::Huffman: {
      require(decoder != nullptr,
              "v3 decode: stream uses the Huffman pipeline but carries no "
              "dictionary");
      decodeHuffmanBlock(payload.subspan(kV3EntropyPrefixBytes), *decoder,
                         res);
      residualsToQuants(res, quants, Predictor::FirstOrder);
      return;
    }
    default: {  // Rle
      decodeRleBlock(payload.subspan(kV3EntropyPrefixBytes), res);
      residualsToQuants(res, quants, Predictor::FirstOrder);
      return;
    }
  }
}

}  // namespace

template <FloatingPoint T>
Compressed CompressorStream::compressV3(std::span<const T> data) {
  arena_.reset();
  applyInjectedArenaBudget();

  const u32 L = config_.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = data.size();
  const EncodingMode mode = config_.mode;

  f64 passSeconds = 0.0;
  f64 absEb = config_.absErrorBound;
  if (absEb <= 0.0) {
    const f64 range = metrics::valueRange(data);
    absEb = Quantizer::absFromRel(config_.relErrorBound, range);
    passSeconds += gpusim::modelledPassSeconds(n * sizeof(T), timing_.spec(),
                                               1.0);
  }
  const Quantizer quantizer(absEb, config_.roundingMode);

  StreamHeader header;
  header.version = kFormatVersionV3;
  header.precision = precisionOf<T>();
  header.mode = mode;
  header.predictor = config_.predictor;  // FirstOrder (Config::validate)
  header.blockSize = L;
  header.numElements = n;
  header.absErrorBound = absEb;

  Compressed out;
  out.originalBytes = n * sizeof(T);
  if (n == 0) {
    out.stream.assign(StreamHeader::kBytes, std::byte{});
    header.serialize(out.stream.data());
    out.ratio = 0.0;
    out.profile.endToEndSeconds = timing_.launchSeconds();
    noteCompressed(out);
    return out;
  }

  const u64 numBlocks = header.numBlocks();
  const u32 tiles =
      static_cast<u32>(std::max<u64>(1, (numBlocks + bpt - 1) / bpt));
  const BlockCodec codec(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};

  // Whole-stream residual/symbol scratch (blocks are padded to L, matching
  // the legacy layout, so spans index by blk * L).
  const std::span<i32> residuals = arena_.allocSpan<i32>(numBlocks * L);
  const std::span<u16> symbols = arena_.allocSpan<u16>(numBlocks * L);
  const std::span<BlockCandidates> candidates =
      arena_.allocSpan<BlockCandidates>(numBlocks);

  // Phase 1 — quantize + delta-1 per block, map symbols, and gather the
  // candidate sizes the host selector needs. Same per-element analysis
  // cost as the legacy pass 1, plus the RLE/Lorenzo candidate walks.
  const auto analyzeBody = [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    i32 lorenzoArr[256];
    u64 elemsRead = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      const std::span<i32> r(residuals.data() + blk * L, L);
      quantizeDiffBlock(quantizer,
                        std::span<const T>(data.data() + eFirst,
                                           eLast - eFirst),
                        r);
      const std::span<u16> sym(symbols.data() + blk * L, L);
      for (u32 i = 0; i < L; ++i) sym[i] = symbolOf(r[i]);

      BlockCandidates cand;
      cand.bytes[static_cast<u8>(PipelineId::Fle)] =
          codec.planResiduals(r, mode).payloadBytes;
      // Entropy candidates are charged their u16 size prefix so selection
      // compares true payload costs.
      const usize rleBytes = rleBlockBytes(sym);
      cand.bytes[static_cast<u8>(PipelineId::Rle)] =
          rleBytes <= 0xFFFF ? rleBytes + kV3EntropyPrefixBytes
                             : kInvalidSize;
      {
        const std::span<i32> q(quantsArr, L);
        residualsToQuants(r, q, Predictor::FirstOrder);
        const std::span<i32> lres(lorenzoArr, L);
        if (lorenzo2dResiduals(q, lres)) {
          // Lorenzo blocks are always Plain-FLE: the 1-byte descriptor
          // only has 5 bits for the fixed length.
          cand.bytes[static_cast<u8>(PipelineId::LorenzoFle)] =
              codec.planResiduals(lres, EncodingMode::Plain).payloadBytes;
        }
      }
      candidates[blk] = cand;
      elemsRead += eLast - eFirst;
    }
    access.read(ctx.mem, elemsRead * sizeof(T), sizeof(T));
    access.write(ctx.mem, (lastBlock - firstBlock) * L * 6, 4);
    ctx.mem.noteOps((lastBlock - firstBlock) * L * 20);
    ctx.mem.noteL1((lastBlock - firstBlock) * L * 12);
  };
  const auto analyzeLaunch =
      launcher_.launch(tiles, analyzeBody, 0, {}, "v3_analyze");

  // Host stage — shared Huffman table from the whole-stream histogram,
  // per-block Huffman candidate sizes, pipeline selection, prefix sum.
  HuffTable table;
  usize tableBytes = 0;
  if (config_.pipeline == PipelineMode::Auto ||
      config_.pipeline == PipelineMode::Huffman) {
    std::vector<u64> freq(kSymbolAlphabet, 0);
    for (const u16 s : symbols) ++freq[s];
    table = HuffTable::fromFrequencies(freq);
    tableBytes = table.serializedBytes();
    for (u64 blk = 0; blk < numBlocks; ++blk) {
      const usize bytes = huffmanBlockBytes(
          std::span<const u16>(symbols.data() + blk * L, L), table);
      candidates[blk].bytes[static_cast<u8>(PipelineId::Huffman)] =
          bytes <= 0xFFFF ? bytes + kV3EntropyPrefixBytes : kInvalidSize;
    }
  }

  const SelectionResult sel =
      selectPipelines(candidates, config_.pipeline, tableBytes);
  header.dictBytes =
      static_cast<u32>(8 + (sel.usesHuffman ? tableBytes : 0));

  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  u64 cursor = 0;
  for (u64 blk = 0; blk < numBlocks; ++blk) {
    blockStart[blk] = cursor;
    cursor += candidates[blk].bytes[static_cast<u8>(sel.choice[blk])];
  }
  require(cursor == sel.totalPayload,
          "compressV3: selection/prefix-sum size mismatch");

  const usize payloadBegin = header.payloadBegin();
  const usize finalBytes = payloadBegin + static_cast<usize>(cursor) +
                           header.footerBytes();
  std::byte* staging = static_cast<std::byte*>(arena_.allocate(finalBytes));
  header.serialize(staging);
  std::byte* descs = staging + StreamHeader::offsetsBegin();
  std::byte* dict = staging + header.dictBegin();
  std::byte* payload = staging + payloadBegin;
  std::byte* footer = payload + cursor;

  put32(dict, static_cast<u32>(header.dictBytes - 8));
  const ConstByteSpan tableSpan(dict + 8, header.dictBytes - 8);
  if (sel.usesHuffman) table.serialize(dict + 8);
  put32(dict + 4, crc32(tableSpan));

  // Phase 2 — encode every block with its selected pipeline at its exact
  // precomputed offset, write the 1-byte descriptors, and digest each block
  // into its footer slot while its bytes are still in hand. No inter-tile
  // synchronization: positions came from the host prefix sum.
  const std::span<const PipelineId> choice = sel.choice;
  const auto encodeBody = [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    i32 lorenzoArr[256];
    u64 bytesWritten = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const std::span<const i32> r(residuals.data() + blk * L, L);
      std::byte* outp = payload + blockStart[blk];
      V3BlockDesc desc;
      desc.pipeline = choice[blk];
      usize written = 0;
      switch (choice[blk]) {
        case PipelineId::Fle: {
          const auto plan = codec.planResiduals(r, mode);
          desc.offsetByte = plan.header.pack();
          codec.encodeResiduals(r, plan, outp);
          written = plan.payloadBytes;
          break;
        }
        case PipelineId::LorenzoFle: {
          const std::span<i32> q(quantsArr, L);
          residualsToQuants(r, q, Predictor::FirstOrder);
          const std::span<i32> lres(lorenzoArr, L);
          lorenzo2dResiduals(q, lres);  // valid: the analysis pass checked
          const auto plan = codec.planResiduals(lres, EncodingMode::Plain);
          desc.offsetByte = plan.header.pack();
          codec.encodeResiduals(lres, plan, outp);
          written = plan.payloadBytes;
          break;
        }
        case PipelineId::Huffman: {
          const usize body = encodeHuffmanBlock(
              r, table, outp + kV3EntropyPrefixBytes);
          put16(outp, static_cast<u16>(body));
          written = kV3EntropyPrefixBytes + body;
          break;
        }
        default: {  // Rle
          const usize body = encodeRleBlock(r, outp + kV3EntropyPrefixBytes);
          put16(outp, static_cast<u16>(body));
          written = kV3EntropyPrefixBytes + body;
          break;
        }
      }
      require(written ==
                  candidates[blk].bytes[static_cast<u8>(choice[blk])],
              "compressV3: encoded size diverged from the analysis pass");
      desc.pack(descs + blk * kV3DescBytes);
      putFooterDigest(footer, blk,
                      kernelBlockDigest(
                          ctx.mem,
                          ConstByteSpan(descs + blk * kV3DescBytes,
                                        kV3DescBytes),
                          ConstByteSpan(outp, written)));
      bytesWritten += written;
    }
    access.read(ctx.mem, (lastBlock - firstBlock) * L * 4, 4);
    access.write(ctx.mem, bytesWritten +
                              (lastBlock - firstBlock) * kV3DescBytes, 4);
    access.write(ctx.mem, (lastBlock - firstBlock) * kDigestBytes,
                 kDigestBytes);
    ctx.mem.noteOps(bytesWritten * 8);
    ctx.mem.noteL1((lastBlock - firstBlock) * L * 4);
  };
  const auto encodeLaunch =
      launcher_.launch(tiles, encodeBody, 0, {}, "v3_encode");

  if (config_.checksum) {
    header.checksum = crc32(ConstByteSpan(
        staging + StreamHeader::offsetsBegin(),
        finalBytes - StreamHeader::offsetsBegin()));
    if (header.checksum == 0) header.checksum = 1;  // 0 = "absent"
    header.serialize(staging);
    passSeconds += gpusim::modelledPassSeconds(finalBytes, timing_.spec(),
                                               1.0);
  }

  out.stream.assign(staging, staging + finalBytes);
  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  const f64 encodeSeconds =
      timing_.kernel(encodeLaunch.mem, encodeLaunch.sync).totalSeconds;
  out.profile = makeProfile(analyzeLaunch, timing_, out.originalBytes,
                            encodeSeconds + passSeconds);
  out.profile.wallSeconds += encodeLaunch.wallSeconds;
  noteCompressed(out);
  return out;
}

template <FloatingPoint T>
Decompressed<T> CompressorStream::decompressV3(ConstByteSpan stream,
                                               const StreamHeader& header) {
  // Caller (decompress) has already reset the arena, applied any injected
  // budget, parsed the header and checked the precision tag.
  f64 checksumSeconds = 0.0;
  if (header.checksum != 0) {
    u32 crc = crc32(ConstByteSpan(
        stream.data() + StreamHeader::offsetsBegin(),
        stream.size() - StreamHeader::offsetsBegin()));
    if (crc == 0) crc = 1;
    require(crc == header.checksum,
            "decompress: checksum mismatch — the stream is corrupted");
    checksumSeconds += gpusim::modelledPassSeconds(stream.size(),
                                                   timing_.spec(), 1.0);
  }

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();

  Decompressed<T> out;
  out.data.assign(n, T{});
  if (n == 0) {
    out.profile.endToEndSeconds = timing_.launchSeconds();
    noteDecompressed(stream.size(), 0, 0.0);
    return out;
  }

  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  validateV3Layout("decompress", header, stream, false, blockStart);

  const HuffTable table = parseDictV3("decompress", header, stream);
  std::optional<HuffDecoder> decoder;
  if (!table.empty()) decoder.emplace(table);

  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const usize payloadAvail =
      stream.size() - header.payloadBegin() - header.footerBytes();
  const std::byte* footer = payload + payloadAvail;
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const PayloadSizeTable psize(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};
  const HuffDecoder* decoderPtr = decoder ? &*decoder : nullptr;

  const u32 tiles =
      static_cast<u32>(std::max<u64>(1, (numBlocks + bpt - 1) / bpt));
  const std::span<u64> tileBad = arena_.allocSpan<u64>(tiles);
  const std::function<void(gpusim::BlockCtx&)> body =
      [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    u64 decodedElems = 0;
    u64 payloadBytesRead = 0;
    u64 zeroBytes = 0;
    u64 firstBad = kNoBadBlock;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      const V3BlockDesc desc =
          V3BlockDesc::unpack(descs + blk * kV3DescBytes);
      const usize size = desc.payloadBytes(
          psize, payload + blockStart[blk], payloadAvail - blockStart[blk]);
      const ConstByteSpan blockBytes(payload + blockStart[blk], size);
      // A block that fails its digest is skipped, never decoded; the host
      // raises the error after the launch.
      if (kernelBlockDigest(
              ctx.mem, ConstByteSpan(descs + blk * kV3DescBytes, kV3DescBytes),
              blockBytes) != footerDigestAt(footer, blk)) {
        firstBad = std::min(firstBad, blk);
        continue;
      }
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      if (size == 0 && desc.pipeline != PipelineId::Huffman &&
          desc.pipeline != PipelineId::Rle) {
        // Zero block: flush with device memset (as in the legacy path).
        for (u64 e = eFirst; e < eLast; ++e) out.data[e] = T{};
        zeroBytes += (eLast - eFirst) * sizeof(T);
        continue;
      }
      const std::span<i32> q(quantsArr, L);
      decodeBlockV3(desc, blockBytes, codec, decoderPtr, q);
      dequantizeSpan(quantizer,
                     std::span<const i32>(quantsArr, eLast - eFirst),
                     out.data.data() + eFirst);
      decodedElems += eLast - eFirst;
      payloadBytesRead += size;
    }
    tileBad[ctx.blockIdx] = firstBad;
    access.read(ctx.mem, (lastBlock - firstBlock) * kV3DescBytes, 4);
    access.read(ctx.mem, payloadBytesRead, 4);
    access.read(ctx.mem, (lastBlock - firstBlock) * kDigestBytes,
                kDigestBytes);
    access.write(ctx.mem, decodedElems * sizeof(T), sizeof(T));
    ctx.mem.noteMemset(zeroBytes);
    ctx.mem.noteOps(decodedElems * 8);
    ctx.mem.noteL1(decodedElems * 8);
  };
  const auto launch = launcher_.launch(tiles, body, 0, {}, "v3_decompress");
  throwFirstDigestMismatch("decompress", tileBad, blockStart,
                           header.payloadBegin());

  out.profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
  noteDecompressed(stream.size(), n * sizeof(T), out.profile.endToEndGBps);
  return out;
}

template <FloatingPoint T>
BlockRange<T> CompressorStream::decompressBlocksV3(ConstByteSpan stream,
                                                   const StreamHeader& header,
                                                   u64 firstBlock,
                                                   u64 blockCount) {
  // Caller validated precision and the block range.
  const u64 numBlocks = header.numBlocks();
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  validateV3Layout("decompressBlocks", header, stream, false, blockStart);
  const HuffTable table = parseDictV3("decompressBlocks", header, stream);
  std::optional<HuffDecoder> decoder;
  if (!table.empty()) decoder.emplace(table);

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const usize payloadAvail =
      stream.size() - header.payloadBegin() - header.footerBytes();
  const std::byte* footer = payload + payloadAvail;
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const PayloadSizeTable psize(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};
  const HuffDecoder* decoderPtr = decoder ? &*decoder : nullptr;

  BlockRange<T> out;
  out.firstElement = firstBlock * L;
  const u64 lastElement = std::min<u64>(n, (firstBlock + blockCount) * L);
  out.values.assign(lastElement - out.firstElement, T{});

  // Positions come from the host descriptor walk, so only tiles covering
  // the requested range launch work; the descriptor array read replaces
  // the legacy offset-byte scan. Only the requested blocks are digested.
  const u32 tiles =
      static_cast<u32>(std::max<u64>(1, (numBlocks + bpt - 1) / bpt));
  const std::span<u64> tileBad = arena_.allocSpan<u64>(tiles);
  const std::function<void(gpusim::BlockCtx&)> body =
      [&](gpusim::BlockCtx& ctx) {
    const u64 tFirst = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 tLast = std::min(numBlocks, tFirst + bpt);
    tileBad[ctx.blockIdx] = kNoBadBlock;
    access.read(ctx.mem, (tLast - tFirst) * kV3DescBytes, 4);
    ctx.mem.noteOps((tLast - tFirst) * 2);
    if (tLast <= firstBlock || tFirst >= firstBlock + blockCount) return;

    i32 quantsArr[256];
    const u64 rFirst = std::max(tFirst, firstBlock);
    const u64 rLast = std::min(tLast, firstBlock + blockCount);
    access.read(ctx.mem, (rLast - rFirst) * kDigestBytes, kDigestBytes);
    for (u64 blk = rFirst; blk < rLast; ++blk) {
      const V3BlockDesc desc =
          V3BlockDesc::unpack(descs + blk * kV3DescBytes);
      const usize size = desc.payloadBytes(
          psize, payload + blockStart[blk], payloadAvail - blockStart[blk]);
      const ConstByteSpan blockBytes(payload + blockStart[blk], size);
      if (kernelBlockDigest(
              ctx.mem, ConstByteSpan(descs + blk * kV3DescBytes, kV3DescBytes),
              blockBytes) != footerDigestAt(footer, blk)) {
        tileBad[ctx.blockIdx] = std::min(tileBad[ctx.blockIdx], blk);
        continue;
      }
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      const std::span<i32> q(quantsArr, L);
      decodeBlockV3(desc, blockBytes, codec, decoderPtr, q);
      dequantizeSpan(quantizer,
                     std::span<const i32>(quantsArr, eLast - eFirst),
                     out.values.data() + (eFirst - out.firstElement));
      access.read(ctx.mem, size, 4);
      access.write(ctx.mem, (eLast - eFirst) * sizeof(T), sizeof(T));
      ctx.mem.noteOps((eLast - eFirst) * 8);
    }
  };
  const auto launch =
      launcher_.launch(tiles, body, 0, {}, "random_access_decode");
  throwFirstDigestMismatch("decompressBlocks", tileBad, blockStart,
                           header.payloadBegin());

  out.profile = makeProfile(launch, timing_, header.originalBytes());
  noteDecompressed(stream.size(), out.values.size() * sizeof(T),
                   out.profile.endToEndGBps);
  return out;
}

template <FloatingPoint T>
Compressed CompressorStream::replaceBlocksV3(ConstByteSpan stream,
                                             const StreamHeader& header,
                                             u64 firstBlock,
                                             std::span<const T> values) {
  const u32 L = header.blockSize;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();
  const u64 blockCount = (values.size() + L - 1) / L;
  require(firstBlock < numBlocks && firstBlock + blockCount <= numBlocks,
          "replaceBlocks: block range out of bounds");
  const u64 eFirst = firstBlock * L;
  const u64 eLast = std::min<u64>(n, (firstBlock + blockCount) * L);
  require(values.size() == eLast - eFirst,
          "replaceBlocks: values must cover whole blocks (size must be "
          "a multiple of the block size or end at the stream tail)");

  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  const u64 totalPayload =
      validateV3Layout("replaceBlocks", header, stream, true, blockStart);
  parseDictV3("replaceBlocks", header, stream);  // integrity only

  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const PayloadSizeTable psize(L);
  const u64 rangeStart = blockStart[firstBlock];
  const u64 lastReplaced = firstBlock + blockCount - 1;
  const u64 rangeEnd =
      blockStart[lastReplaced] +
      V3BlockDesc::unpack(descs + lastReplaced * kV3DescBytes)
          .payloadBytes(psize, payload + blockStart[lastReplaced],
                        totalPayload - blockStart[lastReplaced]);

  // Re-encode the replacement blocks with the FLE pipeline under the
  // stream's bound and mode. Spliced blocks do not consult the shared
  // dictionary, so the dictionary section passes through unchanged and
  // stays valid for every untouched Huffman block.
  const Quantizer quantizer(header.absErrorBound, config_.roundingMode);
  const BlockCodec codec(L);
  const std::span<std::byte> newDescs =
      arena_.allocSpan<std::byte>(blockCount * kV3DescBytes);
  const std::span<std::byte> newPayload =
      arena_.allocSpan<std::byte>(blockCount * maxPayloadSize(L));
  const std::span<u64> newSizes = arena_.allocSpan<u64>(blockCount);
  const std::span<i32> blockScratch = arena_.allocSpan<i32>(L);
  const std::function<void(gpusim::BlockCtx&)> reencodeBody =
      [&](gpusim::BlockCtx& ctx) {
    std::span<i32> q = blockScratch;
    u64 cursor = 0;
    for (u64 b = 0; b < blockCount; ++b) {
      const u64 vFirst = b * L;
      const u64 vLast = std::min<u64>(values.size(), vFirst + L);
      quantizeDiffBlock(quantizer, values.subspan(vFirst, vLast - vFirst),
                        q);
      const auto plan = codec.planResiduals(q, header.mode);
      V3BlockDesc desc;
      desc.pipeline = PipelineId::Fle;
      desc.offsetByte = plan.header.pack();
      desc.pack(newDescs.data() + b * kV3DescBytes);
      codec.encodeResiduals(q, plan, newPayload.data() + cursor);
      newSizes[b] = plan.payloadBytes;
      cursor += plan.payloadBytes;
    }
    ctx.mem.noteVectorRead(values.size() * sizeof(T), 32);
    ctx.mem.noteScalarRead(numBlocks * kV3DescBytes, 4, 32);
    ctx.mem.noteVectorWrite(cursor + blockCount * kV3DescBytes, 32);
    ctx.mem.noteOps(values.size() * 16);
  };
  const auto launch =
      launcher_.launch(1, reencodeBody, 0, {}, "replace_blocks");
  u64 newRangeBytes = 0;
  for (const u64 s : newSizes) newRangeBytes += s;

  // Splice: header | descriptors (patched) | dict | payload prefix | new
  // | suffix | footer (rebuilt) — the dictionary section is byte-copied.
  Compressed out;
  out.originalBytes = header.originalBytes();
  out.stream.reserve(header.payloadBegin() + totalPayload -
                     (rangeEnd - rangeStart) + newRangeBytes +
                     header.footerBytes());
  out.stream.insert(out.stream.end(), stream.begin(),
                    stream.begin() +
                        static_cast<usize>(StreamHeader::offsetsBegin()));
  out.stream.insert(out.stream.end(), descs,
                    descs + firstBlock * kV3DescBytes);
  out.stream.insert(out.stream.end(), newDescs.begin(), newDescs.end());
  out.stream.insert(out.stream.end(),
                    descs + (firstBlock + blockCount) * kV3DescBytes,
                    descs + numBlocks * kV3DescBytes);
  out.stream.insert(out.stream.end(),
                    stream.data() + header.dictBegin(),
                    stream.data() + header.dictBegin() + header.dictBytes);
  out.stream.insert(out.stream.end(), payload, payload + rangeStart);
  out.stream.insert(out.stream.end(), newPayload.begin(),
                    newPayload.begin() + newRangeBytes);
  out.stream.insert(out.stream.end(), payload + rangeEnd,
                    payload + totalPayload);

  // Rebuild the per-block CRC footer over the spliced stream (a pure
  // function of its descriptors and payloads).
  {
    std::vector<std::byte> footer(header.footerBytes());
    const std::byte* outDescs =
        out.stream.data() + StreamHeader::offsetsBegin();
    const std::byte* outPayload = out.stream.data() + header.payloadBegin();
    const u64 outPayloadBytes = out.stream.size() - header.payloadBegin();
    u64 cursor = 0;
    for (u64 blk = 0; blk < numBlocks; ++blk) {
      const usize size =
          V3BlockDesc::unpack(outDescs + blk * kV3DescBytes)
              .payloadBytes(psize, outPayload + cursor,
                            outPayloadBytes - cursor);
      const u16 digest = blockDigestV3(
          ConstByteSpan(outDescs + blk * kV3DescBytes, kV3DescBytes),
          ConstByteSpan(outPayload + cursor, size));
      putFooterDigest(footer.data(), blk, digest);
      cursor += size;
    }
    out.stream.insert(out.stream.end(), footer.begin(), footer.end());
  }

  if (header.checksum != 0) {
    StreamHeader patched = header;
    patched.checksum = crc32(ConstByteSpan(
        out.stream.data() + StreamHeader::offsetsBegin(),
        out.stream.size() - StreamHeader::offsetsBegin()));
    if (patched.checksum == 0) patched.checksum = 1;
    patched.serialize(out.stream.data());
  }

  out.ratio = static_cast<f64>(out.originalBytes) /
              static_cast<f64>(out.stream.size());
  out.profile = makeProfile(launch, timing_, (eLast - eFirst) * sizeof(T));
  instruments_.replaceBlocksCalls->add(1);
  instruments_.arenaHighWater->set(
      static_cast<f64>(arena_.stats().highWater));
  return out;
}

template <FloatingPoint T>
void CompressorStream::salvageV3(ConstByteSpan stream,
                                 const StreamHeader& header, T fillValue,
                                 Salvaged<T>& out) {
  // Caller (decompressResilient) has set headerOk and blockChecksums and
  // cleared the arena / failure budget; this fills the rest of the report,
  // the data, and the profile. Never throws on corrupt input.
  DecodeReport& rep = out.report;

  f64 checksumSeconds = 0.0;
  if (header.checksum != 0) {
    u32 crc = crc32(ConstByteSpan(
        stream.data() + StreamHeader::offsetsBegin(),
        stream.size() - StreamHeader::offsetsBegin()));
    if (crc == 0) crc = 1;
    rep.streamChecksumOk = (crc == header.checksum);
    checksumSeconds += gpusim::modelledPassSeconds(stream.size(),
                                                   timing_.spec(), 1.0);
  }

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();
  rep.totalBlocks = numBlocks;
  rep.verdicts.assign(numBlocks, BlockVerdict::Good);
  out.data.assign(n, fillValue);
  if (n == 0) return;

  // Dictionary verdict: a damaged section header, CRC, or table quarantines
  // every Huffman block but leaves the table-free pipelines decodable.
  HuffTable table;
  try {
    table = parseDictV3("decompressResilient", header, stream);
  } catch (const Error&) {
    rep.dictionaryOk = false;
  }
  std::optional<HuffDecoder> decoder;
  if (rep.dictionaryOk && !table.empty()) decoder.emplace(table);

  const usize payloadBegin = header.payloadBegin();
  const usize footerB = header.footerBytes();
  const usize payloadAvail = stream.size() - payloadBegin - footerB;
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + payloadBegin;
  const std::byte* footer = stream.data() + (stream.size() - footerB);
  const PayloadSizeTable psize(L);

  // Host structural pass: position every block from the descriptor walk
  // (entropy blocks advance by their u16 payload size prefix; unknown
  // pipeline ids advance by zero and are quarantined), bounds-check, and
  // verify each in-range block's digest. A Huffman block is decodable only
  // with a good dictionary.
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks);
  u64 cursor = 0;
  for (u64 blk = 0; blk < numBlocks; ++blk) {
    blockStart[blk] = cursor;
    const std::byte* descBytes = descs + blk * kV3DescBytes;
    const V3BlockDesc desc = V3BlockDesc::unpack(descBytes);
    const usize remaining =
        cursor <= payloadAvail ? payloadAvail - cursor : 0;
    const usize size = desc.payloadBytes(
        psize, remaining > 0 ? payload + cursor : payload, remaining);
    if (cursor > payloadAvail || size > payloadAvail - cursor) {
      rep.verdicts[blk] = BlockVerdict::Truncated;
    } else if (footerDigestAt(footer, blk) !=
               blockDigestV3(ConstByteSpan(descBytes, kV3DescBytes),
                             ConstByteSpan(payload + cursor, size))) {
      rep.verdicts[blk] = BlockVerdict::ChecksumMismatch;
    } else if (!desc.knownPipeline() ||
               (desc.pipeline == PipelineId::Huffman && !decoder)) {
      rep.verdicts[blk] = BlockVerdict::DecodeError;
    }
    cursor += size;
  }
  if (payloadBegin + cursor + footerB != stream.size()) {
    rep.framingDamaged = true;
  }

  const u32 tiles =
      static_cast<u32>(std::max<u64>(1, (numBlocks + bpt - 1) / bpt));
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};
  const HuffDecoder* decoderPtr = decoder ? &*decoder : nullptr;

  const std::function<void(gpusim::BlockCtx&)> salvageBody =
      [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    u64 decodedElems = 0;
    u64 payloadBytesRead = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      if (rep.verdicts[blk] != BlockVerdict::Good) continue;
      const V3BlockDesc desc =
          V3BlockDesc::unpack(descs + blk * kV3DescBytes);
      const usize size = desc.payloadBytes(
          psize, payload + blockStart[blk], payloadAvail - blockStart[blk]);
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      try {
        const std::span<i32> q(quantsArr, L);
        decodeBlockV3(desc, ConstByteSpan(payload + blockStart[blk], size),
                      codec, decoderPtr, q);
        dequantizeSpan(quantizer,
                       std::span<const i32>(quantsArr, eLast - eFirst),
                       out.data.data() + eFirst);
        decodedElems += eLast - eFirst;
        payloadBytesRead += size;
      } catch (const Error&) {
        rep.verdicts[blk] = BlockVerdict::DecodeError;
        for (u64 e = eFirst; e < eLast; ++e) out.data[e] = fillValue;
      }
    }
    access.read(ctx.mem, (lastBlock - firstBlock) * kV3DescBytes, 4);
    access.read(ctx.mem, payloadBytesRead, 4);
    access.write(ctx.mem, decodedElems * sizeof(T), sizeof(T));
    ctx.mem.noteOps(decodedElems * 8);
    ctx.mem.noteL1(decodedElems * 8);
  };
  const auto launch =
      launcher_.launch(tiles, salvageBody, 0, {}, "salvage_decode");

  for (u64 blk = 0; blk < numBlocks; ++blk) {
    if (rep.verdicts[blk] == BlockVerdict::Good) continue;
    ++rep.badBlocks;
    if (rep.firstCorruptOffset == DecodeReport::kNoCorruption) {
      rep.firstCorruptOffset = payloadBegin + blockStart[blk];
    }
  }
  rep.goodBlocks = numBlocks - rep.badBlocks;

  out.profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
}

// Explicit instantiations (access checking does not apply to explicit
// instantiation of private members; the public entry points in stream.cpp
// link against these).
template Compressed CompressorStream::compressV3<f32>(std::span<const f32>);
template Compressed CompressorStream::compressV3<f64>(std::span<const f64>);
template Decompressed<f32> CompressorStream::decompressV3<f32>(
    ConstByteSpan, const StreamHeader&);
template Decompressed<f64> CompressorStream::decompressV3<f64>(
    ConstByteSpan, const StreamHeader&);
template BlockRange<f32> CompressorStream::decompressBlocksV3<f32>(
    ConstByteSpan, const StreamHeader&, u64, u64);
template BlockRange<f64> CompressorStream::decompressBlocksV3<f64>(
    ConstByteSpan, const StreamHeader&, u64, u64);
template Compressed CompressorStream::replaceBlocksV3<f32>(
    ConstByteSpan, const StreamHeader&, u64, std::span<const f32>);
template Compressed CompressorStream::replaceBlocksV3<f64>(
    ConstByteSpan, const StreamHeader&, u64, std::span<const f64>);
template void CompressorStream::salvageV3<f32>(ConstByteSpan,
                                               const StreamHeader&, f32,
                                               Salvaged<f32>&);
template void CompressorStream::salvageV3<f64>(ConstByteSpan,
                                               const StreamHeader&, f64,
                                               Salvaged<f64>&);

}  // namespace cuszp2::core
