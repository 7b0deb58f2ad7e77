// Format-v3 compress and full decode of CompressorStream, plus the readers
// every format version shares (see core/pipeline.hpp and docs/FORMAT.md
// for the wire layout).
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
//
// The block-range read ("random_access_decode"), replaceBlocks and the
// salvage decoder serve every format version from one host descriptor
// walk (walkBlockLayout): a v1 stream is a v3 stream whose descriptors are
// all FLE offset bytes, with no dictionary and no footer, and v2 adds the
// footer. Only the legacy single-kernel compress and its lookback full
// decode stay in stream.cpp.
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
using detail::descriptorAt;
using detail::footerDigestAt;
using detail::kDigestBytes;
using detail::kernelBlockDigest;
using detail::kernelDigestMatches;
using detail::kNoBadBlock;
using detail::makeProfile;
using detail::putFooterDigest;
using detail::residualsToQuants;
using detail::secondOrderDiff;
using detail::stampStreamCrc;
using detail::streamCrc;
using detail::throwFirstDigestMismatch;
using detail::walkBlockLayout;

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

[[noreturn]] void throwDigestMismatch(const char* api, u64 blk,
                                      u64 byteOffset) {
  throw Error(std::string(api) + ": per-block checksum mismatch at block " +
              std::to_string(blk) + " (stream byte offset " +
              std::to_string(byteOffset) + ") — the stream is corrupted");
}

/// Strict parse of the v3 dictionary section: [u32 tableBytes][u32 CRC-32]
/// [serialized table]. Returns an empty table for a stream that ships no
/// Huffman blocks (tableBytes == 0) or has no section (v1/v2, or no
/// blocks).
HuffTable parseDictionary(const char* api, const StreamHeader& header,
                          ConstByteSpan stream) {
  if (header.dictBytes == 0) return {};
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

/// Decodes one block's payload into quantization integers (full padded
/// block length). `predictor` is the header's: v1/v2 FLE blocks may be
/// SecondOrder, v3 streams are always FirstOrder. Throws cuszp2::Error on
/// malformed payloads.
void decodeBlockV3(const V3BlockDesc& desc, ConstByteSpan payload,
                   const BlockCodec& codec, const HuffDecoder* decoder,
                   Predictor predictor, std::span<i32> quants) {
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
        residualsToQuants(res, quants, predictor);
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

namespace detail {

void throwFirstDigestMismatch(const char* api, std::span<const u64> tileBad,
                              std::span<const u64> blockStart,
                              usize payloadBegin) {
  for (const u64 blk : tileBad) {
    if (blk != kNoBadBlock) {
      throwDigestMismatch(api, blk, payloadBegin + blockStart[blk]);
    }
  }
}

bool walkBlockLayout(const char* api, const StreamHeader& header,
                     ConstByteSpan stream, std::span<u64> blockStart,
                     bool checkDigests, std::span<BlockVerdict> verdicts,
                     bool huffmanDecodable) {
  const bool strict = verdicts.empty();
  const bool digests = checkDigests && header.hasBlockChecksums();
  const u64 numBlocks = header.numBlocks();
  const usize payloadBegin = header.payloadBegin();
  const usize footerB = header.footerBytes();
  const usize payloadAvail = stream.size() - payloadBegin - footerB;
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + payloadBegin;
  const std::byte* footer = payload + payloadAvail;
  const char* descName =
      header.version >= kFormatVersionV3 ? "descriptors" : "offset bytes";
  const PayloadSizeTable psize(header.blockSize);

  u64 cursor = 0;
  for (u64 blk = 0; blk < numBlocks; ++blk) {
    blockStart[blk] = cursor;
    const V3BlockDesc desc = descriptorAt(header, descs, blk);
    const usize remaining =
        cursor <= payloadAvail ? payloadAvail - cursor : 0;
    const usize size = desc.payloadBytes(
        psize, remaining > 0 ? payload + cursor : payload, remaining);
    const bool inBounds = cursor <= payloadAvail && size <= remaining;
    const bool digestOk =
        !inBounds || !digests ||
        footerDigestAt(footer, blk) ==
            blockDigestV3(
                ConstByteSpan(descs + blk * kV3DescBytes, kV3DescBytes),
                ConstByteSpan(payload + cursor, size));
    if (strict) {
      if (!desc.knownPipeline()) {
        throw Error(std::string(api) + ": unknown pipeline id " +
                    std::to_string(static_cast<u32>(desc.pipeline)) +
                    " at block " + std::to_string(blk) +
                    " — the descriptor array is corrupt");
      }
      if (!inBounds) {
        throw Error(std::string(api) + ": " + descName +
                    " imply a payload overrun at block " +
                    std::to_string(blk) + " (stream byte offset " +
                    std::to_string(payloadBegin + cursor) + ", needs " +
                    std::to_string(size) + " bytes, " +
                    std::to_string(remaining) +
                    " available) — the stream is corrupt or truncated");
      }
      if (!digestOk) throwDigestMismatch(api, blk, payloadBegin + cursor);
    } else if (!inBounds) {
      verdicts[blk] = BlockVerdict::Truncated;
    } else if (!digestOk) {
      verdicts[blk] = BlockVerdict::ChecksumMismatch;
    } else if (!desc.knownPipeline() ||
               (desc.pipeline == PipelineId::Huffman && !huffmanDecodable)) {
      verdicts[blk] = BlockVerdict::DecodeError;
    }
    cursor += size;
  }
  blockStart[numBlocks] = cursor;
  const bool framed = payloadBegin + cursor + footerB == stream.size();
  if (!header.hasBlockChecksums() || framed) return false;
  if (!strict) return true;
  throw Error(std::string(api) + ": version-" +
              std::to_string(header.version) +
              " stream framing mismatch (" + descName + " imply " +
              std::to_string(payloadBegin + cursor + footerB) +
              " bytes, stream has " + std::to_string(stream.size()) +
              ") — the stream is corrupted or truncated");
}

}  // namespace detail

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
    const f64 range = metrics::pooledValueRange(data, launcher_.pool());
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
      launcher_.launch(tiles, analyzeBody, {}, "v3_analyze");

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
      launcher_.launch(tiles, encodeBody, {}, "v3_encode");

  if (config_.checksum) {
    stampStreamCrc(header, std::span<std::byte>(staging, finalBytes));
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
KernelProfile CompressorStream::decompressV3(ConstByteSpan stream,
                                            const StreamHeader& header,
                                            std::span<T> out) {
  // Caller (decompressInto) has already reset the arena, applied any
  // injected budget, parsed the header and checked the precision tag and
  // the output size.
  f64 checksumSeconds = 0.0;
  if (header.checksum != 0) {
    require(streamCrc(stream) == header.checksum,
            "decompress: checksum mismatch — the stream is corrupted");
    checksumSeconds += gpusim::modelledPassSeconds(stream.size(),
                                                   timing_.spec(), 1.0);
  }

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();

  if (n == 0) {
    KernelProfile profile;
    profile.endToEndSeconds = timing_.launchSeconds();
    noteDecompressed(stream.size(), 0, 0.0);
    return profile;
  }

  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks + 1);
  walkBlockLayout("decompress", header, stream, blockStart, false);

  const HuffTable table = parseDictionary("decompress", header, stream);
  std::optional<HuffDecoder> decoder;
  if (!table.empty()) decoder.emplace(table);

  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const std::byte* footer = payload + blockStart[numBlocks];
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
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
      const V3BlockDesc desc = descriptorAt(header, descs, blk);
      const ConstByteSpan blockBytes(payload + blockStart[blk],
                                     blockStart[blk + 1] - blockStart[blk]);
      // A block that fails its digest is skipped, never decoded; the host
      // raises the error after the launch.
      if (!kernelDigestMatches(ctx.mem, descs, footer, blk, blockBytes)) {
        firstBad = std::min(firstBad, blk);
        continue;
      }
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      if (blockBytes.empty() && desc.pipeline != PipelineId::Huffman &&
          desc.pipeline != PipelineId::Rle) {
        // Zero block: flush with device memset (as in the legacy path).
        for (u64 e = eFirst; e < eLast; ++e) out[e] = T{};
        zeroBytes += (eLast - eFirst) * sizeof(T);
        continue;
      }
      const std::span<i32> q(quantsArr, L);
      decodeBlockV3(desc, blockBytes, codec, decoderPtr, header.predictor, q);
      dequantizeSpan(quantizer,
                     std::span<const i32>(quantsArr, eLast - eFirst),
                     out.data() + eFirst);
      decodedElems += eLast - eFirst;
      payloadBytesRead += blockBytes.size();
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
  const auto launch = launcher_.launch(tiles, body, {}, "v3_decompress");
  throwFirstDigestMismatch("decompress", tileBad, blockStart,
                           header.payloadBegin());

  const KernelProfile profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
  noteDecompressed(stream.size(), n * sizeof(T), profile.endToEndGBps);
  return profile;
}

template <FloatingPoint T>
BlockRange<T> CompressorStream::decompressBlocks(ConstByteSpan stream,
                                                 u64 firstBlock,
                                                 u64 blockCount) {
  arena_.reset();
  applyInjectedArenaBudget();
  const StreamHeader header = StreamHeader::parse(stream);
  require(header.precision == precisionOf<T>(),
          "decompressBlocks: stream precision mismatch");
  const u64 numBlocks = header.numBlocks();
  require(firstBlock < numBlocks && blockCount > 0 &&
              firstBlock + blockCount <= numBlocks,
          "decompressBlocks: block range out of bounds");

  // The whole layout is walked before any payload read (a corrupt
  // descriptor anywhere shifts every later block).
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks + 1);
  walkBlockLayout("decompressBlocks", header, stream, blockStart, false);
  const HuffTable table = parseDictionary("decompressBlocks", header, stream);
  std::optional<HuffDecoder> decoder;
  if (!table.empty()) decoder.emplace(table);

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const bool digests = header.hasBlockChecksums();
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const std::byte* footer = payload + blockStart[numBlocks];
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};
  const HuffDecoder* decoderPtr = decoder ? &*decoder : nullptr;

  BlockRange<T> out;
  out.firstElement = firstBlock * L;
  const u64 lastElement = std::min<u64>(n, (firstBlock + blockCount) * L);
  out.values.assign(lastElement - out.firstElement, T{});

  // Positions come from the host descriptor walk, so no tile waits on a
  // lookback and only tiles covering the requested range decode; each
  // tile reads just its descriptors (1 byte per block) otherwise. This is
  // why random access reaches TB-level throughput relative to the
  // original data size (paper Fig. 20). With a footer, only the requested
  // blocks are digested.
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
    if (digests) {
      access.read(ctx.mem, (rLast - rFirst) * kDigestBytes, kDigestBytes);
    }
    for (u64 blk = rFirst; blk < rLast; ++blk) {
      const ConstByteSpan blockBytes(payload + blockStart[blk],
                                     blockStart[blk + 1] - blockStart[blk]);
      if (digests &&
          !kernelDigestMatches(ctx.mem, descs, footer, blk, blockBytes)) {
        tileBad[ctx.blockIdx] = std::min(tileBad[ctx.blockIdx], blk);
        continue;
      }
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      const std::span<i32> q(quantsArr, L);
      decodeBlockV3(descriptorAt(header, descs, blk), blockBytes, codec,
                    decoderPtr, header.predictor, q);
      dequantizeSpan(quantizer,
                     std::span<const i32>(quantsArr, eLast - eFirst),
                     out.values.data() + (eFirst - out.firstElement));
      access.read(ctx.mem, blockBytes.size(), 4);
      access.write(ctx.mem, (eLast - eFirst) * sizeof(T), sizeof(T));
      ctx.mem.noteOps((eLast - eFirst) * 8);
    }
  };
  const auto launch =
      launcher_.launch(tiles, body, {}, "random_access_decode");
  throwFirstDigestMismatch("decompressBlocks", tileBad, blockStart,
                           header.payloadBegin());

  out.profile = makeProfile(launch, timing_, header.originalBytes());
  noteDecompressed(stream.size(), out.values.size() * sizeof(T),
                   out.profile.endToEndGBps);
  return out;
}

template <FloatingPoint T>
Compressed CompressorStream::replaceBlocks(ConstByteSpan stream,
                                           u64 firstBlock,
                                           std::span<const T> values) {
  arena_.reset();
  applyInjectedArenaBudget();
  const StreamHeader header = StreamHeader::parse(stream);
  require(header.precision == precisionOf<T>(),
          "replaceBlocks: stream precision mismatch");
  require(!values.empty(), "replaceBlocks: values must be non-empty");
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

  // The whole layout and every footer digest are checked before the
  // splice reads any payload byte: no decode kernel checks them here.
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks + 1);
  walkBlockLayout("replaceBlocks", header, stream, blockStart, true);
  parseDictionary("replaceBlocks", header, stream);  // integrity only

  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const u64 totalPayload = blockStart[numBlocks];
  const u64 rangeStart = blockStart[firstBlock];
  const u64 rangeEnd = blockStart[firstBlock + blockCount];

  // Re-encode the replacement blocks with the FLE pipeline under the
  // stream's bound, mode and predictor (one small kernel). An FLE
  // descriptor is the legacy offset byte, so v1/v2 streams get exactly
  // the bytes their writer would produce. Spliced blocks do not consult
  // the shared dictionary, so a v3 dictionary section passes through
  // unchanged and stays valid for every untouched Huffman block.
  const Quantizer quantizer(header.absErrorBound, config_.roundingMode);
  const BlockCodec codec(L);
  const std::span<std::byte> newDescs =
      arena_.allocSpan<std::byte>(blockCount * kV3DescBytes);
  const std::span<std::byte> newPayload =
      arena_.allocSpan<std::byte>(blockCount * maxPayloadSize(L));
  const std::span<i32> blockScratch = arena_.allocSpan<i32>(L);
  u64 newRangeBytes = 0;
  const std::function<void(gpusim::BlockCtx&)> reencodeBody =
      [&](gpusim::BlockCtx& ctx) {
    std::span<i32> q = blockScratch;
    u64 cursor = 0;
    for (u64 b = 0; b < blockCount; ++b) {
      const u64 vFirst = b * L;
      const u64 vLast = std::min<u64>(values.size(), vFirst + L);
      quantizeDiffBlock(quantizer, values.subspan(vFirst, vLast - vFirst),
                        q);
      if (header.predictor == Predictor::SecondOrder) secondOrderDiff(q);
      const auto plan = codec.planResiduals(q, header.mode);
      V3BlockDesc{PipelineId::Fle, plan.header.pack()}.pack(
          newDescs.data() + b * kV3DescBytes);
      codec.encodeResiduals(q, plan, newPayload.data() + cursor);
      cursor += plan.payloadBytes;
    }
    newRangeBytes = cursor;
    ctx.mem.noteVectorRead(values.size() * sizeof(T), 32);
    ctx.mem.noteScalarRead(numBlocks * kV3DescBytes, 4, 32);
    ctx.mem.noteVectorWrite(cursor + blockCount * kV3DescBytes, 32);
    ctx.mem.noteOps(values.size() * 16);
  };
  const auto launch =
      launcher_.launch(1, reencodeBody, {}, "replace_blocks");

  // Splice: header | descriptors (patched) | dict | payload prefix | new
  // | suffix | footer (rebuilt, when the stream has one). The dictionary
  // section (empty before v3) is byte-copied.
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
  if (header.hasBlockChecksums()) {
    std::vector<std::byte> footer(header.footerBytes());
    const std::byte* outDescs =
        out.stream.data() + StreamHeader::offsetsBegin();
    const std::byte* outPayload = out.stream.data() + header.payloadBegin();
    const u64 outPayloadBytes = out.stream.size() - header.payloadBegin();
    const PayloadSizeTable psize(L);
    u64 cursor = 0;
    for (u64 blk = 0; blk < numBlocks; ++blk) {
      const usize size = descriptorAt(header, outDescs, blk)
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

  // Keep the integrity stamp valid after the splice.
  if (header.checksum != 0) {
    StreamHeader patched = header;
    stampStreamCrc(patched, out.stream);
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
Salvaged<T> CompressorStream::decompressResilient(ConstByteSpan stream,
                                                  T fillValue) {
  arena_.reset();
  // Salvage keeps its never-throws contract: clear (don't take) any
  // injected arena budget.
  arena_.clearFailureBudget();
  Salvaged<T> out;
  DecodeReport& rep = out.report;
  out.profile.endToEndSeconds = timing_.launchSeconds();

  instruments_.salvageCalls->add(1);
  std::string headerError;
  const auto parsed = StreamHeader::tryParse(stream, &headerError);
  if (!parsed) {
    // Unparseable header: no block or byte counts are trustworthy, so
    // nothing beyond the call counter reaches the registry.
    rep.headerError = headerError;
    return out;
  }
  const StreamHeader header = *parsed;
  if (header.precision != precisionOf<T>()) {
    rep.headerError =
        "decompressResilient: stream precision does not match the "
        "requested type";
    return out;
  }
  rep.headerOk = true;
  rep.blockChecksums = header.hasBlockChecksums();

  // Whole-stream CRC verdict is informational in salvage mode: a
  // mismatch localizes nothing, the per-block pass below decides.
  f64 checksumSeconds = 0.0;
  if (header.checksum != 0) {
    rep.streamChecksumOk = streamCrc(stream) == header.checksum;
    checksumSeconds = gpusim::modelledPassSeconds(stream.size(),
                                                  timing_.spec(), 1.0);
  }

  const u32 L = header.blockSize;
  const u32 bpt = config_.blocksPerTile;
  const u64 n = header.numElements;
  const u64 numBlocks = header.numBlocks();
  rep.totalBlocks = numBlocks;
  rep.verdicts.assign(numBlocks, BlockVerdict::Good);
  out.data.assign(n, fillValue);
  if (n == 0) return out;

  // Dictionary verdict: a damaged section header, CRC, or table quarantines
  // every Huffman block but leaves the table-free pipelines decodable.
  HuffTable table;
  try {
    table = parseDictionary("decompressResilient", header, stream);
  } catch (const Error&) {
    rep.dictionaryOk = false;
  }
  std::optional<HuffDecoder> decoder;
  if (rep.dictionaryOk && !table.empty()) decoder.emplace(table);

  // Host structural pass: position every block, bounds-check it, and
  // verify each in-range block's digest when the stream has a footer. A
  // truncated stream quarantines every block past the cut; a damaged
  // descriptor shifts all later positions, so their digests fail too —
  // exactly the blocks whose bytes can no longer be trusted.
  const std::span<u64> blockStart = arena_.allocSpan<u64>(numBlocks + 1);
  rep.framingDamaged =
      walkBlockLayout("decompressResilient", header, stream, blockStart,
                      true, rep.verdicts, decoder.has_value());

  const u32 tiles =
      static_cast<u32>(std::max<u64>(1, (numBlocks + bpt - 1) / bpt));
  const std::byte* descs = stream.data() + StreamHeader::offsetsBegin();
  const std::byte* payload = stream.data() + header.payloadBegin();
  const Quantizer quantizer(header.absErrorBound);
  const BlockCodec codec(L);
  const AccessRecorder access{config_.vectorizedAccess,
                              timing_.spec().transactionBytes};
  const HuffDecoder* decoderPtr = decoder ? &*decoder : nullptr;

  // Decode only the surviving blocks; quarantined blocks keep the fill.
  // Block positions come from the host pass, so no scan state is needed
  // (and corrupted descriptors cannot wedge an inter-tile protocol).
  const std::function<void(gpusim::BlockCtx&)> salvageBody =
      [&](gpusim::BlockCtx& ctx) {
    const u64 firstBlock = static_cast<u64>(ctx.blockIdx) * bpt;
    const u64 lastBlock = std::min(numBlocks, firstBlock + bpt);
    i32 quantsArr[256];
    u64 decodedElems = 0;
    u64 payloadBytesRead = 0;
    for (u64 blk = firstBlock; blk < lastBlock; ++blk) {
      if (rep.verdicts[blk] != BlockVerdict::Good) continue;
      const usize size = blockStart[blk + 1] - blockStart[blk];
      const u64 eFirst = blk * L;
      const u64 eLast = std::min<u64>(n, eFirst + L);
      try {
        const std::span<i32> q(quantsArr, L);
        decodeBlockV3(descriptorAt(header, descs, blk),
                      ConstByteSpan(payload + blockStart[blk], size), codec,
                      decoderPtr, header.predictor, q);
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
      launcher_.launch(tiles, salvageBody, {}, "salvage_decode");

  for (u64 blk = 0; blk < numBlocks; ++blk) {
    if (rep.verdicts[blk] == BlockVerdict::Good) continue;
    ++rep.badBlocks;
    if (rep.firstCorruptOffset == DecodeReport::kNoCorruption) {
      rep.firstCorruptOffset = header.payloadBegin() + blockStart[blk];
    }
  }
  rep.goodBlocks = numBlocks - rep.badBlocks;
  instruments_.salvageBadBlocks->add(rep.badBlocks);

  out.profile =
      makeProfile(launch, timing_, header.originalBytes(), checksumSeconds);
  return out;
}

// Explicit instantiations. The private v3 entry points link from
// stream.cpp (access checking does not apply to explicit instantiation of
// private members).
template Compressed CompressorStream::compressV3<f32>(std::span<const f32>);
template Compressed CompressorStream::compressV3<f64>(std::span<const f64>);
template KernelProfile CompressorStream::decompressV3<f32>(
    ConstByteSpan, const StreamHeader&, std::span<f32>);
template KernelProfile CompressorStream::decompressV3<f64>(
    ConstByteSpan, const StreamHeader&, std::span<f64>);
template BlockRange<f32> CompressorStream::decompressBlocks<f32>(
    ConstByteSpan, u64, u64);
template BlockRange<f64> CompressorStream::decompressBlocks<f64>(
    ConstByteSpan, u64, u64);
template Compressed CompressorStream::replaceBlocks<f32>(
    ConstByteSpan, u64, std::span<const f32>);
template Compressed CompressorStream::replaceBlocks<f64>(
    ConstByteSpan, u64, std::span<const f64>);
template Salvaged<f32> CompressorStream::decompressResilient<f32>(
    ConstByteSpan, f32);
template Salvaged<f64> CompressorStream::decompressResilient<f64>(
    ConstByteSpan, f64);

}  // namespace cuszp2::core
