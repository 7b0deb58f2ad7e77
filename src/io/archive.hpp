// Multi-field archive container.
//
// HPC datasets are collections of named fields (CESM-ATM has 33, HACC 6,
// ...). This container packs one compressed stream per field with a table
// of contents so a whole dataset round-trips through a single file, and
// individual fields can be located without touching the rest — the
// file-level analogue of cuSZp2's block-level random access.
//
// Layout (little-endian):
//   [magic u64][field count u64]
//   per field: [name length u32][name bytes][stream length u64]
//   concatenated streams
//   optional parity trailer (see ParityOptions / docs/FORMAT.md §6)
//
// The parity trailer is self-locating from the end of the file and covers
// the whole archive before it (header + TOC + streams) with per-chunk
// CRC-32s plus one XOR parity chunk per group of chunks, so a single
// damaged chunk per group can be located and rebuilt in place
// (repairParity). Readers unaware of the trailer ignore it: the TOC
// tolerates trailing bytes.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace cuszp2::io {

/// Parity-trailer parameters (ArchiveWriter::finalize overload). The
/// protected region is split into `chunkBytes` chunks; each group of
/// `groupSize` consecutive chunks gets one XOR parity chunk, so one
/// damaged chunk per group is recoverable at an overhead of roughly
/// 1/groupSize plus 4 bytes per chunk for the CRC table.
struct ParityOptions {
  usize chunkBytes = 4096;
  usize groupSize = 8;
};

/// Outcome of verifyParity / repairParity over an archive.
struct RepairReport {
  /// False when the archive carries no parity trailer (nothing to check;
  /// the other fields are meaningless).
  bool parityPresent = false;

  /// False when a trailer is present but itself damaged (bad framing or
  /// trailer CRC); no chunk verdicts are available then.
  bool trailerOk = false;

  u64 protectedBytes = 0;
  u64 totalChunks = 0;

  /// Chunks whose CRC-32 no longer matches.
  u64 badChunks = 0;

  /// verifyParity: bad chunks whose XOR reconstruction checks out (what a
  /// repair would fix). repairParity: always 0 (see repairedChunks).
  u64 repairableChunks = 0;

  /// repairParity: bad chunks rebuilt in place (reconstruction verified
  /// against the stored chunk CRC before writing).
  u64 repairedChunks = 0;

  /// Bad chunks beyond parity's reach: more than one damaged chunk in the
  /// group, or the reconstruction failed its CRC (damaged parity chunk or
  /// damaged CRC table entry).
  u64 unrepairableChunks = 0;

  /// No integrity problem found (vacuously true without a trailer).
  bool clean() const {
    return !parityPresent || (trailerOk && badChunks == 0);
  }
};

/// True when the bytes start with the archive magic (cheap container
/// sniff for tools that accept both streams and archives).
bool isArchive(ConstByteSpan bytes);

/// Checks an archive's parity trailer without modifying anything.
RepairReport verifyParity(ConstByteSpan archive);

/// Rebuilds damaged chunks in place using the parity trailer. Each
/// reconstruction is verified against the stored chunk CRC before any
/// byte is written back.
RepairReport repairParity(std::span<std::byte> archive);

/// Appends a self-healing parity trailer (see ParityOptions) covering
/// `bytes` and returns the sealed result. ArchiveWriter::finalize(parity)
/// is this applied to finalize(); the cluster's replicated archive store
/// seals every stored copy the same way, so cross-shard replicas verify
/// and self-repair with the file-level verifyParity/repairParity
/// machinery.
std::vector<std::byte> withParityTrailer(std::vector<std::byte> bytes,
                                         const ParityOptions& parity);

class ArchiveWriter {
 public:
  /// Adds a field; names must be unique and non-empty.
  void addField(const std::string& name, ConstByteSpan stream);

  bool hasField(const std::string& name) const;
  usize fieldCount() const { return fields_.size(); }

  /// Serializes the archive. The writer remains usable afterwards.
  std::vector<std::byte> finalize() const;

  /// Serializes the archive with a self-healing parity trailer appended
  /// (see ParityOptions). Readers unaware of parity read the result
  /// unchanged.
  std::vector<std::byte> finalize(const ParityOptions& parity) const;

 private:
  struct Field {
    std::string name;
    std::vector<std::byte> stream;
  };
  std::vector<Field> fields_;
};

class ArchiveReader {
 public:
  /// Parses and validates the table of contents; the archive bytes must
  /// outlive the reader (field() returns views into them).
  explicit ArchiveReader(ConstByteSpan archive);

  usize fieldCount() const { return entries_.size(); }
  std::vector<std::string> fieldNames() const;
  bool hasField(const std::string& name) const;

  /// Returns the compressed stream of a field; throws if absent.
  ConstByteSpan field(const std::string& name) const;

 private:
  struct Entry {
    std::string name;
    usize offset;
    usize length;
  };
  ConstByteSpan archive_;
  std::vector<Entry> entries_;
};

}  // namespace cuszp2::io
