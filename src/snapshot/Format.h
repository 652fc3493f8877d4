//===-- snapshot/Format.h - On-disk FrozenGraph layout ----------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistent snapshot format: a versioned header, a section table,
/// and 64-byte-aligned raw-array sections laid out exactly as the
/// in-memory `FrozenGraph::Tables` spans expect them, so the loader can
/// `mmap` the file read-only and point the spans straight into the
/// mapping — zero deserialization on the warm path.
///
///   offset 0      SnapshotHeader            (64 bytes)
///   offset 64     SectionEntry[NumSections] (32 bytes each)
///   aligned(64)   section payloads, in table order, zero-padded
///                 between sections
///
/// Integrity: the header carries a checksum over its own first 56 bytes;
/// every section entry carries a checksum over its payload (both
/// `hashBytes`).  The loader validates magic, version, endianness tag,
/// declared file size, section bounds/alignment, and every checksum
/// before handing out a single span — truncation, header corruption, and
/// bit rot all surface as `Status` errors, never as wrong answers.
///
/// Versioning policy: `FormatVersion` bumps on ANY layout change — there
/// is no in-place migration; a mismatched snapshot is rejected and the
/// caller rebuilds from source (the cache key includes the version, so
/// stale cache entries simply stop matching).  The endianness tag makes
/// a snapshot written on a foreign-endian host a clean rejection rather
/// than garbage offsets.
///
/// All structs are fixed-size, explicitly padded, and contain only
/// fixed-width integers, so `sizeof` is the wire size on every platform
/// this repo builds on (static_asserts below pin it).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_SNAPSHOT_FORMAT_H
#define STCFA_SNAPSHOT_FORMAT_H

#include <cstddef>
#include <cstdint>

namespace stcfa {

/// "STCFASNP", the 8 magic bytes at offset 0.
inline constexpr char SnapshotMagic[8] = {'S', 'T', 'C', 'F',
                                          'A', 'S', 'N', 'P'};

/// Bumped on any layout change; mismatches are rejected, never migrated.
/// Version 2 added the `RanOf` section (the flat ran-port map the
/// effects analysis reads, like every other consumer, from the frozen
/// tables alone).  Version 3 replaced the one-row-per-component kernel
/// matrix with the kernel's interning: a row id per component
/// (`KernelRowOf`) into a pool of distinct rows (`KernelPool`).
inline constexpr uint32_t SnapshotFormatVersion = 3;

/// Written as-is by the host; a foreign-endian reader sees it permuted.
inline constexpr uint32_t SnapshotEndianTag = 0x01020304;

/// Every section payload starts on a 64-byte boundary (cache-line and
/// `uint64_t` aligned; the mmap base is page-aligned, so file offsets
/// carry through to memory alignment).
inline constexpr uint64_t SnapshotSectionAlign = 64;

/// Header flag bits.
enum SnapshotFlags : uint64_t {
  /// The `KernelRowOf` and `KernelPool` sections hold the complete
  /// label-set kernel's interning.
  SnapshotHasKernelRows = 1u << 0,
};

/// Section identifiers (the `Id` field of a `SectionEntry`).  Order in
/// the section table is not significant; ids are.
enum class SnapshotSectionId : uint32_t {
  Meta = 0,             ///< one `SnapshotMeta`
  OutOffsets = 1,       ///< uint32[NumNodes + 1]
  OutTargets = 2,       ///< uint32[NumEdges]
  InOffsets = 3,        ///< uint32[NumNodes + 1]
  InTargets = 4,        ///< uint32[NumEdges]
  LabelAt = 5,          ///< uint32[NumNodes]
  NodeOps = 6,          ///< uint8[NumNodes] (NodeOp)
  NodeOfExpr = 7,       ///< uint32[NumExprs]
  NodeOfVar = 8,        ///< uint32[NumVars]
  LabelRoots = 9,       ///< uint32[2 * NumLabels]
  SccOf = 10,           ///< uint32[NumNodes] (Tarjan condensation map)
  KernelRowOf = 11,     ///< uint32[NumSccs]: pool row id (optional)
  StringBlob = 12,      ///< concatenated pre-rendered names (no NULs)
  ExprNameOffsets = 13, ///< uint32[NumExprs + 1], offsets into StringBlob
  LabelNameOffsets = 14,///< uint32[NumLabels + 1], offsets into StringBlob
  SourceRanges = 15,    ///< uint32[4 * NumExprs]: begin/end line/col
  RanOf = 16,           ///< uint32[NumNodes]: ran-port node or None
  KernelPool = 17,      ///< uint64[KernelPoolRows * KernelWordsPerSet]
                        ///< distinct rows, row 0 empty (optional)
};

/// Number of distinct section ids defined by this format version.
inline constexpr uint32_t SnapshotNumSectionIds = 18;

/// The 64-byte file header.  `HeaderChecksum` covers bytes [0, 56).
struct SnapshotHeader {
  char Magic[8];          ///< `SnapshotMagic`
  uint32_t Version;       ///< `SnapshotFormatVersion`
  uint32_t Endian;        ///< `SnapshotEndianTag`
  uint64_t Flags;         ///< `SnapshotFlags` bits
  uint64_t FileSize;      ///< total file size in bytes
  uint64_t ContentHash;   ///< cache key of the source program (0 = unknown)
  uint32_t NumSections;   ///< entries in the section table
  uint32_t Reserved0;     ///< zero
  uint64_t Reserved1;     ///< zero
  uint64_t HeaderChecksum;///< hashBytes over the first 56 bytes
};
static_assert(sizeof(SnapshotHeader) == 64, "header is 64 bytes on disk");

/// One 32-byte section-table entry.  `Checksum` covers the payload bytes
/// `[Offset, Offset + SizeBytes)`.
struct SnapshotSectionEntry {
  uint32_t Id;        ///< a `SnapshotSectionId`
  uint32_t Reserved;  ///< zero
  uint64_t Offset;    ///< payload file offset, multiple of 64
  uint64_t SizeBytes; ///< payload size (excluding inter-section padding)
  uint64_t Checksum;  ///< hashBytes over the payload
};
static_assert(sizeof(SnapshotSectionEntry) == 32, "entry is 32 bytes");

/// The `Meta` section: every scalar the loader needs to size-check the
/// array sections and rebuild `FrozenGraph::Tables`.
struct SnapshotMeta {
  uint32_t NumNodes;
  uint32_t NumExprs;
  uint32_t NumVars;
  uint32_t NumLabels;
  uint32_t NumSccs;          ///< rows of `SccOf` condensation image
  uint32_t RootExpr;         ///< the module root's ExprId
  uint32_t KernelWordsPerSet;///< words per `KernelPool` row (0 = none)
  uint32_t KernelPoolRows;   ///< rows in `KernelPool` (0 = none)
  uint64_t NumEdges;         ///< length of OutTargets / InTargets
};
static_assert(sizeof(SnapshotMeta) == 40, "meta is 40 bytes on disk");

/// Rounds \p Offset up to the section alignment.
inline uint64_t snapshotAlignUp(uint64_t Offset) {
  return (Offset + SnapshotSectionAlign - 1) & ~(SnapshotSectionAlign - 1);
}

} // namespace stcfa

#endif // STCFA_SNAPSHOT_FORMAT_H
