//===-- snapshot/Reader.cpp - mmap and validate a snapshot ----------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The loader half of the snapshot subsystem.  `MappedFile` maps the
/// whole file read-only; `LoadedSnapshot::load` validates header,
/// section table, bounds, and every checksum *before* constructing any
/// span, so a truncated, corrupted, or foreign file is a `Status` error
/// and never an out-of-bounds read.  Validation is one linear pass over
/// the bytes (the checksums); everything after it is pointer arithmetic
/// — no deserialization, no copies.
///
//===----------------------------------------------------------------------===//

#include "core/LabelSetKernel.h"
#include "snapshot/Snapshot.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

using namespace stcfa;

MappedFile &MappedFile::operator=(MappedFile &&O) noexcept {
  if (this != &O) {
    if (Data)
      ::munmap(const_cast<unsigned char *>(Data), Size);
    Data = O.Data;
    Size = O.Size;
    O.Data = nullptr;
    O.Size = 0;
  }
  return *this;
}

MappedFile::~MappedFile() {
  if (Data)
    ::munmap(const_cast<unsigned char *>(Data), Size);
}

MappedFile MappedFile::open(const std::string &Path, Status &Out) {
  Out = Status::ok();
  // The injected map failure sits on the same unwind a real mmap/open
  // failure takes.
  if (faultFires(fault::SnapshotMapFail)) {
    Out = Status::outOfMemory("snapshot mmap failed");
    return {};
  }
  int Fd = ::open(Path.c_str(), O_RDONLY | O_CLOEXEC);
  if (Fd < 0) {
    Out = Status::internal("cannot open snapshot '" + Path +
                           "': " + std::strerror(errno));
    return {};
  }
  struct stat St = {};
  if (::fstat(Fd, &St) != 0 || St.st_size < 0) {
    Out = Status::internal("cannot stat snapshot '" + Path + "'");
    ::close(Fd);
    return {};
  }
  if (St.st_size == 0) {
    Out = Status::invalidArgument("snapshot '" + Path + "' is empty");
    ::close(Fd);
    return {};
  }
  // MAP_POPULATE prefills the page tables in one kernel pass: checksum
  // validation touches every byte anyway, and batched population beats
  // one minor fault per 4 KiB on the warm-load critical path.
  int Flags = MAP_PRIVATE;
#ifdef MAP_POPULATE
  Flags |= MAP_POPULATE;
#endif
  void *P = ::mmap(nullptr, static_cast<size_t>(St.st_size), PROT_READ,
                   Flags, Fd, 0);
  ::close(Fd);
  if (P == MAP_FAILED) {
    Out = Status::internal("cannot mmap snapshot '" + Path +
                           "': " + std::strerror(errno));
    return {};
  }
  MappedFile M;
  M.Data = static_cast<const unsigned char *>(P);
  M.Size = static_cast<size_t>(St.st_size);
  return M;
}

namespace {

/// Casts a validated payload to a typed span.  The payload offset is a
/// multiple of 64 and the mapping is page-aligned, so every element type
/// in the format is correctly aligned.
template <typename T>
std::span<const T> sectionSpan(const unsigned char *Base,
                               const SnapshotSectionEntry &E) {
  return {reinterpret_cast<const T *>(Base + E.Offset),
          static_cast<size_t>(E.SizeBytes / sizeof(T))};
}

} // namespace

std::unique_ptr<LoadedSnapshot> LoadedSnapshot::load(const std::string &Path,
                                                     Status &Out) {
  Span LoadSpan("snapshot.load");
  static Counter &Loads = counter("snapshot.loads");
  static Counter &LoadFailures = counter("snapshot.load-failures");
  static Histogram &Millis =
      histogram("snapshot.load-millis", latencyBucketsMillis());
  Loads.inc();
  Timer T;
  auto fail = [&](Status S) -> std::unique_ptr<LoadedSnapshot> {
    LoadFailures.inc();
    LoadSpan.arg("status", statusCodeName(S.code()));
    Out = std::move(S);
    return nullptr;
  };
  auto reject = [&](std::string Msg) {
    return fail(Status::invalidArgument("snapshot '" + Path +
                                        "': " + std::move(Msg)));
  };

  Status MapStatus;
  MappedFile Map = MappedFile::open(Path, MapStatus);
  if (!Map.mapped())
    return fail(std::move(MapStatus));
  const unsigned char *Base = Map.data();

  //===--- header ---------------------------------------------------------//
  if (Map.size() < sizeof(SnapshotHeader))
    return reject("only " + std::to_string(Map.size()) +
                  " bytes, smaller than the 64-byte header");
  SnapshotHeader H;
  std::memcpy(&H, Base, sizeof(H));
  if (std::memcmp(H.Magic, SnapshotMagic, sizeof(SnapshotMagic)) != 0)
    return reject("bad magic — not a stcfa snapshot");
  if (H.Endian != SnapshotEndianTag)
    return reject("endianness mismatch — written on a foreign-endian host");
  if (H.Version != SnapshotFormatVersion)
    return reject("format version " + std::to_string(H.Version) +
                  ", this build reads version " +
                  std::to_string(SnapshotFormatVersion) +
                  " — rebuild the snapshot");
  if (hashBytes(Base, sizeof(SnapshotHeader) - sizeof(uint64_t)) !=
      H.HeaderChecksum)
    return reject("header checksum mismatch");
  if (H.FileSize != Map.size())
    return reject("declared size " + std::to_string(H.FileSize) +
                  " != actual size " + std::to_string(Map.size()) +
                  " — truncated or padded file");
  if (H.NumSections == 0 || H.NumSections > SnapshotNumSectionIds)
    return reject("unreasonable section count " +
                  std::to_string(H.NumSections));

  //===--- section table --------------------------------------------------//
  const uint64_t TableEnd =
      sizeof(SnapshotHeader) + uint64_t(H.NumSections) *
                                   sizeof(SnapshotSectionEntry);
  if (TableEnd > Map.size())
    return reject("section table overruns the file");
  const SnapshotSectionEntry *Sections = nullptr;
  SnapshotSectionEntry Table[SnapshotNumSectionIds];
  std::memcpy(Table, Base + sizeof(SnapshotHeader),
              uint64_t(H.NumSections) * sizeof(SnapshotSectionEntry));
  Sections = Table;

  const SnapshotSectionEntry *ById[SnapshotNumSectionIds] = {};
  for (uint32_t I = 0; I != H.NumSections; ++I) {
    const SnapshotSectionEntry &E = Sections[I];
    if (E.Id >= SnapshotNumSectionIds)
      return reject("unknown section id " + std::to_string(E.Id));
    if (ById[E.Id])
      return reject("duplicate section id " + std::to_string(E.Id));
    if (E.Offset % SnapshotSectionAlign != 0)
      return reject("section " + std::to_string(E.Id) + " is misaligned");
    if (E.Offset < TableEnd || E.Offset > Map.size() ||
        E.SizeBytes > Map.size() - E.Offset)
      return reject("section " + std::to_string(E.Id) +
                    " overruns the file");
    if (hashBytes(Base + E.Offset, E.SizeBytes) != E.Checksum)
      return reject("section " + std::to_string(E.Id) +
                    " checksum mismatch — corrupt or bit-rotted file");
    ById[E.Id] = &E;
  }
  auto need = [&](SnapshotSectionId Id) {
    return ById[static_cast<uint32_t>(Id)];
  };

  //===--- meta + per-section size checks ---------------------------------//
  const SnapshotSectionEntry *MetaE = need(SnapshotSectionId::Meta);
  if (!MetaE || MetaE->SizeBytes != sizeof(SnapshotMeta))
    return reject("missing or mis-sized meta section");
  SnapshotMeta Meta;
  std::memcpy(&Meta, Base + MetaE->Offset, sizeof(Meta));

  auto checkArray = [&](SnapshotSectionId Id, uint64_t Elems,
                        uint64_t ElemSize) -> const SnapshotSectionEntry * {
    const SnapshotSectionEntry *E = need(Id);
    if (!E || E->SizeBytes != Elems * ElemSize)
      return nullptr;
    return E;
  };
  const uint64_t N = Meta.NumNodes;
  const SnapshotSectionEntry *OutOff =
      checkArray(SnapshotSectionId::OutOffsets, N + 1, 4);
  const SnapshotSectionEntry *OutTgt =
      checkArray(SnapshotSectionId::OutTargets, Meta.NumEdges, 4);
  const SnapshotSectionEntry *InOff =
      checkArray(SnapshotSectionId::InOffsets, N + 1, 4);
  const SnapshotSectionEntry *InTgt =
      checkArray(SnapshotSectionId::InTargets, Meta.NumEdges, 4);
  const SnapshotSectionEntry *LabAt =
      checkArray(SnapshotSectionId::LabelAt, N, 4);
  const SnapshotSectionEntry *Ops = checkArray(SnapshotSectionId::NodeOps, N,
                                               sizeof(NodeOp));
  const SnapshotSectionEntry *NOfE =
      checkArray(SnapshotSectionId::NodeOfExpr, Meta.NumExprs, 4);
  const SnapshotSectionEntry *NOfV =
      checkArray(SnapshotSectionId::NodeOfVar, Meta.NumVars, 4);
  const SnapshotSectionEntry *LRoots =
      checkArray(SnapshotSectionId::LabelRoots, 2 * uint64_t(Meta.NumLabels),
                 4);
  const SnapshotSectionEntry *Scc = checkArray(SnapshotSectionId::SccOf, N, 4);
  const SnapshotSectionEntry *RanE =
      checkArray(SnapshotSectionId::RanOf, N, 4);
  const SnapshotSectionEntry *EOffs =
      checkArray(SnapshotSectionId::ExprNameOffsets,
                 uint64_t(Meta.NumExprs) + 1, 4);
  const SnapshotSectionEntry *LOffs =
      checkArray(SnapshotSectionId::LabelNameOffsets,
                 uint64_t(Meta.NumLabels) + 1, 4);
  const SnapshotSectionEntry *SrcR = checkArray(
      SnapshotSectionId::SourceRanges, 4 * uint64_t(Meta.NumExprs), 4);
  const SnapshotSectionEntry *BlobE = need(SnapshotSectionId::StringBlob);
  if (!OutOff || !OutTgt || !InOff || !InTgt || !LabAt || !Ops || !NOfE ||
      !NOfV || !LRoots || !Scc || !RanE || !EOffs || !LOffs || !SrcR || !BlobE)
    return reject("a required section is missing or sized inconsistently "
                  "with the meta counts");
  if (Meta.NumExprs != 0 && Meta.RootExpr >= Meta.NumExprs)
    return reject("root occurrence out of range");

  // The kernel's interning: every row id must name a pool row, row 0
  // must be the empty set, and no row may set a bit past the label
  // universe — so no later read can leave the pool or the name table.
  const SnapshotSectionEntry *RowOfE = nullptr, *PoolE = nullptr;
  if (H.Flags & SnapshotHasKernelRows) {
    const uint32_t W = Meta.KernelWordsPerSet;
    if (W == 0 || W != (uint64_t(Meta.NumLabels) + 63) / 64 ||
        Meta.KernelPoolRows == 0)
      return reject("kernel pool shape does not fit the label count");
    RowOfE = checkArray(SnapshotSectionId::KernelRowOf, Meta.NumSccs, 4);
    if (!RowOfE)
      return reject("kernel row-id section missing or mis-sized");
    PoolE = checkArray(SnapshotSectionId::KernelPool,
                       uint64_t(Meta.KernelPoolRows) * W, 8);
    if (!PoolE)
      return reject("kernel pool section missing or mis-sized");
    std::span<const uint32_t> RowOf = sectionSpan<uint32_t>(Base, *RowOfE);
    for (size_t S = 0; S != RowOf.size(); ++S)
      if (RowOf[S] >= Meta.KernelPoolRows)
        return reject("kernel row id of component " + std::to_string(S) +
                      " is outside the pool");
    std::span<const uint64_t> Pool = sectionSpan<uint64_t>(Base, *PoolE);
    const uint64_t Tail =
        Meta.NumLabels % 64 ? ~uint64_t(0) << (Meta.NumLabels % 64) : 0;
    if (std::any_of(Pool.begin(), Pool.begin() + W,
                    [](uint64_t Word) { return Word != 0; }))
      return reject("kernel pool row 0 is not the empty set");
    for (size_t Row = 0; Row != Meta.KernelPoolRows; ++Row)
      if (Pool[Row * W + W - 1] & Tail)
        return reject("kernel pool row " + std::to_string(Row) +
                      " has a label past the label universe");
  }

  //===--- string-table coherence -----------------------------------------//
  auto checkOffsets = [&](const SnapshotSectionEntry *E) {
    std::span<const uint32_t> O = sectionSpan<uint32_t>(Base, *E);
    for (size_t I = 1; I < O.size(); ++I)
      if (O[I] < O[I - 1])
        return false;
    return O.empty() || (O.front() <= O.back() &&
                         uint64_t(O.back()) <= BlobE->SizeBytes);
  };
  if (!checkOffsets(EOffs) || !checkOffsets(LOffs))
    return reject("name-table offsets are not monotone within the string "
                  "blob");

  //===--- assemble the zero-copy view ------------------------------------//
  auto Snap = std::unique_ptr<LoadedSnapshot>(new LoadedSnapshot());
  FrozenGraph::Tables Tb;
  Tb.NumNodes = Meta.NumNodes;
  Tb.NumExprs = Meta.NumExprs;
  Tb.NumVars = Meta.NumVars;
  Tb.NumLabels = Meta.NumLabels;
  Tb.OutOffsets = sectionSpan<uint32_t>(Base, *OutOff);
  Tb.OutTargets = sectionSpan<uint32_t>(Base, *OutTgt);
  Tb.InOffsets = sectionSpan<uint32_t>(Base, *InOff);
  Tb.InTargets = sectionSpan<uint32_t>(Base, *InTgt);
  Tb.LabelAt = sectionSpan<uint32_t>(Base, *LabAt);
  Tb.Ops = sectionSpan<NodeOp>(Base, *Ops);
  Tb.NodeOfExpr = sectionSpan<uint32_t>(Base, *NOfE);
  Tb.NodeOfVar = sectionSpan<uint32_t>(Base, *NOfV);
  Tb.LabelRoots = sectionSpan<uint32_t>(Base, *LRoots);
  Tb.SccOf = sectionSpan<uint32_t>(Base, *Scc);
  Tb.NumSccs = Meta.NumSccs;
  Tb.RanOf = sectionSpan<uint32_t>(Base, *RanE);
  Snap->F = FrozenGraph::fromTables(Tb);
  Snap->Map = std::move(Map);
  Snap->ContentHash = H.ContentHash;
  Snap->RootExpr = Meta.RootExpr;
  Snap->StringBlob = sectionSpan<char>(Base, *BlobE);
  Snap->ExprNameOffsets = sectionSpan<uint32_t>(Base, *EOffs);
  Snap->LabelNameOffsets = sectionSpan<uint32_t>(Base, *LOffs);
  Snap->SourceRanges = sectionSpan<uint32_t>(Base, *SrcR);
  if (RowOfE) {
    Snap->KernelRowOf = sectionSpan<uint32_t>(Base, *RowOfE);
    Snap->KernelPool = sectionSpan<uint64_t>(Base, *PoolE);
  }

  Millis.observe(static_cast<uint64_t>(T.millis()));
  LoadSpan.arg("bytes", Snap->Map.size());
  LoadSpan.arg("nodes", Meta.NumNodes);
  LoadSpan.arg("edges", Meta.NumEdges);
  LoadSpan.arg("kernel_rows", RowOfE ? Meta.KernelPoolRows : 0);
  LoadSpan.arg("status", statusCodeName(StatusCode::Ok));
  Out = Status::ok();
  return Snap;
}

std::unique_ptr<LabelSetKernel> LoadedSnapshot::adoptKernel() const {
  if (!hasKernelRows())
    return nullptr;
  return std::make_unique<LabelSetKernel>(*F, KernelRowOf, KernelPool);
}
