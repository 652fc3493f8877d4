//===-- snapshot/Writer.cpp - Serialize a FrozenGraph to disk -------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "ast/Module.h"
#include "ast/Printer.h"
#include "core/LabelSetKernel.h"
#include "snapshot/Snapshot.h"
#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <vector>

#include <unistd.h>

using namespace stcfa;

namespace {

/// One section staged for layout: its id and payload bytes.
struct StagedSection {
  SnapshotSectionId Id;
  const void *Data;
  uint64_t Size;
};

} // namespace

Status stcfa::writeSnapshot(const std::string &Path, const FrozenGraph &F,
                            const Module &M,
                            const SnapshotWriteOptions &Opts) {
  Span WriteSpan("snapshot.write");
  static Counter &Writes = counter("snapshot.writes");
  static Counter &WriteFailures = counter("snapshot.write-failures");
  static Counter &WriteBytes = counter("snapshot.write-bytes");
  static Histogram &Millis =
      histogram("snapshot.write-millis", latencyBucketsMillis());
  Writes.inc();
  Timer T;
  auto fail = [&](Status S) {
    WriteFailures.inc();
    WriteSpan.arg("status", statusCodeName(S.code()));
    return S;
  };

  if (!F.status().isOk())
    return fail(Status::invalidArgument(
        "refusing to persist an inert snapshot: " + F.status().toString()));
  if (Opts.Kernel && !Opts.Kernel->complete())
    return fail(Status::invalidArgument(
        "refusing to persist an incomplete label-set kernel"));
  // The serialization buffer is the writer's one big allocation; the
  // injected site sits where a real bad_alloc guard would.
  if (faultFires(fault::SnapshotWriteAlloc))
    return fail(Status::outOfMemory("snapshot buffer allocation failed"));

  const FrozenGraph::Tables Tb = F.tables();

  // Pre-rendered name tables: the loader has no Module, so the driver
  // renders query output from these — byte-identical to the in-memory
  // path because both go through describeExpr/describeLabel.
  std::string Blob;
  std::vector<uint32_t> ExprOffs(size_t(Tb.NumExprs) + 1, 0);
  for (uint32_t I = 0; I != Tb.NumExprs; ++I) {
    Blob += describeExpr(M, ExprId(I));
    ExprOffs[I + 1] = static_cast<uint32_t>(Blob.size());
  }
  std::vector<uint32_t> LabelOffs(size_t(Tb.NumLabels) + 1,
                                  static_cast<uint32_t>(Blob.size()));
  for (uint32_t I = 0; I != Tb.NumLabels; ++I) {
    Blob += describeLabel(M, LabelId(I));
    LabelOffs[I + 1] = static_cast<uint32_t>(Blob.size());
  }
  std::vector<uint32_t> Ranges(4 * size_t(Tb.NumExprs), 0);
  for (uint32_t I = 0; I != Tb.NumExprs; ++I) {
    SourceRange R = M.expr(ExprId(I))->range();
    Ranges[4 * I + 0] = R.Begin.Line;
    Ranges[4 * I + 1] = R.Begin.Col;
    Ranges[4 * I + 2] = R.End.Line;
    Ranges[4 * I + 3] = R.End.Col;
  }

  // The kernel matrix, rows re-packed tight (the in-memory rows are
  // cache-line padded; on disk every byte is checksummed, so no padding).
  std::vector<uint64_t> KernelRows;
  uint32_t KernelWords = 0;
  if (Opts.Kernel && Opts.Kernel->wordsPerSet() != 0 && Tb.NumSccs != 0) {
    KernelWords = Opts.Kernel->wordsPerSet();
    KernelRows.reserve(size_t(Tb.NumSccs) * KernelWords);
    for (uint32_t Scc = 0; Scc != Tb.NumSccs; ++Scc) {
      std::span<const uint64_t> Row = Opts.Kernel->rowSpan(Scc);
      KernelRows.insert(KernelRows.end(), Row.begin(), Row.end());
    }
  }

  SnapshotMeta Meta = {};
  Meta.NumNodes = Tb.NumNodes;
  Meta.NumExprs = Tb.NumExprs;
  Meta.NumVars = Tb.NumVars;
  Meta.NumLabels = Tb.NumLabels;
  Meta.NumSccs = Tb.NumSccs;
  Meta.RootExpr = M.root().index();
  Meta.KernelWordsPerSet = KernelWords;
  Meta.NumEdges = Tb.OutTargets.size();

  auto bytesOf = [](const auto &V) -> uint64_t {
    return V.size() * sizeof(*V.data());
  };
  std::vector<StagedSection> Secs = {
      {SnapshotSectionId::Meta, &Meta, sizeof(Meta)},
      {SnapshotSectionId::OutOffsets, Tb.OutOffsets.data(),
       bytesOf(Tb.OutOffsets)},
      {SnapshotSectionId::OutTargets, Tb.OutTargets.data(),
       bytesOf(Tb.OutTargets)},
      {SnapshotSectionId::InOffsets, Tb.InOffsets.data(),
       bytesOf(Tb.InOffsets)},
      {SnapshotSectionId::InTargets, Tb.InTargets.data(),
       bytesOf(Tb.InTargets)},
      {SnapshotSectionId::LabelAt, Tb.LabelAt.data(), bytesOf(Tb.LabelAt)},
      {SnapshotSectionId::NodeOps, Tb.Ops.data(), bytesOf(Tb.Ops)},
      {SnapshotSectionId::NodeOfExpr, Tb.NodeOfExpr.data(),
       bytesOf(Tb.NodeOfExpr)},
      {SnapshotSectionId::NodeOfVar, Tb.NodeOfVar.data(),
       bytesOf(Tb.NodeOfVar)},
      {SnapshotSectionId::LabelRoots, Tb.LabelRoots.data(),
       bytesOf(Tb.LabelRoots)},
      {SnapshotSectionId::SccOf, Tb.SccOf.data(), bytesOf(Tb.SccOf)},
      {SnapshotSectionId::RanOf, Tb.RanOf.data(), bytesOf(Tb.RanOf)},
      {SnapshotSectionId::StringBlob, Blob.data(), Blob.size()},
      {SnapshotSectionId::ExprNameOffsets, ExprOffs.data(),
       bytesOf(ExprOffs)},
      {SnapshotSectionId::LabelNameOffsets, LabelOffs.data(),
       bytesOf(LabelOffs)},
      {SnapshotSectionId::SourceRanges, Ranges.data(), bytesOf(Ranges)},
  };
  if (KernelWords != 0)
    Secs.push_back({SnapshotSectionId::KernelRows, KernelRows.data(),
                    bytesOf(KernelRows)});

  // Layout: header, section table, then 64-byte-aligned payloads in table
  // order.  Padding bytes are zero, so identical tables always produce
  // byte-identical files (the determinism the cache keys rely on).
  const uint64_t TableOff = sizeof(SnapshotHeader);
  uint64_t Off = snapshotAlignUp(TableOff + Secs.size() *
                                                sizeof(SnapshotSectionEntry));
  std::vector<SnapshotSectionEntry> Entries(Secs.size());
  for (size_t I = 0; I != Secs.size(); ++I) {
    Entries[I].Id = static_cast<uint32_t>(Secs[I].Id);
    Entries[I].Reserved = 0;
    Entries[I].Offset = Off;
    Entries[I].SizeBytes = Secs[I].Size;
    Off = snapshotAlignUp(Off + Secs[I].Size);
  }
  // File size: end of the last payload, unpadded (any truncation below
  // it is caught by the declared-size check before any span exists).
  const uint64_t FileSize = Entries.empty()
                                ? snapshotAlignUp(TableOff)
                                : Entries.back().Offset +
                                      Entries.back().SizeBytes;

  std::vector<unsigned char> Buf(FileSize, 0);
  for (size_t I = 0; I != Secs.size(); ++I) {
    if (Secs[I].Size != 0)
      std::memcpy(Buf.data() + Entries[I].Offset, Secs[I].Data, Secs[I].Size);
    Entries[I].Checksum = hashBytes(Buf.data() + Entries[I].Offset,
                                    Entries[I].SizeBytes);
  }
  std::memcpy(Buf.data() + TableOff, Entries.data(),
              Entries.size() * sizeof(SnapshotSectionEntry));

  SnapshotHeader H = {};
  std::memcpy(H.Magic, SnapshotMagic, sizeof(SnapshotMagic));
  H.Version = SnapshotFormatVersion;
  H.Endian = SnapshotEndianTag;
  H.Flags = KernelWords != 0 ? uint64_t(SnapshotHasKernelRows) : 0;
  H.FileSize = FileSize;
  H.ContentHash = Opts.ContentHash;
  H.NumSections = static_cast<uint32_t>(Secs.size());
  std::memcpy(Buf.data(), &H, sizeof(H));
  const uint64_t HeaderCk =
      hashBytes(Buf.data(), sizeof(SnapshotHeader) - sizeof(uint64_t));
  std::memcpy(Buf.data() + sizeof(SnapshotHeader) - sizeof(uint64_t),
              &HeaderCk, sizeof(HeaderCk));

  // Corruption canaries (Corrupt-kind fault sites): each silently damages
  // the buffer *after* checksumming, producing the on-disk failure the
  // loader's validation must catch — never a wrong answer.
  if (faultFires(fault::SnapshotCsrBitFlip)) {
    // Flip one bit inside the OutTargets payload (fall back to the last
    // byte of the file for an edgeless graph).
    unsigned char *Target = &Buf[Buf.size() - 1];
    for (size_t I = 0; I != Secs.size(); ++I)
      if (Secs[I].Id == SnapshotSectionId::OutTargets &&
          Entries[I].SizeBytes != 0)
        Target = Buf.data() + Entries[I].Offset;
    *Target ^= 0x10;
  }
  if (faultFires(fault::SnapshotHeaderCorrupt))
    Buf[0] ^= 0x40; // first magic byte
  if (faultFires(fault::SnapshotTruncate))
    Buf.resize(Buf.size() - std::min<size_t>(Buf.size(), 65));

  // Atomic replace: write a temporary sibling, flush, rename into place.
  const std::string Tmp = Path + ".tmp." + std::to_string(::getpid());
  std::FILE *OutFile = std::fopen(Tmp.c_str(), "wb");
  if (!OutFile)
    return fail(Status::internal("cannot create snapshot temp file '" + Tmp +
                                 "'"));
  const bool Wrote =
      Buf.empty() ||
      std::fwrite(Buf.data(), 1, Buf.size(), OutFile) == Buf.size();
  bool Flushed = std::fflush(OutFile) == 0;
  Flushed = Flushed && ::fsync(::fileno(OutFile)) == 0;
  const bool Closed = std::fclose(OutFile) == 0;
  if (!Wrote || !Flushed || !Closed || std::rename(Tmp.c_str(), Path.c_str())) {
    std::remove(Tmp.c_str());
    return fail(Status::internal("cannot write snapshot '" + Path + "'"));
  }

  WriteBytes.add(Buf.size());
  Millis.observe(static_cast<uint64_t>(T.millis()));
  WriteSpan.arg("bytes", Buf.size());
  WriteSpan.arg("sections", Secs.size());
  WriteSpan.arg("nodes", Tb.NumNodes);
  WriteSpan.arg("edges", Meta.NumEdges);
  WriteSpan.arg("kernel_rows", KernelWords != 0 ? Tb.NumSccs : 0);
  WriteSpan.arg("status", statusCodeName(StatusCode::Ok));
  return Status::ok();
}

Status stcfa::writeSnapshotWithKernel(const std::string &Path,
                                      const FrozenGraph &F, const Module &M,
                                      uint64_t ContentHash) {
  SnapshotWriteOptions WO;
  WO.ContentHash = ContentHash;
  std::unique_ptr<LabelSetKernel> Kern;
  if (M.numLabels() != 0) {
    Kern = std::make_unique<LabelSetKernel>(F);
    if (Kern->run().isOk())
      WO.Kernel = Kern.get();
  }
  return writeSnapshot(Path, F, M, WO);
}
