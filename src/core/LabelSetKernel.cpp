//===-- core/LabelSetKernel.cpp - Interned label-set closure --------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LabelSetKernel.h"

#include "support/FaultInjection.h"
#include "support/Hashing.h"
#include "support/Metrics.h"
#include "support/SimdOps.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstring>
#include <string>

using namespace stcfa;

//===----------------------------------------------------------------------===//
// LabelRowPool
//===----------------------------------------------------------------------===//

LabelRowPool::LabelRowPool(uint32_t NumLabels)
    : NumLabels(NumLabels), Words((NumLabels + 63) / 64), NumRows(1) {
  // Programs pool about L rows, so size for that up front: no rehash or
  // row copy on the way there (reserved rows are never touched unused).
  // The store always holds one spare row past the pool.
  Store.reserve((size_t(NumLabels) + 64) * Words);
  Store.assign(2 * size_t(Words), 0);
  rehash(std::bit_ceil(2 * (size_t(NumLabels) + 64)));
}

LabelRowPool::LabelRowPool(uint32_t NumLabels, std::span<const uint64_t> Rows)
    : NumLabels(NumLabels), Words((NumLabels + 63) / 64),
      NumRows(Words ? static_cast<uint32_t>(Rows.size() / Words) : 1),
      Adopted(Rows.data()) {}

/// Rebuilds the intern table with \p NumSlots (a power of two) slots.
void LabelRowPool::rehash(size_t NumSlots) {
  Slots.assign(NumSlots, 0);
  const size_t Mask = NumSlots - 1;
  for (uint32_t Id = 0; Id != NumRows; ++Id) {
    size_t I = hashBytes(base() + size_t(Id) * Words, size_t(Words) * 8) & Mask;
    while (Slots[I] != 0)
      I = (I + 1) & Mask;
    Slots[I] = Id + 1;
  }
}

uint32_t LabelRowPool::intern(const uint64_t *Row) {
  if (Words == 0)
    return 0; // no labels: every set is row 0
  assert(!Slots.empty() && "an adopted pool never interns");
  const size_t Bytes = size_t(Words) * 8;
  const size_t Mask = Slots.size() - 1;
  size_t I = hashBytes(Row, Bytes) & Mask;
  for (; Slots[I] != 0; I = (I + 1) & Mask)
    if (std::memcmp(base() + size_t(Slots[I] - 1) * Words, Row, Bytes) == 0)
      return Slots[I] - 1;
  if (Row != spare())
    std::memcpy(spare(), Row, Bytes);
  const uint32_t Id = NumRows++;
  Store.resize(Store.size() + Words); // the next spare row
  if (2 * size_t(NumRows) > Slots.size())
    rehash(2 * Slots.size());
  else
    Slots[I] = Id + 1;
  return Id;
}

DenseBitset LabelRowPool::set(uint32_t Id) const {
  DenseBitset Out(NumLabels);
  Out.orWords(base() + size_t(Id) * Words, Words);
  return Out;
}

size_t LabelRowPool::bytes() const {
  return (Store.empty() ? size_t(NumRows) * Words : Store.size()) *
             sizeof(uint64_t) +
         Slots.capacity() * sizeof(uint32_t);
}

//===----------------------------------------------------------------------===//
// LabelSetKernel
//===----------------------------------------------------------------------===//

LabelSetKernel::LabelSetKernel(const FrozenGraph &F)
    : F(F), RunStatus(Status::failedPrecondition("run() not called")) {}

LabelSetKernel::LabelSetKernel(const FrozenGraph &F,
                               std::span<const uint32_t> RowOf,
                               std::span<const uint64_t> PoolRows)
    : F(F), RunStatus(Status::ok()), Pool(F.numLabels(), PoolRows),
      RowOfData(RowOf.data()) {
  Cond = &F.condensation();
  SccsDone = Cond->numSccs();
}

/// Builds the nodes-by-component CSR, the row-id table and the pool.
Status LabelSetKernel::buildSchedule() {
  // The schedule is the kernel's one big allocation; the injected-alloc
  // site sits on the same unwind the real bad_alloc guard would take.
  if (faultFires(fault::KernelAlloc))
    return Status::outOfMemory("kernel schedule allocation failed");

  const Condensation &C = F.condensation();
  const uint32_t NumNodes = F.numNodes();
  const uint32_t NumSccs = C.numSccs();

  // Nodes grouped by component: counting sort into CSR.
  SccNodeOffsets.assign(NumSccs + 1, 0);
  for (uint32_t N = 0; N != NumNodes; ++N)
    ++SccNodeOffsets[C.sccOf(N) + 1];
  for (uint32_t S = 0; S != NumSccs; ++S)
    SccNodeOffsets[S + 1] += SccNodeOffsets[S];
  SccNodes.resize(NumNodes);
  {
    std::vector<uint32_t> Fill(SccNodeOffsets.begin(),
                               SccNodeOffsets.end() - 1);
    for (uint32_t N = 0; N != NumNodes; ++N)
      SccNodes[Fill[C.sccOf(N)]++] = N;
  }

  Pool = LabelRowPool(F.numLabels());
  RowOfStore.assign(NumSccs, 0);
  RowOfData = RowOfStore.data();
  Cond = &C;
  return Status::ok();
}

/// Finalizes one component's row id.  While the component has no label
/// of its own and at most one distinct non-empty successor row, it is a
/// pass-through and takes that row's id (or the empty row 0).  The first
/// own label or second distinct row switches to building the row in the
/// pool's spare row, which is interned at the end.  Word-OR work is summed into
/// \p WordOrs, never into the global counter: with thousands of tiny
/// components the per-component atomic flushes would rival the closure
/// itself, so the caller flushes once per poll stride.
void LabelSetKernel::closeComponent(uint32_t Scc, uint64_t &WordOrs) {
  const uint32_t *Off = F.outOffsets();
  const uint32_t *Tgt = F.outTargets();
  const uint32_t *Lab = F.labelAtArray();
  const uint32_t *SccOf = Cond->map().data();
  uint32_t *RowOf = RowOfStore.data();
  uint64_t *R = Pool.spare(); // both stable until the intern below
  const uint64_t *Rows = Pool.rows().data();
  const uint32_t W = Pool.wordsPerRow();
  uint32_t One = 0; // the one non-empty successor row seen so far
  bool Mixed = false;
  auto startRow = [&] {
    if (One != 0)
      std::memcpy(R, Rows + size_t(One) * W, size_t(W) * 8);
    else
      std::fill_n(R, W, 0);
    Mixed = true;
  };
  for (uint32_t I = SccNodeOffsets[Scc], E = SccNodeOffsets[Scc + 1]; I != E;
       ++I) {
    uint32_t N = SccNodes[I];
    if (uint32_t L = Lab[N]; L != FrozenGraph::None) {
      if (!Mixed)
        startRow();
      R[L / 64] |= uint64_t(1) << (L % 64);
    }
    for (uint32_t J = Off[N], JE = Off[N + 1]; J != JE; ++J) {
      uint32_t S = SccOf[Tgt[J]];
      if (S == Scc)
        continue;
      uint32_t Id = RowOf[S];
      if (Id == 0 || Id == One)
        continue;
      if (!Mixed) {
        if (One == 0) {
          One = Id;
          continue;
        }
        startRow();
      }
      // The hot loop of the whole kernel: one dispatched row-OR (AVX-512
      // / AVX2 / scalar — see support/SimdOps.h) per distinct-row edge.
      simd::orWords(R, Rows + size_t(Id) * W, W);
      WordOrs += W;
    }
  }
  if (!Mixed) {
    RowOf[Scc] = One;
    ++PassThroughs;
    return;
  }
  RowOf[Scc] = Pool.intern(R);
}

Status LabelSetKernel::run(const Controls &C) {
  if (complete())
    return RunStatus;
  Span RunSpan("kernel.run");
  Timer T;
  static Counter &Runs = counter("kernel.runs");
  static Counter &Aborts = counter("kernel.aborts");
  static Counter &WordOrsC = counter("kernel.word_ors");
  static Counter &RowsC = counter("kernel.rows_finalized");
  static Gauge &SimdPath = gauge("kernel.simd_path");
  static Gauge &DistinctRows = gauge("kernel.distinct_rows");
  static Gauge &PoolBytes = gauge("kernel.pool_bytes");
  static Histogram &Millis =
      histogram("kernel.millis", latencyBucketsMillis());
  Runs.inc();
  SimdPath.set(static_cast<int64_t>(simd::activePath()));
  auto finish = [&](Status S) {
    if (!S.isOk())
      Aborts.inc();
    Millis.observe(static_cast<uint64_t>(T.millis()));
    RunSpan.arg("sccs", Cond ? Cond->numSccs() : 0);
    RunSpan.arg("sccs_done", SccsDone);
    RunSpan.arg("rows", Pool.size());
    RunSpan.arg("passthrough", PassThroughs);
    RunSpan.arg("status", statusCodeName(S.code()));
    DistinctRows.set(Pool.size());
    PoolBytes.set(static_cast<int64_t>(Pool.bytes()));
    RunStatus = std::move(S);
    return RunStatus;
  };
  if (!Cond)
    if (Status S = buildSchedule(); !S.isOk())
      return finish(std::move(S));

  // One governor checkpoint per `PollStride` components; the word loops
  // stay check-free.  `SccsDone` only advances past a finished stride,
  // so an abort here leaves exactly the components below it final — that
  // is the whole partial-result contract, and the resume point.
  const uint32_t NumSccs = Cond->numSccs();
  while (SccsDone != NumSccs) {
    auto At = [&] {
      return " at component " + std::to_string(SccsDone) + " of " +
             std::to_string(NumSccs);
    };
    if (C.Token.cancelled() || faultFires(fault::KernelCancel))
      return finish(Status::cancelled("label-set kernel cancelled" + At()));
    if (C.D.expired())
      return finish(Status::deadlineExceeded(
          "label-set kernel exceeded its deadline" + At()));

    const uint32_t End = std::min(NumSccs, SccsDone + PollStride);
    uint64_t WordOrs = 0;
    for (uint32_t S = SccsDone; S != End; ++S)
      closeComponent(S, WordOrs);
    WordOrsC.add(WordOrs);
    RowsC.add(End - SccsDone);
    SccsDone = End;
  }

  // The corruption canary: a silently wrong row, so the differential
  // fuzz suite can prove it would catch a kernel bug.  Applied only on a
  // *successful* run — an aborted kernel falls back to BFS and a corrupt
  // row would never be read.  The flipped row is interned like any other,
  // so the pool stays a set of distinct rows.
  if (faultFires(fault::KernelRowCorrupt) && Pool.wordsPerRow() != 0) {
    for (uint32_t I = 0, E = F.numExprs(); I != E; ++I) {
      uint32_t N = F.nodeOfExpr(ExprId(I));
      if (N == FrozenGraph::None)
        continue;
      uint32_t S = Cond->sccOf(N);
      std::span<const uint64_t> Row = Pool.row(RowOfStore[S]);
      std::vector<uint64_t> Bad(Row.begin(), Row.end());
      Bad[0] ^= 1;
      RowOfStore[S] = Pool.intern(Bad.data());
      break;
    }
  }

  return finish(Status::ok());
}

InternedLabelSets LabelSetKernel::allLabelSets() const {
  InternedLabelSets Out(Pool, F.numExprs());
  for (uint32_t I = 0, E = F.numExprs(); I != E; ++I)
    Out.RowOf[I] = rowOfExpr(ExprId(I));
  return Out;
}
