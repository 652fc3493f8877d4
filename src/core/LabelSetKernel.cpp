//===-- core/LabelSetKernel.cpp - Word-parallel label-set closure ---------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/LabelSetKernel.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/SimdOps.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>
#include <string>

using namespace stcfa;

LabelSetKernel::LabelSetKernel(const FrozenGraph &F)
    : F(F), RunStatus(Status::failedPrecondition("run() not called")) {}

LabelSetKernel::LabelSetKernel(const FrozenGraph &F,
                               std::span<const uint64_t> Rows,
                               uint32_t WordsPerSet)
    : F(F), RunStatus(Status::ok()) {
  Cond = &F.condensation();
  this->WordsPerSet = WordsPerSet;
  RowWords = WordsPerSet; // snapshot rows are tight, no cache-line pad
  // The adopted matrix is never written: a born-complete kernel makes
  // `run()` short-circuit before any `rowMut`, so a read-only (mmap)
  // backing is safe behind this cast.
  Matrix = const_cast<uint64_t *>(Rows.data());
  SccsDone = Cond->numSccs();
}

/// Builds the nodes-by-component CSR and the row matrix.
Status LabelSetKernel::buildSchedule() {
  // The schedule + matrix allocation is the kernel's one big allocation;
  // the injected-alloc site sits on the same unwind the real bad_alloc
  // guard would take.
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

  // The matrix: rows padded to whole cache lines (multiples of 8 words)
  // and the base 64-byte aligned into an over-allocated store.
  WordsPerSet = (F.numLabels() + 63) / 64;
  RowWords = (WordsPerSet + 7) & ~7u;
  size_t Need = size_t(NumSccs) * RowWords;
  MatrixStore.assign(Need + 7, 0);
  Matrix = reinterpret_cast<uint64_t *>(
      (reinterpret_cast<uintptr_t>(MatrixStore.data()) + 63) &
      ~uintptr_t(63));

  Cond = &C;
  return Status::ok();
}

/// Finalizes one component's row: set the bits of labels carried by its
/// own nodes, then OR in every successor component's (already final)
/// row.  Word-OR work is summed into \p WordOrs, never into the global
/// counter: with thousands of tiny components the per-component atomic
/// flushes would rival the closure itself, so the caller flushes once
/// per poll stride.
void LabelSetKernel::closeComponent(uint32_t Scc, uint64_t &WordOrs) {
  uint64_t *R = rowMut(Scc);
  const uint32_t *Off = F.outOffsets();
  const uint32_t *Tgt = F.outTargets();
  const uint32_t *Lab = F.labelAtArray();
  const uint32_t *SccOf = Cond->map().data();
  const uint32_t W = WordsPerSet;
  for (uint32_t I = SccNodeOffsets[Scc], E = SccNodeOffsets[Scc + 1]; I != E;
       ++I) {
    uint32_t N = SccNodes[I];
    if (uint32_t L = Lab[N]; L != FrozenGraph::None)
      R[L / 64] |= uint64_t(1) << (L % 64);
    for (uint32_t J = Off[N], JE = Off[N + 1]; J != JE; ++J) {
      uint32_t S = SccOf[Tgt[J]];
      if (S == Scc)
        continue;
      // The hot loop of the whole kernel: one dispatched row-OR (AVX-512
      // / AVX2 / scalar — see support/SimdOps.h) per cross-edge.
      simd::orWords(R, row(S), W);
      WordOrs += W;
    }
  }
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
    RunSpan.arg("status", statusCodeName(S.code()));
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
  // row would never be read.
  if (faultFires(fault::KernelRowCorrupt) && WordsPerSet != 0) {
    for (uint32_t I = 0, E = F.numExprs(); I != E; ++I) {
      uint32_t N = F.nodeOfExpr(ExprId(I));
      if (N == FrozenGraph::None)
        continue;
      rowMut(Cond->sccOf(N))[0] ^= 1;
      break;
    }
  }

  return finish(Status::ok());
}

DenseBitset LabelSetKernel::labelsOfNode(uint32_t N) const {
  DenseBitset Out(F.numLabels());
  if (nodeComplete(N))
    Out.orWords(row(Cond->sccOf(N)), WordsPerSet);
  return Out;
}

DenseBitset LabelSetKernel::labelsOf(ExprId E) const {
  uint32_t N = F.nodeOfExpr(E);
  if (N == FrozenGraph::None)
    return DenseBitset(F.numLabels());
  return labelsOfNode(N);
}
