//===-- core/LabelSetKernel.h - Word-parallel label-set closure -*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The dense-bitset label-set engine: computes *every* label set of a
/// `FrozenGraph` in one pass instead of one BFS per query.
///
/// The paper's "compute all label sets" bound is O(n²), and that bound is
/// a transitive-closure-by-bitset computation (Van Horn & Mairson show
/// the closure is inherent to exhaustive 0-CFA), so the win available
/// here is constant-factor: word-parallelism and a tight sequential
/// sweep.  The kernel propagates 64-bit label words in reverse
/// topological order over the cached Tarjan condensation of the
/// snapshot:
///
///   * **Compacted label universe** — bit positions index only the
///     program's L abstraction labels, never graph nodes, so the closure
///     costs O(n·L/64) word-ORs rather than n²/64 (L ≪ n on real
///     programs: most nodes carry no label).
///   * **SIMD row-OR** — the inner `dst |= src` word loop runs on the
///     runtime-dispatched path in `support/SimdOps.h` (AVX-512 / AVX2 /
///     scalar, `STCFA_FORCE_SCALAR=1` pins scalar); the chosen path is
///     recorded in the `kernel.simd_path` gauge (0=scalar 1=avx2
///     2=avx512).
///   * **One ascending sweep** — condensation ids are reverse
///     topological (everything a component reaches has a smaller id), so
///     closing components in id order finds every successor row final
///     before it is read.  Rows sit in component-id order, padded to
///     64-byte cache lines in a 64-byte-aligned matrix, so each row-OR
///     starts on a line boundary.
///   * **Governed, resumable closure** — the deadline / cancellation
///     token / fault sites are polled once every `PollStride` components
///     (the hot word loops stay check-free), and an aborted run reports
///     `Status` plus a *well-defined* partial result: a prefix of the
///     sweep.  Component `S` holds its final label set iff
///     `S < componentsCompleted()`, and `sccComplete()`/`exprComplete()`
///     say exactly which answers are servable.  A later `run()` resumes
///     at the first unfinished component — completed rows are never
///     recomputed.
///
/// The kernel is the batched-query backend: `QueryEngine` dispatches
/// `labelsOf`/`occurrencesOf` batches here above a batch-size threshold,
/// amortising one closure across the batch instead of B independent BFS
/// walks.  Point queries never pay for it.
///
/// Thread safety: `run()` must not be called concurrently with itself or
/// with the accessors; after `run()` returns, all `const` accessors are
/// safe from any number of reader threads (the matrix is immutable until
/// a resuming `run()`, which only writes rows of still-incomplete
/// components).
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_LABELSETKERNEL_H
#define STCFA_CORE_LABELSETKERNEL_H

#include "core/FrozenGraph.h"
#include "support/Deadline.h"
#include "support/DenseBitset.h"
#include "support/Status.h"

#include <span>
#include <vector>

namespace stcfa {

/// One-shot (but resumable) all-label-sets closure over a frozen graph.
class LabelSetKernel {
public:
  /// Resource controls for a governed run; the defaults never fire.
  struct Controls {
    Deadline D;
    CancellationToken Token;
  };

  /// Components closed between two governor polls.
  static constexpr uint32_t PollStride = 256;

  explicit LabelSetKernel(const FrozenGraph &F);

  /// Same as `LabelSetKernel(F)`; the lane count is ignored.  Kept only
  /// for the benchmark's `perfbench/CliExport.cpp` probe, its one caller.
  LabelSetKernel(const FrozenGraph &F, unsigned) : LabelSetKernel(F) {}

  /// Adopts a complete, precomputed row matrix (a persisted snapshot's
  /// kernel-rows section): one row per condensation component,
  /// \p WordsPerSet words each, tightly packed in component-id order.
  /// The kernel is born complete — `run()` returns `Ok` immediately and
  /// never writes a row — so \p Rows may live in a read-only mapping; it
  /// must outlive this kernel.
  LabelSetKernel(const FrozenGraph &F, std::span<const uint64_t> Rows,
                 uint32_t WordsPerSet);

  /// Runs (or resumes) the closure under \p C.  Returns `Ok` on a
  /// complete matrix; `DeadlineExceeded`/`Cancelled`/`OutOfMemory` on a
  /// governed abort, leaving every component below
  /// `componentsCompleted()` final.  Calling again resumes at the first
  /// unfinished component; a completed kernel returns `Ok` immediately.
  Status run(const Controls &C = {});

  /// True once `run()` finished every component.
  bool complete() const { return RunStatus.isOk(); }

  /// Outcome of the most recent `run()` (`FailedPrecondition` before the
  /// first call).
  const Status &status() const { return RunStatus; }

  //===--- partial-result contract -----------------------------------------//

  /// Length of the finished prefix of the sweep: components
  /// `0 .. componentsCompleted()` hold their final label sets.
  uint32_t componentsCompleted() const { return SccsDone; }

  /// True iff component \p Scc holds its final label set.
  bool sccComplete(uint32_t Scc) const { return Scc < SccsDone; }

  /// True iff node \p N's label set is servable.
  bool nodeComplete(uint32_t N) const {
    return SccsDone != 0 && Cond->sccOf(N) < SccsDone;
  }

  /// True iff `labelsOf(E)` is servable.  An occurrence with no graph
  /// node has the well-defined empty answer, so it is always complete.
  bool exprComplete(ExprId E) const {
    uint32_t N = F.nodeOfExpr(E);
    return N == FrozenGraph::None || nodeComplete(N);
  }

  //===--- answers ---------------------------------------------------------//

  /// The label set of occurrence \p E.  Only meaningful when
  /// `exprComplete(E)`; an incomplete query returns the empty set.
  DenseBitset labelsOf(ExprId E) const;

  /// The label set reachable from node \p N (same completeness caveat).
  DenseBitset labelsOfNode(uint32_t N) const;

  /// True iff label \p L is in node \p N's (complete) label set.
  bool hasLabel(uint32_t N, uint32_t Label) const {
    const uint64_t *R = row(Cond->sccOf(N));
    return (R[Label / 64] >> (Label % 64)) & 1;
  }

  /// Words per label-set row before cache-line padding: `⌈L/64⌉`.
  uint32_t wordsPerSet() const { return WordsPerSet; }

  /// The row of component \p Scc — `wordsPerSet()` words, padding
  /// excluded — for the snapshot writer.  Final once `sccComplete(Scc)`.
  std::span<const uint64_t> rowSpan(uint32_t Scc) const {
    return {row(Scc), WordsPerSet};
  }

private:
  Status buildSchedule();
  const uint64_t *row(uint32_t Scc) const {
    return Matrix + size_t(Scc) * RowWords;
  }
  uint64_t *rowMut(uint32_t Scc) { return Matrix + size_t(Scc) * RowWords; }
  void closeComponent(uint32_t Scc, uint64_t &WordOrs);

  const FrozenGraph &F;

  Status RunStatus;

  // Schedule: the condensation (cached on the snapshot), nodes grouped
  // by component (CSR), and the finished prefix of the sweep.  `Cond` is
  // null until the schedule is built.
  const Condensation *Cond = nullptr;
  std::vector<uint32_t> SccNodeOffsets, SccNodes;
  uint32_t SccsDone = 0;

  // The label-set matrix: one row per component, `RowWords` 64-bit words
  // each.  `RowWords` is `WordsPerSet` rounded up to a full cache line
  // (multiple of 8 words) and `Matrix` is 64-byte aligned into
  // `MatrixStore`, so every row starts on its own cache line.
  uint32_t WordsPerSet = 0;
  uint32_t RowWords = 0;
  std::vector<uint64_t> MatrixStore;
  uint64_t *Matrix = nullptr;
};

} // namespace stcfa

#endif // STCFA_CORE_LABELSETKERNEL_H
