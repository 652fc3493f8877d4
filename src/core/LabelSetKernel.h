//===-- core/LabelSetKernel.h - Interned label-set closure ------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The label-set engine: computes *every* label set of a `FrozenGraph` in
/// one pass instead of one BFS per query, and stores each distinct set
/// once.
///
/// The paper's "compute all label sets" bound is O(n²), and that bound is
/// a transitive-closure-by-bitset computation (Van Horn & Mairson show
/// the closure is inherent to exhaustive 0-CFA), so the win available
/// here is constant-factor: word-parallelism, a tight sequential sweep,
/// and not repeating a row.  The kernel propagates 64-bit label words in
/// reverse topological order over the cached Tarjan condensation of the
/// snapshot:
///
///   * **Compacted label universe** — bit positions index only the
///     program's L abstraction labels, never graph nodes, so the closure
///     costs O(n·L/64) word-ORs rather than n²/64 (L ≪ n on real
///     programs: most nodes carry no label).
///   * **Interned rows** — the paper's §10 proposal, "taking advantage
///     of the many nodes that have only one outgoing edge".  A
///     *pass-through* component (no label of its own, one distinct
///     non-empty successor row) takes that row's id: no copy, no OR.
///     Any other component ORs its successors' rows into a scratch row
///     that is interned into a `LabelRowPool` (hash, then compare).  With
///     78–94% pass-throughs and about L distinct rows, the state is
///     `RowOf[component]` plus O(L²/64) pool words.
///   * **SIMD row-OR** — the inner `dst |= src` word loop runs on the
///     runtime-dispatched path in `support/SimdOps.h` (AVX-512 / AVX2 /
///     scalar, `STCFA_FORCE_SCALAR=1` pins scalar); the chosen path is
///     recorded in the `kernel.simd_path` gauge (0=scalar 1=avx2
///     2=avx512).
///   * **One ascending sweep** — condensation ids are reverse
///     topological (everything a component reaches has a smaller id), so
///     closing components in id order finds every successor row final
///     before it is read.
///   * **Governed, resumable closure** — the deadline / cancellation
///     token / fault sites are polled once every `PollStride` components
///     (the hot word loops stay check-free), and an aborted run reports
///     `Status` plus a *well-defined* partial result: a prefix of the
///     sweep.  Component `S` holds its final label set iff
///     `S < componentsCompleted()`, and `sccComplete()`/`exprComplete()`
///     say exactly which answers are servable.  A later `run()` resumes
///     at the first unfinished component with the same intern table —
///     completed rows are never recomputed or pooled twice.
///
/// The kernel is the batched-query backend: `QueryEngine` dispatches
/// `labelsOf`/`occurrencesOf` batches here above a batch-size threshold,
/// and `all-labels` reads its pool directly (`allLabelSets`).  Point
/// queries never build it; once a batch has completed it, they read
/// their answers from it (one row, or one bit probe).
///
/// Thread safety: `run()` must not be called concurrently with itself or
/// with the accessors; after `run()` returns, all `const` accessors are
/// safe from any number of reader threads (a complete kernel never
/// interns again).
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

/// The distinct label-set rows of one program, each stored once: rows of
/// `⌈L/64⌉` words packed in interning order, plus an open-addressing
/// table from row content to dense, stable id.  Row 0 is the empty set.
class LabelRowPool {
public:
  /// A pool over \p NumLabels labels holding only the empty row 0.
  explicit LabelRowPool(uint32_t NumLabels = 0);

  /// Adopts persisted \p Rows — `⌈L/64⌉` words each, row 0 empty,
  /// pairwise distinct — read-only and zero-copy; \p Rows must outlive
  /// the pool.  An adopted pool never interns.
  LabelRowPool(uint32_t NumLabels, std::span<const uint64_t> Rows);

  /// The id of the row equal to \p Row (`wordsPerRow()` words), appending
  /// it first when it is new.  \p Row may be `spare()`.
  uint32_t intern(const uint64_t *Row);
  uint32_t intern(const DenseBitset &Set) { return intern(Set.words().data()); }

  uint32_t size() const { return NumRows; }
  uint32_t wordsPerRow() const { return Words; }

  std::span<const uint64_t> row(uint32_t Id) const {
    return {base() + size_t(Id) * Words, Words};
  }
  /// Row \p Id as a set over the pool's label universe.
  DenseBitset set(uint32_t Id) const;

  /// Room for one row past the pool, to build a candidate in place:
  /// interning it appends without a copy.  Moves on every append.
  uint64_t *spare() { return Store.data() + size_t(NumRows) * Words; }

  /// Every row in id order: what the snapshot persists.
  std::span<const uint64_t> rows() const {
    return {base(), size_t(NumRows) * Words};
  }
  /// Bytes held: the rows plus the intern table.
  size_t bytes() const;

private:
  void rehash(size_t NumSlots);
  const uint64_t *base() const { return Adopted ? Adopted : Store.data(); }

  uint32_t NumLabels = 0, Words = 0, NumRows = 0;
  std::vector<uint64_t> Store;   ///< owned rows + spare; empty if adopted
  const uint64_t *Adopted = nullptr; ///< read-only persisted rows
  std::vector<uint32_t> Slots;   ///< id + 1 per slot, 0 = free; 2^k long
};

/// Every occurrence's label set as an id into a pool of distinct rows:
/// what every `all-labels` producer yields.  The complete kernel lends
/// its pool; BFS and the graph-free analyses intern into an owned one.
/// An occurrence a governed batch left unanswered reads row 0 (empty).
class InternedLabelSets {
public:
  /// Over \p NumLabels labels with an owned pool; every occurrence empty.
  InternedLabelSets(uint32_t NumLabels = 0, uint32_t NumExprs = 0)
      : RowOf(NumExprs, 0), Own(NumLabels) {}
  /// Over \p Pool, borrowed: it must outlive this object and stay
  /// unchanged (a complete kernel's pool).
  InternedLabelSets(const LabelRowPool &Pool, uint32_t NumExprs)
      : RowOf(NumExprs, 0), Borrowed(&Pool) {}

  const LabelRowPool &pool() const { return Borrowed ? *Borrowed : Own; }
  /// Interns \p Set as occurrence \p I's answer (owned pool only).
  void set(uint32_t I, const DenseBitset &Set) { RowOf[I] = Own.intern(Set); }

  /// Row id per occurrence.
  std::vector<uint32_t> RowOf;
  /// A governed batch's per-occurrence completion flags; empty when
  /// every occurrence was answered.
  std::vector<char> Done;

private:
  const LabelRowPool *Borrowed = nullptr;
  LabelRowPool Own;
};

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

  /// Adopts a complete, persisted interning (a snapshot's kernel
  /// sections): \p RowOf gives each condensation component's id among
  /// \p PoolRows, which `LabelRowPool`'s adopting constructor describes.
  /// The kernel is born complete — `run()` returns `Ok` immediately and
  /// never interns — so both spans may live in a read-only mapping; they
  /// must outlive this kernel.
  LabelSetKernel(const FrozenGraph &F, std::span<const uint32_t> RowOf,
                 std::span<const uint64_t> PoolRows);

  /// Runs (or resumes) the closure under \p C.  Returns `Ok` on a
  /// complete closure; `DeadlineExceeded`/`Cancelled`/`OutOfMemory` on a
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
  DenseBitset labelsOf(ExprId E) const { return Pool.set(rowOfExpr(E)); }

  /// True iff label \p L is in node \p N's (complete) label set.
  bool hasLabel(uint32_t N, uint32_t Label) const {
    return (Pool.row(rowOf(Cond->sccOf(N)))[Label / 64] >> (Label % 64)) & 1;
  }

  //===--- the interned rows -----------------------------------------------//

  /// The distinct rows.
  const LabelRowPool &pool() const { return Pool; }

  /// Pool id of component \p Scc's row.  Final once `sccComplete(Scc)`.
  uint32_t rowOf(uint32_t Scc) const { return RowOfData[Scc]; }

  /// Pool id of node \p N's set: row 0 (empty) while it is not complete.
  uint32_t rowOfNode(uint32_t N) const {
    return nodeComplete(N) ? rowOf(Cond->sccOf(N)) : 0;
  }

  /// Pool id of occurrence \p E's set: row 0 (empty) when it has no node
  /// or is not complete yet.
  uint32_t rowOfExpr(ExprId E) const {
    uint32_t N = F.nodeOfExpr(E);
    return N != FrozenGraph::None ? rowOfNode(N) : 0;
  }

  /// Every component's row id in component order: what the snapshot
  /// persists beside `pool().rows()`.
  std::span<const uint32_t> rowIds() const {
    return {RowOfData, Cond ? Cond->numSccs() : 0};
  }

  /// Every occurrence's set, borrowing this kernel's pool.  Requires
  /// `complete()`.
  InternedLabelSets allLabelSets() const;

  /// Components the sweep closed without an OR: pass-throughs, and
  /// label-free components whose successors are all empty (row 0).
  uint32_t passThroughs() const { return PassThroughs; }

private:
  Status buildSchedule();
  void closeComponent(uint32_t Scc, uint64_t &WordOrs);

  const FrozenGraph &F;

  Status RunStatus;

  // Schedule: the condensation (cached on the snapshot), nodes grouped
  // by component (CSR), and the finished prefix of the sweep.  `Cond` is
  // null until the schedule is built.
  const Condensation *Cond = nullptr;
  std::vector<uint32_t> SccNodeOffsets, SccNodes;
  uint32_t SccsDone = 0;

  // The interning: one row id per component (`RowOfStore`, or an adopted
  // read-only span) into the pool of distinct rows.
  LabelRowPool Pool;
  std::vector<uint32_t> RowOfStore;
  const uint32_t *RowOfData = nullptr;
  uint32_t PassThroughs = 0;
};

} // namespace stcfa

#endif // STCFA_CORE_LABELSETKERNEL_H
