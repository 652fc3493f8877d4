//===-- core/QueryEngine.h - Parallel batched CFA queries -------*- C++ -*-===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-path query engine: answers the Section 2 query problems
/// over a `FrozenGraph` CSR snapshot, bit-for-bit equal to reachability
/// over the mutable graph but without pointer chasing, and with batched
/// entry points sharded across a fixed `ThreadPool`.  "All label sets"
/// is `labelsOfBatch` over every occurrence, which the label-set kernel
/// answers above the dispatch threshold.
///
/// Concurrency model: the CSR snapshot is read-only, so workers need no
/// locks — each worker lane owns a private epoch-stamped visit vector
/// and DFS stack (`Scratch`), and batched results land in disjoint,
/// pre-sized output slots.  Point queries run inline on the calling
/// thread using lane 0's scratch.  The engine itself is therefore *not*
/// re-entrant from multiple external threads; share the `FrozenGraph`,
/// not the engine.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_QUERYENGINE_H
#define STCFA_CORE_QUERYENGINE_H

#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "support/Deadline.h"
#include "support/DenseBitset.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <initializer_list>
#include <memory>
#include <utility>
#include <vector>

namespace stcfa {

/// Resource controls for a governed batched query: a wall-clock deadline
/// and a cooperative cancellation token.  Default-constructed controls
/// never fire (infinite deadline, unarmed token).
struct BatchControl {
  Deadline D;
  CancellationToken Token;
};

/// Outcome of a governed batch.  On `DeadlineExceeded`/`Cancelled` the
/// result vector is *partial*: `Done[I]` says whether slot `I` holds a
/// real answer (unanswered slots are default-constructed — empty set,
/// false, or empty list).
struct BatchOutcome {
  Status S;
  /// Items answered before the governor stopped the batch.
  uint64_t Completed = 0;
  /// Per-item completion flags, `Done.size() == batch size`.
  std::vector<char> Done;
};

/// Parallel batched reachability queries over a frozen graph.
class QueryEngine {
public:
  /// \p Threads is the worker-lane count (1 = fully sequential, no
  /// threads spawned).
  explicit QueryEngine(const FrozenGraph &F, unsigned Threads = 1);
  ~QueryEngine();

  const FrozenGraph &frozen() const { return F; }
  unsigned threads() const { return NumThreads; }

  //===--- kernel dispatch -------------------------------------------------//
  //
  // Batches of at least `kernelThreshold()` items dispatch to the
  // word-parallel `LabelSetKernel`: one sequential sweep over the
  // condensation DAG is amortised across the whole batch instead of B
  // independent BFS walks.  The kernel is built lazily on first eligible
  // batch and cached; point queries never touch it, and it never uses
  // this engine's thread pool (the lanes serve BFS batches and row
  // lookups).  An aborted kernel run (injected fault, deadline) falls
  // back to the BFS path transparently.

  /// Default batch size above which batches use the kernel.
  static constexpr size_t DefaultKernelThreshold = 16;

  /// Current dispatch threshold; 0 disables the kernel entirely.
  size_t kernelThreshold() const { return KernelThreshold; }
  void setKernelThreshold(size_t T) { KernelThreshold = T; }

  /// The cached kernel, or null if no eligible batch has run yet.
  const LabelSetKernel *kernel() const { return Kern.get(); }

  /// The complete kernel when a batch of \p BatchSize items would
  /// dispatch to it (running the closure first if needed), else null.  A
  /// complete kernel is read-only, so its rows may be read without the
  /// lock that serializes this engine's scratch.
  const LabelSetKernel *completeKernel(size_t BatchSize) {
    return dispatchKernel(BatchSize) ? Kern.get() : nullptr;
  }

  /// Installs an externally built kernel — a snapshot's persisted
  /// interning — as the batched-query backend.  \p K must be `complete()`
  /// and built over this engine's frozen graph; eligible batches then
  /// dispatch to it without ever running the closure.
  void adoptKernel(std::unique_ptr<LabelSetKernel> K);

  //===--- point queries (calling thread, lane 0) -------------------------//

  /// Algorithm 1: is the abstraction labelled \p L a possible value of
  /// occurrence \p E?
  bool isLabelIn(ExprId E, LabelId L);

  /// Algorithm 2: all abstraction labels reachable from \p E.
  DenseBitset labelsOf(ExprId E);

  /// All labels reachable from the binder \p V.
  DenseBitset labelsOfVar(VarId V);

  /// All expression occurrences whose label set contains \p L.
  std::vector<ExprId> occurrencesOf(LabelId L);

  //===--- batched queries (sharded across the pool) ----------------------//
  //
  // Each runs its governed overload below under controls that never fire.

  /// `labelsOf` for every query in \p Es, in order.
  std::vector<DenseBitset> labelsOfBatch(const std::vector<ExprId> &Es) {
    BatchOutcome Out;
    return labelsOfBatch(Es, {}, Out);
  }

  /// `isLabelIn` for every (occurrence, label) pair, in order.
  std::vector<char>
  isLabelInBatch(const std::vector<std::pair<ExprId, LabelId>> &Qs) {
    BatchOutcome Out;
    return isLabelInBatch(Qs, {}, Out);
  }

  /// `occurrencesOf` for every label in \p Ls, in order.
  std::vector<std::vector<ExprId>>
  occurrencesOfBatch(const std::vector<LabelId> &Ls) {
    BatchOutcome Out;
    return occurrencesOfBatch(Ls, {}, Out);
  }

  //===--- governed batched queries ----------------------------------------//
  //
  // Same sharding as above, but every lane polls the deadline and
  // cancellation token *between* items — individual DFS traversals stay
  // check-free, so overrun is bounded by one query per lane.  A stopped
  // batch returns partial results with \p Out explaining why.

  /// Governed `labelsOfBatch`: unanswered slots are empty sets.
  std::vector<DenseBitset> labelsOfBatch(const std::vector<ExprId> &Es,
                                         const BatchControl &C,
                                         BatchOutcome &Out);

  /// Governed `isLabelInBatch`: unanswered slots are 0.
  std::vector<char>
  isLabelInBatch(const std::vector<std::pair<ExprId, LabelId>> &Qs,
                 const BatchControl &C, BatchOutcome &Out);

  /// "All label sets": every occurrence's set, interned.  Above the
  /// kernel threshold this is the complete kernel's own pool and one row
  /// id per occurrence — no set is built; otherwise each occurrence's BFS
  /// set is interned into a fresh pool.  Unanswered occurrences read row
  /// 0 and have `Done` clear.
  InternedLabelSets allLabelSets(const BatchControl &C, BatchOutcome &Out);

  /// Governed `occurrencesOfBatch`: unanswered slots are empty lists.
  std::vector<std::vector<ExprId>>
  occurrencesOfBatch(const std::vector<LabelId> &Ls, const BatchControl &C,
                     BatchOutcome &Out);

  /// Nodes touched by queries so far, summed over all lanes.
  uint64_t nodesVisited() const;

private:
  /// Per-lane DFS state: epoch-stamped visit marks (O(1) reset between
  /// queries, zeroed on epoch wrap) and an explicit stack.
  ///
  /// Layout invariant: `Lanes` is a contiguous array with one Scratch
  /// per worker lane, and every lane hammers its own `Epoch`/`Visited`
  /// and vector headers on each DFS step.  `alignas(64)` rounds
  /// `sizeof(Scratch)` up to whole cache lines, so `Lanes[K]` and
  /// `Lanes[K + 1]` can never share a 64-byte line — without it, lane
  /// K's `Visited` stores would false-share with lane K+1's `Stamp`
  /// header loads and serialise the supposedly independent lanes.
  struct alignas(64) Scratch {
    std::vector<uint32_t> Stamp;
    uint32_t Epoch = 0;
    std::vector<uint32_t> Stack;
    uint64_t Visited = 0;
  };

  void bumpEpoch(Scratch &S);
  /// True when a batch of \p BatchSize should dispatch to the kernel.
  bool kernelEligible(size_t BatchSize) const {
    return KernelThreshold != 0 && BatchSize >= KernelThreshold &&
           F.numNodes() != 0;
  }
  /// Runs the kernel (built on first use) for an eligible batch under
  /// the given controls (defaults never fire).  Counts the dispatch; on a
  /// governed kernel abort, counts the fallback, records the cause, and
  /// returns false so the caller takes the per-query BFS path.
  bool dispatchKernel(size_t BatchSize, const Deadline &D = Deadline(),
                      const CancellationToken &Token = CancellationToken());
  void occurrencesFromKernel(const LabelSetKernel &K, LabelId L,
                             std::vector<ExprId> &Out);
  /// Shards \p N items across the lanes, invoking `Item(Scratch&, I)`
  /// per item with a governor poll before each one.
  template <typename ItemFn>
  void runGoverned(size_t N, const BatchControl &C, BatchOutcome &Out,
                   ItemFn Item);
  template <typename VisitFn>
  void walk(Scratch &S, const uint32_t *Off, const uint32_t *Tgt,
            std::initializer_list<uint32_t> Roots, VisitFn Visit);
  DenseBitset labelsFromNode(Scratch &S, uint32_t Start);
  bool labelReachableFrom(Scratch &S, uint32_t Start, uint32_t Label);
  void noteReverseQueries(size_t N);
  void markOccurrences(Scratch &S, LabelId L, std::vector<ExprId> &Out);

  const FrozenGraph &F;
  unsigned NumThreads;
  std::unique_ptr<ThreadPool> Pool; // null when NumThreads == 1
  std::vector<Scratch> Lanes;       // one per worker lane
  size_t KernelThreshold = DefaultKernelThreshold;
  std::unique_ptr<LabelSetKernel> Kern; // built on first eligible batch
  // Occurrences by node (CSR, ascending within a node), built once the
  // engine has answered enough reverse queries to amortise it.
  uint64_t ReverseQueries = 0;
  std::vector<uint32_t> ExprsAtOffsets;
  std::vector<ExprId> ExprsAt;
};

} // namespace stcfa

#endif // STCFA_CORE_QUERYENGINE_H
