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
/// Concurrency model: the CSR snapshot is read-only, and every walk runs
/// on the calling thread's own `thread_local` scratch.  Point queries are
/// `const` and safe from any number of threads at once; the lazily built
/// state they read (the complete kernel, the occurrence index) is
/// published once.  Batches may run the kernel, so callers serialize
/// batches against each other, never against point queries.
///
//===----------------------------------------------------------------------===//

#ifndef STCFA_CORE_QUERYENGINE_H
#define STCFA_CORE_QUERYENGINE_H

#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "support/Deadline.h"
#include "support/DenseBitset.h"
#include "support/Metrics.h"
#include "support/Status.h"
#include "support/ThreadPool.h"

#include <atomic>
#include <initializer_list>
#include <memory>
#include <mutex>
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
  // batch and cached; it never uses this engine's thread pool (the lanes
  // serve BFS batches and row lookups).  An aborted kernel run (injected
  // fault, deadline) falls back to the BFS path transparently.

  /// Default batch size above which batches use the kernel.
  static constexpr size_t DefaultKernelThreshold = 16;

  /// Current dispatch threshold; 0 disables the kernel entirely.  Set
  /// before sharing the engine.
  size_t kernelThreshold() const { return KernelThreshold; }
  void setKernelThreshold(size_t T) { KernelThreshold = T; }

  /// The cached kernel, complete or not, or null if no eligible batch has
  /// run yet.  Batch-side state: read it where batches serialize.
  const LabelSetKernel *kernel() const { return Kern.get(); }

  /// The kernel once complete (built by a batch or adopted) and enabled,
  /// else null.  Never builds; safe from any thread.
  const LabelSetKernel *publishedKernel() const {
    return KernelThreshold != 0 ? Published.load(std::memory_order_acquire)
                                : nullptr;
  }

  /// Installs an externally built kernel — a snapshot's persisted
  /// interning — as the batched-query backend.  \p K must be `complete()`
  /// and built over this engine's frozen graph; eligible batches then
  /// dispatch to it without ever running the closure, and point queries
  /// read it from the first one.
  void adoptKernel(std::unique_ptr<LabelSetKernel> K);

  //===--- point queries (calling thread, any number at once) -------------//
  //
  // Over a published kernel `labelsOf`/`labelsOfVar` read one pooled row
  // and `isLabelIn` one bit; otherwise, and for `occurrencesOf`, a walk.

  /// Algorithm 1: is the abstraction labelled \p L a possible value of
  /// occurrence \p E?
  bool isLabelIn(ExprId E, LabelId L) const;

  /// Algorithm 2: all abstraction labels reachable from \p E.
  DenseBitset labelsOf(ExprId E) const;

  /// All labels reachable from the binder \p V.
  DenseBitset labelsOfVar(VarId V) const;

  /// All expression occurrences whose label set contains \p L.
  std::vector<ExprId> occurrencesOf(LabelId L) const;

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

  /// Nodes touched by this engine's walks so far, over every thread.
  uint64_t nodesVisited() const { return Visited.value(); }

private:
  /// One thread's DFS state, defined in the .cpp.
  struct Scratch;
  /// The calling thread's scratch, with room for \p NumNodes stamps.
  static Scratch &threadScratch(uint32_t NumNodes);

  /// True when a batch of \p BatchSize should dispatch to the kernel.
  bool kernelEligible(size_t BatchSize) const {
    return KernelThreshold != 0 && BatchSize >= KernelThreshold &&
           F.numNodes() != 0;
  }
  /// Runs the kernel (built on first use) for an eligible batch under
  /// the given controls (defaults never fire) and publishes it once
  /// complete.  Counts the dispatch; on a governed kernel abort, counts
  /// the fallback, records the cause, and returns false so the caller
  /// takes the per-query BFS path.
  bool dispatchKernel(size_t BatchSize, const Deadline &D = Deadline(),
                      const CancellationToken &Token = CancellationToken());
  void occurrencesFromKernel(const LabelSetKernel &K, LabelId L,
                             std::vector<ExprId> &Out) const;
  /// Shards \p N items across the lanes, invoking `Item(I)` per item
  /// with a governor poll before each one.
  template <typename ItemFn>
  void runGoverned(size_t N, const BatchControl &C, BatchOutcome &Out,
                   ItemFn Item);
  template <typename VisitFn>
  const Scratch &walk(const uint32_t *Off, const uint32_t *Tgt,
                      std::initializer_list<uint32_t> Roots,
                      VisitFn Visit) const;
  DenseBitset labelsFromNode(uint32_t Start) const;
  /// The published kernel for one point query, or null to walk; counts
  /// which one answers.
  const LabelSetKernel *pointKernel() const;
  /// Node \p Start's label set (empty for `None`) for the point queries.
  DenseBitset pointLabels(uint32_t Start) const;
  bool labelReachableFrom(uint32_t Start, uint32_t Label) const;
  /// Counts \p N more reverse queries; true once the occurrence index is
  /// built (building it here when this call crosses the threshold).
  bool noteReverseQueries(size_t N) const;
  void markOccurrences(LabelId L, bool Indexed,
                       std::vector<ExprId> &Out) const;

  const FrozenGraph &F;
  unsigned NumThreads;
  std::unique_ptr<ThreadPool> Pool; // null when NumThreads == 1
  size_t KernelThreshold = DefaultKernelThreshold;
  std::unique_ptr<LabelSetKernel> Kern; // built on first eligible batch
  /// `Kern` once complete: what point queries read.
  std::atomic<const LabelSetKernel *> Published{nullptr};
  mutable Counter Visited; // sharded like every metrics counter
  // Occurrences by node (CSR, ascending within a node), built once the
  // engine has answered enough reverse queries to amortise it, then
  // read-only.  `IndexReady` publishes it.
  mutable std::atomic<uint64_t> ReverseQueries{0};
  mutable std::once_flag IndexOnce;
  mutable std::atomic<bool> IndexReady{false};
  mutable std::vector<uint32_t> ExprsAtOffsets;
  mutable std::vector<ExprId> ExprsAt;
};

} // namespace stcfa

#endif // STCFA_CORE_QUERYENGINE_H
