//===-- core/QueryEngine.cpp - Parallel batched CFA queries ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/QueryEngine.h"

#include "core/LabelSetKernel.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include <algorithm>
#include <atomic>
#include <mutex>

using namespace stcfa;

/// One thread's DFS state, shared by every engine the thread walks:
/// epoch-stamped visit marks and an explicit stack.  The stamp vector
/// only grows, with zeros, and the epoch only rises, so any stamp an
/// earlier walk left — on this engine or another — is below the current
/// epoch and reads as unvisited.  Only a 32-bit epoch wrap resets it.
struct QueryEngine::Scratch {
  std::vector<uint32_t> Stamp;
  uint32_t Epoch = 0;
  std::vector<uint32_t> Stack;
};

QueryEngine::Scratch &QueryEngine::threadScratch(uint32_t NumNodes) {
  thread_local Scratch S;
  if (S.Stamp.size() < NumNodes)
    S.Stamp.resize(NumNodes, 0);
  return S;
}

QueryEngine::QueryEngine(const FrozenGraph &F, unsigned Threads)
    : F(F), NumThreads(Threads ? Threads : 1) {
  if (NumThreads > 1)
    Pool = std::make_unique<ThreadPool>(NumThreads);
}

QueryEngine::~QueryEngine() = default;

void QueryEngine::adoptKernel(std::unique_ptr<LabelSetKernel> K) {
  Kern = std::move(K);
  Published.store(Kern.get(), std::memory_order_release);
}

bool QueryEngine::dispatchKernel(size_t BatchSize, const Deadline &D,
                                 const CancellationToken &Token) {
  if (!kernelEligible(BatchSize))
    return false;
  if (!Kern)
    Kern = std::make_unique<LabelSetKernel>(F);
  Status S = Kern->run({D, Token});
  static Counter &KernelDispatch = counter("query.batch.kernel_dispatch");
  static Counter &Fallbacks = counter("query.batch.kernel_fallback");
  if (S.isOk()) {
    // Complete and read-only from here on: point queries may read it.
    Published.store(Kern.get(), std::memory_order_release);
    KernelDispatch.inc();
    return true;
  }
  // Abort (real deadline/cancel or injected fault) → transparent per-
  // query BFS fallback; the instant event records why.
  Fallbacks.inc();
  traceInstant("query.kernel-fallback", "cause", statusCodeName(S.code()));
  return false;
}

/// Forward/reverse duality: an occurrence `E` is in `occurrencesOf(L)`
/// (reverse reachability from `L`'s roots) iff `L` is in `labelsOf(E)`
/// (forward closure).  The nodes carrying label `L` are exactly `L`'s
/// two reverse roots — congruence summaries only merge datatype-typed
/// nodes, never a lambda's occurrence node or a label carrier — so the
/// kernel's forward rows answer the reverse query with one bit test per
/// occurrence.  (The equivalence suite pins this against the reverse
/// BFS over the whole corpus.)
void QueryEngine::occurrencesFromKernel(const LabelSetKernel &K, LabelId L,
                                        std::vector<ExprId> &Out) const {
  const uint32_t Label = L.index();
  for (uint32_t I = 0, E = F.numExprs(); I != E; ++I) {
    uint32_t N = F.nodeOfExpr(ExprId(I));
    if (N != FrozenGraph::None && K.hasLabel(N, Label))
      Out.push_back(ExprId(I));
  }
}

/// The one stamped DFS behind every BFS answer: visits each node
/// reachable from \p Roots over the CSR (\p Off, \p Tgt) — the forward
/// edges or the reverse ones — exactly once, calling `Visit(N)`; a false
/// return stops the walk.  Raw hoisted arrays, no per-row spans.  Returns
/// the calling thread's scratch, stamped with this walk's epoch.
template <typename VisitFn>
const QueryEngine::Scratch &
QueryEngine::walk(const uint32_t *Off, const uint32_t *Tgt,
                  std::initializer_list<uint32_t> Roots, VisitFn Visit) const {
  Scratch &S = threadScratch(F.numNodes());
  // When the 32-bit epoch wraps, stale stamps from 2^32 walks ago would
  // alias the new epoch, so reset them all once and restart from 1.
  if (++S.Epoch == 0) {
    std::fill(S.Stamp.begin(), S.Stamp.end(), 0);
    S.Epoch = 1;
  }
  uint32_t *Stamp = S.Stamp.data();
  const uint32_t Epoch = S.Epoch;
  S.Stack.clear();
  for (uint32_t R : Roots)
    if (R != FrozenGraph::None && Stamp[R] != Epoch) {
      Stamp[R] = Epoch;
      S.Stack.push_back(R);
    }
  uint64_t Count = 0;
  while (!S.Stack.empty()) {
    uint32_t N = S.Stack.back();
    S.Stack.pop_back();
    ++Count;
    if (!Visit(N))
      break;
    for (uint32_t I = Off[N], End = Off[N + 1]; I != End; ++I)
      if (uint32_t Next = Tgt[I]; Stamp[Next] != Epoch) {
        Stamp[Next] = Epoch;
        S.Stack.push_back(Next);
      }
  }
  Visited.add(Count);
  return S;
}

DenseBitset QueryEngine::labelsFromNode(uint32_t Start) const {
  DenseBitset Out(F.numLabels());
  const uint32_t *Lab = F.labelAtArray();
  walk(F.outOffsets(), F.outTargets(), {Start}, [&](uint32_t N) {
    if (uint32_t L = Lab[N]; L != FrozenGraph::None)
      Out.insert(L);
    return true;
  });
  return Out;
}

bool QueryEngine::labelReachableFrom(uint32_t Start, uint32_t Label) const {
  bool Found = false;
  const uint32_t *Lab = F.labelAtArray();
  walk(F.outOffsets(), F.outTargets(), {Start}, [&](uint32_t N) {
    Found = Lab[N] == Label;
    return !Found; // stop at the first carrier
  });
  return Found;
}

/// Once the reverse queries would have paid for it in scans, builds the
/// node -> occurrences index (CSR), exactly once.  An engine that answers
/// a handful (a delta epoch) keeps scanning; a serving epoch gathers.
bool QueryEngine::noteReverseQueries(size_t N) const {
  if (IndexReady.load(std::memory_order_acquire))
    return true;
  if (ReverseQueries.fetch_add(N, std::memory_order_relaxed) + N < 8)
    return false;
  std::call_once(IndexOnce, [this] {
    ExprsAtOffsets.assign(size_t(F.numNodes()) + 1, 0);
    for (uint32_t I = 0, E = F.numExprs(); I != E; ++I)
      if (uint32_t Node = F.nodeOfExpr(ExprId(I)); Node != FrozenGraph::None)
        ++ExprsAtOffsets[Node + 1];
    for (uint32_t Node = 0; Node != F.numNodes(); ++Node)
      ExprsAtOffsets[Node + 1] += ExprsAtOffsets[Node];
    ExprsAt.resize(ExprsAtOffsets.back());
    std::vector<uint32_t> Fill(ExprsAtOffsets.begin(),
                               ExprsAtOffsets.end() - 1);
    for (uint32_t I = 0, E = F.numExprs(); I != E; ++I)
      if (uint32_t Node = F.nodeOfExpr(ExprId(I)); Node != FrozenGraph::None)
        ExprsAt[Fill[Node]++] = ExprId(I);
    IndexReady.store(true, std::memory_order_release);
  });
  return true;
}

void QueryEngine::markOccurrences(LabelId L, bool Indexed,
                                  std::vector<ExprId> &Out) const {
  // Reverse reachability from the abstraction node and (polyvariant
  // instantiation) the label-carrier node.
  auto [Lam, Carrier] = F.labelRoots(L);
  const Scratch &S =
      walk(F.inOffsets(), F.inTargets(), {Lam, Carrier}, [&](uint32_t N) {
        if (Indexed)
          Out.insert(Out.end(), ExprsAt.begin() + ExprsAtOffsets[N],
                     ExprsAt.begin() + ExprsAtOffsets[N + 1]);
        return true;
      });

  // A congruence summary node may stand for many occurrences, so map
  // nodes to the occurrences they stand for: through the index (then
  // sort into id order), or by one scan in id order.
  if (Indexed) {
    std::sort(Out.begin(), Out.end(),
              [](ExprId A, ExprId B) { return A.index() < B.index(); });
    return;
  }
  for (uint32_t I = 0, E = F.numExprs(); I != E; ++I) {
    uint32_t N = F.nodeOfExpr(ExprId(I));
    if (N != FrozenGraph::None && S.Stamp[N] == S.Epoch)
      Out.push_back(ExprId(I));
  }
}

//===----------------------------------------------------------------------===//
// Point queries
//===----------------------------------------------------------------------===//

const LabelSetKernel *QueryEngine::pointKernel() const {
  static Counter &ByKernel = counter("query.point.kernel");
  static Counter &ByBfs = counter("query.point.bfs");
  const LabelSetKernel *K = publishedKernel();
  (K ? ByKernel : ByBfs).inc();
  return K;
}

DenseBitset QueryEngine::pointLabels(uint32_t Start) const {
  if (Start == FrozenGraph::None)
    return DenseBitset(F.numLabels());
  if (const LabelSetKernel *K = pointKernel())
    return K->pool().set(K->rowOfNode(Start));
  return labelsFromNode(Start);
}

bool QueryEngine::isLabelIn(ExprId E, LabelId L) const {
  uint32_t Start = F.nodeOfExpr(E);
  if (Start == FrozenGraph::None)
    return false;
  if (const LabelSetKernel *K = pointKernel())
    return K->hasLabel(Start, L.index());
  return labelReachableFrom(Start, L.index());
}

DenseBitset QueryEngine::labelsOf(ExprId E) const {
  return pointLabels(F.nodeOfExpr(E));
}

DenseBitset QueryEngine::labelsOfVar(VarId V) const {
  return pointLabels(F.nodeOfVar(V));
}

std::vector<ExprId> QueryEngine::occurrencesOf(LabelId L) const {
  static Counter &ByBfs = counter("query.point.bfs");
  ByBfs.inc();
  std::vector<ExprId> Out;
  markOccurrences(L, noteReverseQueries(1), Out);
  return Out;
}

//===----------------------------------------------------------------------===//
// Batched queries
//===----------------------------------------------------------------------===//

namespace {

/// Splits \p N items into one contiguous shard per lane.
struct Shard {
  size_t Begin, End;
};

inline Shard shardOf(size_t N, size_t NumShards, size_t Index) {
  size_t Chunk = (N + NumShards - 1) / NumShards;
  size_t Begin = std::min(N, Index * Chunk);
  return {Begin, std::min(N, Begin + Chunk)};
}

} // namespace

template <typename ItemFn>
void QueryEngine::runGoverned(size_t N, const BatchControl &C,
                              BatchOutcome &Out, ItemFn Item) {
  Out.S = Status::ok();
  Out.Completed = 0;
  Out.Done.assign(N, 0);

  // One flag stops every lane; the CAS winner owns the status slot, so
  // the first failure is the one reported and no lock is needed.
  std::atomic<bool> Stop{false};
  std::atomic<uint64_t> Completed{0};
  // Controls that can never fire (an ungoverned batch) skip the polls.
  const bool Polled =
      !C.D.isInfinite() || C.Token.armed() || anyFaultArmed();
  auto fail = [&](Status S) {
    bool Expected = false;
    if (Stop.compare_exchange_strong(Expected, true))
      Out.S = std::move(S);
  };
  auto RunShard = [&](unsigned Lane, size_t Index) {
    Shard Sh = shardOf(N, NumThreads, Index);
    Span LaneSpan("query.lane");
    LaneSpan.arg("lane", Lane);
    LaneSpan.arg("items", Sh.End - Sh.Begin);
    size_t I = Sh.Begin;
    for (; I != Sh.End; ++I) {
      if (Polled) {
        if (Stop.load(std::memory_order_relaxed))
          break;
        if (C.Token.cancelled() || faultFires(fault::QueryBatchCancel)) {
          fail(Status::cancelled("batched query cancelled"));
          break;
        }
        if (C.D.expired() || faultFires(fault::QueryBatchDeadline)) {
          fail(Status::deadlineExceeded("batched query exceeded its deadline"));
          break;
        }
      }
      Item(I);
      Out.Done[I] = 1;
    }
    Completed.fetch_add(I - Sh.Begin, std::memory_order_relaxed);
  };
  if (Pool)
    Pool->parallelFor(NumThreads, RunShard);
  else
    RunShard(0, 0);
  Out.Completed = Completed.load();
  static Counter &Items = counter("query.batch.items_completed");
  static Counter &Aborts = counter("query.batch.aborts");
  Items.add(Out.Completed);
  if (!Out.S.isOk())
    Aborts.inc();
}

std::vector<DenseBitset>
QueryEngine::labelsOfBatch(const std::vector<ExprId> &Es,
                           const BatchControl &C, BatchOutcome &Outcome) {
  std::vector<DenseBitset> Out(Es.size());
  // Unanswered slots become empty sets over the label universe.
  auto FillUnanswered = [&] {
    for (size_t I = 0; I != Out.size(); ++I)
      if (!Outcome.Done[I])
        Out[I] = DenseBitset(F.numLabels());
    return std::move(Out);
  };
  Span BatchSpan("query.batch.labels");
  BatchSpan.arg("items", Es.size());
  BatchSpan.arg("lanes", NumThreads);
  // Kernel path: run the closure under the batch's own controls, then
  // read each answer's pooled row through `runGoverned`, so per-item
  // governor semantics (poll-between-items, prefix Done flags, the
  // query.batch-* fault sites) are identical to the BFS path.  If the
  // kernel aborts — real deadline/cancel or an injected kernel fault —
  // fall through to the governed per-query BFS: a real trigger re-fires
  // on its first poll there (canonical partial result), an injected
  // kernel fault degrades to the slow path and the batch still completes.
  if (dispatchKernel(Es.size(), C.D, C.Token)) {
    BatchSpan.arg("dispatch", "kernel");
    const LabelSetKernel &K = *Kern;
    runGoverned(Es.size(), C, Outcome,
                [&](size_t I) { Out[I] = K.labelsOf(Es[I]); });
    return FillUnanswered();
  }
  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  runGoverned(Es.size(), C, Outcome, [&](size_t I) {
    uint32_t Start = F.nodeOfExpr(Es[I]);
    Out[I] = Start == FrozenGraph::None ? DenseBitset(F.numLabels())
                                        : labelsFromNode(Start);
  });
  return FillUnanswered();
}

InternedLabelSets QueryEngine::allLabelSets(const BatchControl &C,
                                            BatchOutcome &Outcome) {
  const uint32_t N = F.numExprs();
  Span BatchSpan("query.batch.labels");
  BatchSpan.arg("items", N);
  BatchSpan.arg("lanes", NumThreads);
  // Same governor semantics as `labelsOfBatch`; the kernel path reads one
  // row id per occurrence and builds no set.
  if (dispatchKernel(N, C.D, C.Token)) {
    BatchSpan.arg("dispatch", "kernel");
    const LabelSetKernel &K = *Kern;
    InternedLabelSets Out(K.pool(), N);
    runGoverned(N, C, Outcome, [&](size_t I) {
      Out.RowOf[I] = K.rowOfExpr(ExprId(static_cast<uint32_t>(I)));
    });
    Out.Done = Outcome.Done;
    return Out;
  }
  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  InternedLabelSets Out(F.numLabels(), N);
  std::mutex PoolMu; // the lanes share one pool
  runGoverned(N, C, Outcome, [&](size_t I) {
    uint32_t Start = F.nodeOfExpr(ExprId(static_cast<uint32_t>(I)));
    if (Start == FrozenGraph::None)
      return; // row 0, the empty set
    DenseBitset Set = labelsFromNode(Start);
    std::lock_guard<std::mutex> Lock(PoolMu);
    Out.set(static_cast<uint32_t>(I), Set);
  });
  Out.Done = Outcome.Done;
  return Out;
}

std::vector<char>
QueryEngine::isLabelInBatch(const std::vector<std::pair<ExprId, LabelId>> &Qs,
                            const BatchControl &C, BatchOutcome &Outcome) {
  std::vector<char> Out(Qs.size(), 0);
  Span BatchSpan("query.batch.members");
  BatchSpan.arg("items", Qs.size());
  BatchSpan.arg("lanes", NumThreads);
  // Membership batches never *build* the closure (a single bit each is
  // too cheap to justify it), but once an earlier batch completed the
  // kernel, every membership test is one O(1) bit probe.
  const LabelSetKernel *K = publishedKernel();
  BatchSpan.arg("dispatch", K ? "kernel" : "bfs");
  runGoverned(Qs.size(), C, Outcome, [&](size_t I) {
    uint32_t Start = F.nodeOfExpr(Qs[I].first);
    Out[I] = Start != FrozenGraph::None &&
             (K ? K->hasLabel(Start, Qs[I].second.index())
                : labelReachableFrom(Start, Qs[I].second.index()));
  });
  return Out;
}

std::vector<std::vector<ExprId>>
QueryEngine::occurrencesOfBatch(const std::vector<LabelId> &Ls,
                                const BatchControl &C, BatchOutcome &Outcome) {
  std::vector<std::vector<ExprId>> Out(Ls.size());
  Span BatchSpan("query.batch.occurrences");
  BatchSpan.arg("items", Ls.size());
  BatchSpan.arg("lanes", NumThreads);
  // Kernel path (find_callers batches): one forward closure, then one
  // bit probe per (label, occurrence) pair via the forward/reverse
  // duality — instead of one reverse BFS per label.
  if (dispatchKernel(Ls.size(), C.D, C.Token)) {
    BatchSpan.arg("dispatch", "kernel");
    const LabelSetKernel &K = *Kern;
    runGoverned(Ls.size(), C, Outcome, [&](size_t I) {
      occurrencesFromKernel(K, Ls[I], Out[I]);
    });
    return Out;
  }
  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  const bool Indexed = noteReverseQueries(Ls.size());
  runGoverned(Ls.size(), C, Outcome, [&](size_t I) {
    markOccurrences(Ls[I], Indexed, Out[I]);
  });
  return Out;
}
