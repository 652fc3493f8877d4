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

QueryEngine::QueryEngine(const FrozenGraph &F, unsigned Threads)
    : F(F), NumThreads(Threads ? Threads : 1) {
  Lanes.resize(NumThreads);
  for (Scratch &S : Lanes)
    S.Stamp.assign(F.numNodes(), 0);
  if (NumThreads > 1)
    Pool = std::make_unique<ThreadPool>(NumThreads);
}

QueryEngine::~QueryEngine() = default;

void QueryEngine::adoptKernel(std::unique_ptr<LabelSetKernel> K) {
  Kern = std::move(K);
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
                                        std::vector<ExprId> &Out) {
  const uint32_t Label = L.index();
  for (uint32_t I = 0, E = F.numExprs(); I != E; ++I) {
    uint32_t N = F.nodeOfExpr(ExprId(I));
    if (N != FrozenGraph::None && K.hasLabel(N, Label))
      Out.push_back(ExprId(I));
  }
}

void QueryEngine::bumpEpoch(Scratch &S) {
  // The stamp vector distinguishes visits by epoch; when the 32-bit
  // epoch wraps, stale stamps from 2^32 queries ago would alias the new
  // epoch, so reset them all once and restart from 1.
  if (++S.Epoch == 0) {
    std::fill(S.Stamp.begin(), S.Stamp.end(), 0);
    S.Epoch = 1;
  }
}

/// The one stamped DFS behind every BFS answer: visits each node
/// reachable from \p Roots over the CSR (\p Off, \p Tgt) — the forward
/// edges or the reverse ones — exactly once, calling `Visit(N)`; a false
/// return stops the walk.  Raw hoisted arrays, no per-row spans.
template <typename VisitFn>
void QueryEngine::walk(Scratch &S, const uint32_t *Off, const uint32_t *Tgt,
                       std::initializer_list<uint32_t> Roots, VisitFn Visit) {
  bumpEpoch(S);
  uint32_t *Stamp = S.Stamp.data();
  const uint32_t Epoch = S.Epoch;
  S.Stack.clear();
  for (uint32_t R : Roots)
    if (R != FrozenGraph::None && Stamp[R] != Epoch) {
      Stamp[R] = Epoch;
      S.Stack.push_back(R);
    }
  uint64_t Visited = 0;
  while (!S.Stack.empty()) {
    uint32_t N = S.Stack.back();
    S.Stack.pop_back();
    ++Visited;
    if (!Visit(N))
      break;
    for (uint32_t I = Off[N], End = Off[N + 1]; I != End; ++I)
      if (uint32_t Next = Tgt[I]; Stamp[Next] != Epoch) {
        Stamp[Next] = Epoch;
        S.Stack.push_back(Next);
      }
  }
  S.Visited += Visited;
}

DenseBitset QueryEngine::labelsFromNode(Scratch &S, uint32_t Start) {
  DenseBitset Out(F.numLabels());
  const uint32_t *Lab = F.labelAtArray();
  walk(S, F.outOffsets(), F.outTargets(), {Start}, [&](uint32_t N) {
    if (uint32_t L = Lab[N]; L != FrozenGraph::None)
      Out.insert(L);
    return true;
  });
  return Out;
}

bool QueryEngine::labelReachableFrom(Scratch &S, uint32_t Start,
                                     uint32_t Label) {
  bool Found = false;
  const uint32_t *Lab = F.labelAtArray();
  walk(S, F.outOffsets(), F.outTargets(), {Start}, [&](uint32_t N) {
    Found = Lab[N] == Label;
    return !Found; // stop at the first carrier
  });
  return Found;
}

/// Counts \p N more reverse queries; once they would have paid for it in
/// scans, builds the node -> occurrences index (CSR).  An engine that
/// answers a handful (a delta epoch) keeps scanning; a serving epoch
/// gathers.  Call before any lane runs.
void QueryEngine::noteReverseQueries(size_t N) {
  if (!ExprsAtOffsets.empty() || (ReverseQueries += N) < 8)
    return;
  ExprsAtOffsets.assign(size_t(F.numNodes()) + 1, 0);
  for (uint32_t I = 0, E = F.numExprs(); I != E; ++I)
    if (uint32_t Node = F.nodeOfExpr(ExprId(I)); Node != FrozenGraph::None)
      ++ExprsAtOffsets[Node + 1];
  for (uint32_t Node = 0; Node != F.numNodes(); ++Node)
    ExprsAtOffsets[Node + 1] += ExprsAtOffsets[Node];
  ExprsAt.resize(ExprsAtOffsets.back());
  std::vector<uint32_t> Fill(ExprsAtOffsets.begin(), ExprsAtOffsets.end() - 1);
  for (uint32_t I = 0, E = F.numExprs(); I != E; ++I)
    if (uint32_t Node = F.nodeOfExpr(ExprId(I)); Node != FrozenGraph::None)
      ExprsAt[Fill[Node]++] = ExprId(I);
}

void QueryEngine::markOccurrences(Scratch &S, LabelId L,
                                  std::vector<ExprId> &Out) {
  // Reverse reachability from the abstraction node and (polyvariant
  // instantiation) the label-carrier node.
  auto [Lam, Carrier] = F.labelRoots(L);
  const bool Indexed = !ExprsAtOffsets.empty();
  walk(S, F.inOffsets(), F.inTargets(), {Lam, Carrier}, [&](uint32_t N) {
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

bool QueryEngine::isLabelIn(ExprId E, LabelId L) {
  uint32_t Start = F.nodeOfExpr(E);
  if (Start == FrozenGraph::None)
    return false;
  return labelReachableFrom(Lanes[0], Start, L.index());
}

DenseBitset QueryEngine::labelsOf(ExprId E) {
  uint32_t Start = F.nodeOfExpr(E);
  if (Start == FrozenGraph::None)
    return DenseBitset(F.numLabels());
  return labelsFromNode(Lanes[0], Start);
}

DenseBitset QueryEngine::labelsOfVar(VarId V) {
  uint32_t Start = F.nodeOfVar(V);
  if (Start == FrozenGraph::None)
    return DenseBitset(F.numLabels());
  return labelsFromNode(Lanes[0], Start);
}

std::vector<ExprId> QueryEngine::occurrencesOf(LabelId L) {
  noteReverseQueries(1);
  std::vector<ExprId> Out;
  markOccurrences(Lanes[0], L, Out);
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
    Scratch &S = Lanes[Lane];
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
      Item(S, I);
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
                [&](Scratch &, size_t I) { Out[I] = K.labelsOf(Es[I]); });
    return FillUnanswered();
  }
  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  runGoverned(Es.size(), C, Outcome, [&](Scratch &S, size_t I) {
    uint32_t Start = F.nodeOfExpr(Es[I]);
    Out[I] = Start == FrozenGraph::None ? DenseBitset(F.numLabels())
                                        : labelsFromNode(S, Start);
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
    runGoverned(N, C, Outcome, [&](Scratch &, size_t I) {
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
  runGoverned(N, C, Outcome, [&](Scratch &S, size_t I) {
    uint32_t Start = F.nodeOfExpr(ExprId(static_cast<uint32_t>(I)));
    if (Start == FrozenGraph::None)
      return; // row 0, the empty set
    DenseBitset Set = labelsFromNode(S, Start);
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
  const LabelSetKernel *K =
      (KernelThreshold != 0 && Kern && Kern->complete()) ? Kern.get()
                                                         : nullptr;
  BatchSpan.arg("dispatch", K ? "kernel" : "bfs");
  runGoverned(Qs.size(), C, Outcome, [&](Scratch &S, size_t I) {
    uint32_t Start = F.nodeOfExpr(Qs[I].first);
    Out[I] = Start != FrozenGraph::None &&
             (K ? K->hasLabel(Start, Qs[I].second.index())
                : labelReachableFrom(S, Start, Qs[I].second.index()));
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
    runGoverned(Ls.size(), C, Outcome, [&](Scratch &, size_t I) {
      occurrencesFromKernel(K, Ls[I], Out[I]);
    });
    return Out;
  }
  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  noteReverseQueries(Ls.size());
  runGoverned(Ls.size(), C, Outcome, [&](Scratch &S, size_t I) {
    markOccurrences(S, Ls[I], Out[I]);
  });
  return Out;
}

uint64_t QueryEngine::nodesVisited() const {
  uint64_t Total = 0;
  for (const Scratch &S : Lanes)
    Total += S.Visited;
  return Total;
}
