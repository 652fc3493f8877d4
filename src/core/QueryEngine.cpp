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

LabelSetKernel &QueryEngine::kernelRef() {
  if (!Kern)
    Kern = std::make_unique<LabelSetKernel>(F);
  return *Kern;
}

bool QueryEngine::dispatchKernel(size_t BatchSize, const Deadline &D,
                                 const CancellationToken &Token) {
  if (!kernelEligible(BatchSize))
    return false;
  Status S = kernelRef().run({D, Token});
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

template <typename FnT>
void QueryEngine::forEachReachable(Scratch &S, uint32_t Start, FnT Fn) {
  bumpEpoch(S);
  S.Stack.clear();
  S.Stack.push_back(Start);
  S.Stamp[Start] = S.Epoch;
  while (!S.Stack.empty()) {
    uint32_t N = S.Stack.back();
    S.Stack.pop_back();
    ++S.Visited;
    if (!Fn(N))
      return;
    for (uint32_t Succ : F.succs(N)) {
      if (S.Stamp[Succ] == S.Epoch)
        continue;
      S.Stamp[Succ] = S.Epoch;
      S.Stack.push_back(Succ);
    }
  }
}

DenseBitset QueryEngine::labelsFromNode(Scratch &S, uint32_t Start) {
  // The labelsOfBatch hot path: a hand-unrolled DFS over
  // raw CSR arrays (hoisted pointers, no per-row span construction).
  DenseBitset Out(F.numLabels());
  bumpEpoch(S);
  const uint32_t *Off = F.outOffsets();
  const uint32_t *Tgt = F.outTargets();
  const uint32_t *Lab = F.labelArray();
  uint32_t *Stamp = S.Stamp.data();
  const uint32_t Epoch = S.Epoch;
  S.Stack.clear();
  S.Stack.push_back(Start);
  Stamp[Start] = Epoch;
  uint64_t Visited = 0;
  while (!S.Stack.empty()) {
    uint32_t N = S.Stack.back();
    S.Stack.pop_back();
    ++Visited;
    if (uint32_t L = Lab[N]; L != FrozenGraph::None)
      Out.insert(L);
    for (uint32_t I = Off[N], End = Off[N + 1]; I != End; ++I) {
      uint32_t Succ = Tgt[I];
      if (Stamp[Succ] != Epoch) {
        Stamp[Succ] = Epoch;
        S.Stack.push_back(Succ);
      }
    }
  }
  S.Visited += Visited;
  return Out;
}

bool QueryEngine::labelReachableFrom(Scratch &S, uint32_t Start,
                                     uint32_t Label) {
  bool Found = false;
  forEachReachable(S, Start, [&](uint32_t N) {
    if (F.labelAt(N) == Label) {
      Found = true;
      return false; // stop the search
    }
    return true;
  });
  return Found;
}

void QueryEngine::markOccurrences(Scratch &S, LabelId L,
                                  std::vector<ExprId> &Out) {
  // Reverse reachability from the abstraction node and (polyvariant
  // instantiation) the label-carrier node.
  bumpEpoch(S);
  S.Stack.clear();
  auto [Lam, Carrier] = F.labelRoots(L);
  for (uint32_t Root : {Lam, Carrier}) {
    if (Root == FrozenGraph::None)
      continue;
    S.Stack.push_back(Root);
    S.Stamp[Root] = S.Epoch;
  }
  if (S.Stack.empty())
    return;
  while (!S.Stack.empty()) {
    uint32_t N = S.Stack.back();
    S.Stack.pop_back();
    ++S.Visited;
    for (uint32_t P : F.preds(N)) {
      if (S.Stamp[P] == S.Epoch)
        continue;
      S.Stamp[P] = S.Epoch;
      S.Stack.push_back(P);
    }
  }

  // A congruence summary node may stand for many occurrences, so map
  // expressions to their canonical nodes rather than the reverse.
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

DenseBitset QueryEngine::labelsOfNode(uint32_t N) {
  return labelsFromNode(Lanes[0], N);
}

std::vector<ExprId> QueryEngine::occurrencesOf(LabelId L) {
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

std::vector<DenseBitset>
QueryEngine::labelsOfBatch(const std::vector<ExprId> &Es) {
  Span BatchSpan("query.batch.labels");
  BatchSpan.arg("items", Es.size());
  BatchSpan.arg("lanes", NumThreads);
  // Above the threshold, one kernel closure is amortised across the
  // whole batch and each answer is a row copy.  A kernel abort (only
  // possible through injected faults on this ungoverned path) falls
  // through to the per-query BFS below.
  if (dispatchKernel(Es.size())) {
    BatchSpan.arg("dispatch", "kernel");
    const LabelSetKernel &K = *Kern;
    std::vector<DenseBitset> Out(Es.size());
    auto CopyShard = [&](unsigned Lane, size_t Index) {
      Shard Sh = shardOf(Es.size(), NumThreads, Index);
      Span LaneSpan("query.lane");
      LaneSpan.arg("lane", Lane);
      LaneSpan.arg("items", Sh.End - Sh.Begin);
      for (size_t I = Sh.Begin; I != Sh.End; ++I)
        Out[I] = K.labelsOf(Es[I]);
    };
    if (Pool)
      Pool->parallelFor(NumThreads, CopyShard);
    else
      CopyShard(0, 0);
    return Out;
  }

  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  std::vector<DenseBitset> Out(Es.size());
  auto RunShard = [&](unsigned Lane, size_t Index) {
    Scratch &S = Lanes[Lane];
    Shard Sh = shardOf(Es.size(), NumThreads, Index);
    Span LaneSpan("query.lane");
    LaneSpan.arg("lane", Lane);
    LaneSpan.arg("items", Sh.End - Sh.Begin);
    for (size_t I = Sh.Begin; I != Sh.End; ++I) {
      uint32_t Start = F.nodeOfExpr(Es[I]);
      Out[I] = Start == FrozenGraph::None ? DenseBitset(F.numLabels())
                                          : labelsFromNode(S, Start);
    }
  };
  if (Pool)
    Pool->parallelFor(NumThreads, RunShard);
  else
    RunShard(0, 0);
  return Out;
}

std::vector<char>
QueryEngine::isLabelInBatch(const std::vector<std::pair<ExprId, LabelId>> &Qs) {
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
  auto RunShard = [&](unsigned Lane, size_t Index) {
    Scratch &S = Lanes[Lane];
    Shard Sh = shardOf(Qs.size(), NumThreads, Index);
    Span LaneSpan("query.lane");
    LaneSpan.arg("lane", Lane);
    LaneSpan.arg("items", Sh.End - Sh.Begin);
    for (size_t I = Sh.Begin; I != Sh.End; ++I) {
      uint32_t Start = F.nodeOfExpr(Qs[I].first);
      Out[I] = Start != FrozenGraph::None &&
               (K ? K->hasLabel(Start, Qs[I].second.index())
                  : labelReachableFrom(S, Start, Qs[I].second.index()));
    }
  };
  if (Pool)
    Pool->parallelFor(NumThreads, RunShard);
  else
    RunShard(0, 0);
  return Out;
}

std::vector<std::vector<ExprId>>
QueryEngine::occurrencesOfBatch(const std::vector<LabelId> &Ls) {
  std::vector<std::vector<ExprId>> Out(Ls.size());
  Span BatchSpan("query.batch.occurrences");
  BatchSpan.arg("items", Ls.size());
  BatchSpan.arg("lanes", NumThreads);
  // Kernel path (find_callers batches): one forward closure, then one
  // bit probe per (label, occurrence) pair via the forward/reverse
  // duality — instead of one reverse BFS per label.
  if (dispatchKernel(Ls.size())) {
    BatchSpan.arg("dispatch", "kernel");
    const LabelSetKernel &K = *Kern;
    auto ProbeShard = [&](unsigned Lane, size_t Index) {
      Shard Sh = shardOf(Ls.size(), NumThreads, Index);
      Span LaneSpan("query.lane");
      LaneSpan.arg("lane", Lane);
      LaneSpan.arg("items", Sh.End - Sh.Begin);
      for (size_t I = Sh.Begin; I != Sh.End; ++I)
        occurrencesFromKernel(K, Ls[I], Out[I]);
    };
    if (Pool)
      Pool->parallelFor(NumThreads, ProbeShard);
    else
      ProbeShard(0, 0);
    return Out;
  }

  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  auto RunShard = [&](unsigned Lane, size_t Index) {
    Scratch &S = Lanes[Lane];
    Shard Sh = shardOf(Ls.size(), NumThreads, Index);
    Span LaneSpan("query.lane");
    LaneSpan.arg("lane", Lane);
    LaneSpan.arg("items", Sh.End - Sh.Begin);
    for (size_t I = Sh.Begin; I != Sh.End; ++I)
      markOccurrences(S, Ls[I], Out[I]);
  };
  if (Pool)
    Pool->parallelFor(NumThreads, RunShard);
  else
    RunShard(0, 0);
  return Out;
}

//===----------------------------------------------------------------------===//
// Governed batched queries
//===----------------------------------------------------------------------===//

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
    for (size_t I = Sh.Begin; I != Sh.End; ++I) {
      if (Stop.load(std::memory_order_relaxed))
        return;
      if (C.Token.cancelled() || faultFires(fault::QueryBatchCancel))
        return fail(Status::cancelled("batched query cancelled"));
      if (C.D.expired() || faultFires(fault::QueryBatchDeadline))
        return fail(
            Status::deadlineExceeded("batched query exceeded its deadline"));
      Item(S, I);
      Out.Done[I] = 1;
      Completed.fetch_add(1, std::memory_order_relaxed);
    }
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
  std::vector<DenseBitset> Out(Es.size(), DenseBitset(F.numLabels()));
  Span BatchSpan("query.batch.labels");
  BatchSpan.arg("items", Es.size());
  BatchSpan.arg("lanes", NumThreads);
  // Kernel path: run the closure under the batch's own controls, then
  // materialise answers through `runGoverned`, so per-item governor
  // semantics (poll-between-items, prefix Done flags, the query.batch-*
  // fault sites) are identical to the BFS path.  If the kernel aborts —
  // real deadline/cancel or an injected kernel fault — fall through to
  // the governed per-query BFS: a real trigger re-fires on its first
  // poll there (canonical partial result), an injected kernel fault
  // degrades to the slow path and the batch still completes.
  if (dispatchKernel(Es.size(), C.D, C.Token)) {
    BatchSpan.arg("dispatch", "kernel");
    const LabelSetKernel &K = *Kern;
    runGoverned(Es.size(), C, Outcome,
                [&](Scratch &, size_t I) { Out[I] = K.labelsOf(Es[I]); });
    return Out;
  }
  BatchSpan.arg("dispatch", "bfs");
  static Counter &BfsDispatch = counter("query.batch.bfs_dispatch");
  BfsDispatch.inc();
  runGoverned(Es.size(), C, Outcome, [&](Scratch &S, size_t I) {
    uint32_t Start = F.nodeOfExpr(Es[I]);
    if (Start != FrozenGraph::None)
      Out[I] = labelsFromNode(S, Start);
  });
  return Out;
}

std::vector<char>
QueryEngine::isLabelInBatch(const std::vector<std::pair<ExprId, LabelId>> &Qs,
                            const BatchControl &C, BatchOutcome &Outcome) {
  std::vector<char> Out(Qs.size(), 0);
  Span BatchSpan("query.batch.members");
  BatchSpan.arg("items", Qs.size());
  BatchSpan.arg("lanes", NumThreads);
  // Same policy as the ungoverned overload: probe the kernel only if an
  // earlier batch already completed it.
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
  // Mirrors governed labelsOfBatch: kernel closure under the batch
  // controls, canonical per-item materialisation, BFS fallback on abort.
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
