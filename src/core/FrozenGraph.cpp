//===-- core/FrozenGraph.cpp - Immutable CSR query snapshot ---------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/FrozenGraph.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <algorithm>

using namespace stcfa;

FrozenGraph::FrozenGraph(const SubtransitiveGraph &G)
    : FrozenGraph(G, Deadline::infinite()) {
  assert(G.closed() && "freeze only after close()");
  assert(!G.aborted() && "an aborted graph must not be frozen");
}

FrozenGraph::FrozenGraph(const SubtransitiveGraph &G, const Deadline &D,
                         const IdOrders *Orders) {
  const Module &M = G.module();
  NumExprs = Orders ? uint32_t(Orders->Exprs.size()) : M.numExprs();
  NumVars = Orders ? uint32_t(Orders->Vars.size()) : M.numVars();
  NumLabels = Orders ? uint32_t(Orders->Labels.size()) : M.numLabels();
  FreezeStatus = init(G, D, Orders);
  if (!FreezeStatus.isOk())
    resetToInert();
}

std::unique_ptr<FrozenGraph> FrozenGraph::freeze(const SubtransitiveGraph &G,
                                                 Status &Out,
                                                 const Deadline &D,
                                                 const IdOrders *Orders) {
  auto F = std::unique_ptr<FrozenGraph>(new FrozenGraph(G, D, Orders));
  Out = F->status();
  if (!Out.isOk())
    F.reset();
  return F;
}

std::unique_ptr<FrozenGraph> FrozenGraph::fromTables(const Tables &T) {
  auto F = std::unique_ptr<FrozenGraph>(new FrozenGraph());
  F->NumNodes = T.NumNodes;
  F->NumExprs = T.NumExprs;
  F->NumVars = T.NumVars;
  F->NumLabels = T.NumLabels;
  F->OutOffsets = T.OutOffsets;
  F->OutTargets = T.OutTargets;
  F->InOffsets = T.InOffsets;
  F->InTargets = T.InTargets;
  F->LabelAt = T.LabelAt;
  F->Op = T.Ops;
  F->NodeOfExpr = T.NodeOfExpr;
  F->NodeOfVar = T.NodeOfVar;
  F->LabelRoots = T.LabelRoots;
  F->RanOf = T.RanOf;
  // Adopt the persisted condensation so warm loads never pay the Tarjan
  // pass; consumers hit the usual `condensation()` cache path.
  if (T.SccOf.size() == T.NumNodes)
    std::call_once(F->CondOnce, [&F, &T] {
      F->Cond = std::make_unique<Condensation>(T.SccOf, T.NumSccs);
    });
  return F;
}

FrozenGraph::Tables FrozenGraph::tables() const {
  Tables T;
  T.NumNodes = NumNodes;
  T.NumExprs = NumExprs;
  T.NumVars = NumVars;
  T.NumLabels = NumLabels;
  T.OutOffsets = OutOffsets;
  T.OutTargets = OutTargets;
  T.InOffsets = InOffsets;
  T.InTargets = InTargets;
  T.LabelAt = LabelAt;
  T.Ops = Op;
  T.NodeOfExpr = NodeOfExpr;
  T.NodeOfVar = NodeOfVar;
  T.LabelRoots = LabelRoots;
  T.RanOf = RanOf;
  const Condensation &C = condensation();
  T.SccOf = C.map();
  T.NumSccs = C.numSccs();
  return T;
}

/// Drops every partially-built array and leaves the snapshot empty but
/// well-defined: zero nodes, every occurrence/binder/label lookup
/// answers "no node", so downstream queries are empty rather than UB.
void FrozenGraph::resetToInert() {
  NumNodes = 0;
  OutOffsetsStore.assign(1, 0);
  InOffsetsStore.assign(1, 0);
  OutTargetsStore.clear();
  InTargetsStore.clear();
  LabelAtStore.clear();
  OpStore.clear();
  NodeOfExprStore.assign(NumExprs, None);
  NodeOfVarStore.assign(NumVars, None);
  LabelRootsStore.assign(2 * size_t(NumLabels), None);
  RanOfStore.clear();
  OutOffsets = OutOffsetsStore;
  OutTargets = OutTargetsStore;
  InOffsets = InOffsetsStore;
  InTargets = InTargetsStore;
  LabelAt = LabelAtStore;
  Op = OpStore;
  NodeOfExpr = NodeOfExprStore;
  NodeOfVar = NodeOfVarStore;
  LabelRoots = LabelRootsStore;
  RanOf = RanOfStore;
}

Status FrozenGraph::init(const SubtransitiveGraph &G, const Deadline &D,
                         const IdOrders *Orders) {
  Span FreezeSpan("freeze");
  static Counter &Freezes = counter("freeze.count");
  static Counter &FreezeAborts = counter("freeze.aborts");
  static Histogram &Millis =
      histogram("freeze.millis", latencyBucketsMillis());
  Freezes.inc();
  auto fail = [&](Status S) {
    FreezeAborts.inc();
    FreezeSpan.arg("status", statusCodeName(S.code()));
    return S;
  };
  // An aborted close leaves the graph un-closed too, so test abortion
  // first: its diagnostic (which carries the close status) is the one the
  // caller needs.
  if (G.aborted())
    return fail(Status::failedPrecondition(
        "an aborted graph must not be frozen: " + G.closeStatus().toString()));
  if (!G.closed())
    return fail(Status::failedPrecondition("freeze before close()"));
  NumNodes = G.numNodes();
  Timer T;

  // Governor checkpoint between compaction phases: each phase is one
  // linear pass, so this bounds overrun at one pass, and the hot loops
  // themselves stay check-free.
  auto checkpoint = [&]() -> Status {
    if (faultFires(fault::FreezeAlloc))
      return Status::outOfMemory("CSR array allocation failed");
    if (D.expired() || faultFires(fault::FreezeDeadline))
      return Status::deadlineExceeded("freeze exceeded its deadline");
    return Status::ok();
  };
  if (Status S = checkpoint(); !S.isOk())
    return fail(std::move(S));

  // Forward CSR: count, prefix-sum, fill.  Each row is sorted ascending
  // — queries are order-insensitive, and monotone targets keep the DFS
  // stamp accesses local.
  OutOffsetsStore.assign(NumNodes + 1, 0);
  for (uint32_t N = 0; N != NumNodes; ++N)
    for (NodeId S : G.succs(NodeId(N))) {
      (void)S;
      ++OutOffsetsStore[N + 1];
    }
  for (uint32_t N = 0; N != NumNodes; ++N)
    OutOffsetsStore[N + 1] += OutOffsetsStore[N];
  OutTargetsStore.resize(OutOffsetsStore[NumNodes]);
  {
    std::vector<uint32_t> Fill(OutOffsetsStore.begin(),
                               OutOffsetsStore.end() - 1);
    for (uint32_t N = 0; N != NumNodes; ++N)
      for (NodeId S : G.succs(NodeId(N)))
        OutTargetsStore[Fill[N]++] = S.index();
  }
  for (uint32_t N = 0; N != NumNodes; ++N)
    std::sort(OutTargetsStore.begin() + OutOffsetsStore[N],
              OutTargetsStore.begin() + OutOffsetsStore[N + 1]);
  if (Status S = checkpoint(); !S.isOk())
    return fail(std::move(S));

  // Reverse CSR, derived from the forward arrays.
  InOffsetsStore.assign(NumNodes + 1, 0);
  for (uint32_t Target : OutTargetsStore)
    ++InOffsetsStore[Target + 1];
  for (uint32_t N = 0; N != NumNodes; ++N)
    InOffsetsStore[N + 1] += InOffsetsStore[N];
  InTargetsStore.resize(OutTargetsStore.size());
  {
    std::vector<uint32_t> Fill(InOffsetsStore.begin(),
                               InOffsetsStore.end() - 1);
    for (uint32_t N = 0; N != NumNodes; ++N)
      for (uint32_t I = OutOffsetsStore[N], E = OutOffsetsStore[N + 1]; I != E;
           ++I)
        InTargetsStore[Fill[OutTargetsStore[I]]++] = N;
  }
  if (Status S = checkpoint(); !S.isOk())
    return fail(std::move(S));

  // The source id behind each snapshot id: identity, or the orders.
  auto exprAt = [&](uint32_t I) { return Orders ? Orders->Exprs[I] : I; };
  auto varAt = [&](uint32_t I) { return Orders ? Orders->Vars[I] : I; };
  auto labelAt = [&](uint32_t I) { return Orders ? Orders->Labels[I] : I; };
  std::vector<uint32_t> LabelOfSource; // inverse of `Orders->Labels`
  if (Orders) {
    LabelOfSource.assign(G.module().numLabels(), None);
    for (uint32_t L = 0; L != NumLabels; ++L)
      LabelOfSource[Orders->Labels[L]] = L;
  }

  // Labels and ops hoisted into flat arrays.
  LabelAtStore.resize(NumNodes);
  OpStore.resize(NumNodes);
  for (uint32_t N = 0; N != NumNodes; ++N) {
    LabelId L = G.labelOf(NodeId(N));
    LabelAtStore[N] = !L.isValid() ? None
                      : Orders     ? LabelOfSource[L.index()]
                                   : L.index();
    OpStore[N] = G.op(NodeId(N));
  }

  // Flat occurrence/binder -> node maps and per-label reverse roots.
  NodeOfExprStore.resize(NumExprs);
  for (uint32_t I = 0; I != NumExprs; ++I) {
    NodeId N = G.lookupExprNode(ExprId(exprAt(I)));
    NodeOfExprStore[I] = N.isValid() ? N.index() : None;
  }
  NodeOfVarStore.resize(NumVars);
  for (uint32_t I = 0; I != NumVars; ++I) {
    NodeId N = G.lookupVarNode(VarId(varAt(I)));
    NodeOfVarStore[I] = N.isValid() ? N.index() : None;
  }
  LabelRootsStore.assign(2 * size_t(NumLabels), None);
  for (uint32_t L = 0; L != NumLabels; ++L) {
    LabelId Src(labelAt(L));
    NodeId Lam = G.lookupExprNode(G.module().lamOfLabel(Src));
    NodeId Carrier = G.lookupLabelNode(Src);
    LabelRootsStore[2 * L] = Lam.isValid() ? Lam.index() : None;
    LabelRootsStore[2 * L + 1] = Carrier.isValid() ? Carrier.index() : None;
  }

  // Ran-port map hoisted flat: the effects analysis resolves
  // `ran(lambda-node)` per call site, and the snapshot keeps no source
  // graph hash to consult, so the ports ride the snapshot.
  RanOfStore.resize(NumNodes);
  for (uint32_t N = 0; N != NumNodes; ++N) {
    NodeId R = G.lookupDerived(NodeOp::Ran, NodeId(N));
    RanOfStore[N] = R.isValid() && R.index() < NumNodes ? R.index() : None;
  }

  OutOffsets = OutOffsetsStore;
  OutTargets = OutTargetsStore;
  InOffsets = InOffsetsStore;
  InTargets = InTargetsStore;
  LabelAt = LabelAtStore;
  Op = OpStore;
  NodeOfExpr = NodeOfExprStore;
  NodeOfVar = NodeOfVarStore;
  LabelRoots = LabelRootsStore;
  RanOf = RanOfStore;

  FreezeMs = T.millis();
  Millis.observe(static_cast<uint64_t>(FreezeMs));
  FreezeSpan.arg("nodes", NumNodes);
  FreezeSpan.arg("edges", OutTargetsStore.size());
  FreezeSpan.arg("status", statusCodeName(StatusCode::Ok));
  return Status::ok();
}

DenseBitset FrozenGraph::reachableFrom(std::span<const uint32_t> Roots,
                                       bool Reverse) const {
  DenseBitset Mark(NumNodes);
  std::vector<uint32_t> Stack;
  for (uint32_t R : Roots) {
    if (R != None && R < NumNodes && Mark.insert(R))
      Stack.push_back(R);
  }
  while (!Stack.empty()) {
    uint32_t N = Stack.back();
    Stack.pop_back();
    for (uint32_t T : Reverse ? preds(N) : succs(N))
      if (Mark.insert(T))
        Stack.push_back(T);
  }
  return Mark;
}

const Condensation &FrozenGraph::condensation() const {
  std::call_once(CondOnce, [this] {
    Span CondSpan("condense");
    static Counter &Condensations = counter("condense.count");
    static Histogram &Millis =
        histogram("condense.millis", latencyBucketsMillis());
    Condensations.inc();
    Timer T;
    Cond = std::make_unique<Condensation>(NumNodes, OutOffsets, OutTargets);
    Millis.observe(static_cast<uint64_t>(T.millis()));
    CondSpan.arg("nodes", NumNodes);
    CondSpan.arg("sccs", Cond->numSccs());
  });
  return *Cond;
}
