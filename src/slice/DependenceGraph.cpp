//===-- slice/DependenceGraph.cpp - Typed dependence graph ----------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "slice/DependenceGraph.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

using namespace stcfa;

const char *stcfa::depNodeKindName(DepNodeKind K) {
  switch (K) {
  case DepNodeKind::Definition:
    return "definition";
  case DepNodeKind::Call:
    return "call";
  case DepNodeKind::Formal:
    return "formal";
  case DepNodeKind::Actual:
    return "actual";
  case DepNodeKind::ValueFlow:
    return "value-flow";
  }
  return "unknown";
}

const char *stcfa::depEdgeKindName(DepEdgeKind K) {
  switch (K) {
  case DepEdgeKind::Data:
    return "data";
  case DepEdgeKind::Control:
    return "control";
  case DepEdgeKind::Bind:
    return "bind";
  case DepEdgeKind::Congr:
    return "congr";
  }
  return "unknown";
}

namespace {

struct RawEdge {
  uint32_t From;
  uint32_t To;
  DepEdgeKind Kind;
};

/// Deduplication priority: when the same (From, To) pair arises from
/// several derivations, the most specific explanation wins in the stored
/// graph (reachability is unaffected — the pair is kept either way).
unsigned kindPriority(DepEdgeKind K) {
  switch (K) {
  case DepEdgeKind::Bind:
    return 0;
  case DepEdgeKind::Control:
    return 1;
  case DepEdgeKind::Congr:
    return 2;
  case DepEdgeKind::Data:
    return 3;
  }
  return 4;
}

} // namespace

std::unique_ptr<DependenceGraph>
DependenceGraph::build(const Module &M, const FrozenGraph &F, Status &Out,
                       const Options &Opts) {
  std::unique_ptr<DependenceGraph> DG(new DependenceGraph(M, F));
  Out = DG->init(Opts);
  if (!Out.isOk())
    return nullptr;
  return DG;
}

Status DependenceGraph::init(const Options &Opts) {
  Span BuildSpan("slice.build");
  static Counter &Builds = counter("slice.dg_builds");
  static Counter &NodeCount = counter("slice.dg_nodes");
  static Counter &EdgeCount = counter("slice.dg_edges");
  static Histogram &BuildMillis =
      histogram("slice.build_millis", latencyBucketsMillis());
  Builds.inc();
  Timer T;

  const uint32_t NumEnts = numDepNodes();
  Kinds.assign(NumEnts, DepNodeKind::ValueFlow);
  Reachable = DenseBitset(NumEnts ? NumEnts : 1);
  if (NumEnts == 0) {
    FwdOffsets.assign(1, 0);
    RevOffsets.assign(1, 0);
    return Status::ok();
  }

  // --- pass 1: node kinds + reachability + structural/control/bind edges.
  //
  // One preorder walk from the root carries the innermost guard down the
  // tree; kinds fall out of each occurrence's shape and position.
  std::vector<RawEdge> Edges;
  Edges.reserve(size_t(NumEnts) * 2);

  auto addEdge = [&](uint32_t From, uint32_t To, DepEdgeKind K) {
    Edges.push_back({From, To, K});
  };

  struct WalkItem {
    ExprId E;
    uint32_t Guard; // dep node of the innermost governing guard, or None
  };
  std::vector<WalkItem> Stack;
  if (M.root().isValid())
    Stack.push_back({M.root(), None});
  while (!Stack.empty()) {
    WalkItem Item = Stack.back();
    Stack.pop_back();
    const uint32_t N = nodeOfExpr(Item.E);
    if (!Reachable.insert(N))
      continue; // delta modules can share spliced subtrees
    if (Item.Guard != None)
      addEdge(N, Item.Guard, DepEdgeKind::Control);

    const Expr *E = M.expr(Item.E);
    switch (E->kind()) {
    case ExprKind::Var: {
      const VarExpr *V = cast<VarExpr>(E);
      uint32_t B = nodeOfVar(V->var());
      Reachable.insert(B);
      addEdge(N, B, DepEdgeKind::Bind);
      break;
    }
    case ExprKind::Lit:
      break;
    case ExprKind::Lam: {
      const LamExpr *L = cast<LamExpr>(E);
      Kinds[N] = DepNodeKind::Definition;
      uint32_t P = nodeOfVar(L->param());
      Reachable.insert(P);
      Kinds[P] = DepNodeKind::Formal;
      // The body is deferred: no structural Data edge, and the body's
      // innermost guard is the abstraction itself (it evaluates only
      // when the function is invoked).
      Stack.push_back({L->body(), N});
      break;
    }
    case ExprKind::App: {
      const AppExpr *A = cast<AppExpr>(E);
      Kinds[N] = DepNodeKind::Call;
      // Argument position refines a plain value-flow occurrence to
      // Actual; the argument's own shape kind (call/definition), set when
      // the walk reaches it, wins.
      if (uint32_t ArgN = nodeOfExpr(A->arg());
          Kinds[ArgN] == DepNodeKind::ValueFlow)
        Kinds[ArgN] = DepNodeKind::Actual;
      addEdge(N, nodeOfExpr(A->fn()), DepEdgeKind::Data);
      addEdge(N, nodeOfExpr(A->arg()), DepEdgeKind::Data);
      Stack.push_back({A->fn(), Item.Guard});
      Stack.push_back({A->arg(), Item.Guard});
      break;
    }
    case ExprKind::Let: {
      const LetExpr *L = cast<LetExpr>(E);
      Kinds[N] = DepNodeKind::Definition;
      uint32_t B = nodeOfVar(L->var());
      Reachable.insert(B);
      Kinds[B] = DepNodeKind::Definition;
      // Value/effect of the let is its body; the initializer is demanded
      // only through the binder (or an effect seed inside it).
      addEdge(N, nodeOfExpr(L->body()), DepEdgeKind::Data);
      Stack.push_back({L->init(), Item.Guard});
      Stack.push_back({L->body(), Item.Guard});
      break;
    }
    case ExprKind::LetRecN: {
      const LetRecNExpr *L = cast<LetRecNExpr>(E);
      Kinds[N] = DepNodeKind::Definition;
      for (const LetRecNExpr::Binding &B : L->bindings()) {
        uint32_t BN = nodeOfVar(B.Var);
        Reachable.insert(BN);
        Kinds[BN] = DepNodeKind::Definition;
        Stack.push_back({B.Init, Item.Guard});
      }
      addEdge(N, nodeOfExpr(L->body()), DepEdgeKind::Data);
      Stack.push_back({L->body(), Item.Guard});
      break;
    }
    case ExprKind::If: {
      const IfExpr *I = cast<IfExpr>(E);
      uint32_t CondN = nodeOfExpr(I->cond());
      addEdge(N, CondN, DepEdgeKind::Data);
      addEdge(N, nodeOfExpr(I->thenExpr()), DepEdgeKind::Data);
      addEdge(N, nodeOfExpr(I->elseExpr()), DepEdgeKind::Data);
      Stack.push_back({I->cond(), Item.Guard});
      Stack.push_back({I->thenExpr(), CondN});
      Stack.push_back({I->elseExpr(), CondN});
      break;
    }
    case ExprKind::Tuple:
      for (ExprId C : cast<TupleExpr>(E)->elems()) {
        addEdge(N, nodeOfExpr(C), DepEdgeKind::Data);
        Stack.push_back({C, Item.Guard});
      }
      break;
    case ExprKind::Proj: {
      ExprId C = cast<ProjExpr>(E)->tuple();
      addEdge(N, nodeOfExpr(C), DepEdgeKind::Data);
      Stack.push_back({C, Item.Guard});
      break;
    }
    case ExprKind::Con:
      for (ExprId C : cast<ConExpr>(E)->args()) {
        addEdge(N, nodeOfExpr(C), DepEdgeKind::Data);
        Stack.push_back({C, Item.Guard});
      }
      break;
    case ExprKind::Case: {
      const CaseExpr *C = cast<CaseExpr>(E);
      uint32_t ScrutN = nodeOfExpr(C->scrutinee());
      addEdge(N, ScrutN, DepEdgeKind::Data);
      Stack.push_back({C->scrutinee(), Item.Guard});
      for (const CaseArm &Arm : C->arms()) {
        for (VarId B : Arm.Binders) {
          uint32_t BN = nodeOfVar(B);
          Reachable.insert(BN);
          Kinds[BN] = DepNodeKind::Formal;
        }
        addEdge(N, nodeOfExpr(Arm.Body), DepEdgeKind::Data);
        Stack.push_back({Arm.Body, ScrutN});
      }
      break;
    }
    case ExprKind::Prim:
      for (ExprId C : cast<PrimExpr>(E)->args()) {
        addEdge(N, nodeOfExpr(C), DepEdgeKind::Data);
        Stack.push_back({C, Item.Guard});
      }
      break;
    }
  }

  // --- pass 2: congruence ties + the projected CSR contraction.
  //
  // Group entities by canonical frozen node.  For each group the first
  // entity is the representative: the projection BFS runs once per
  // canonical node and emits representative-to-representative Data
  // edges; co-located entities ride along through a Congr edge pair.
  const uint32_t NumFrozen = F.numNodes();
  std::vector<uint32_t> RepOf(NumFrozen, None); // frozen node -> rep entity
  auto tie = [&](uint32_t FN, uint32_t Ent) {
    if (FN == FrozenGraph::None || FN >= NumFrozen)
      return;
    if (RepOf[FN] == None) {
      RepOf[FN] = Ent;
    } else {
      addEdge(RepOf[FN], Ent, DepEdgeKind::Congr);
      addEdge(Ent, RepOf[FN], DepEdgeKind::Congr);
    }
  };
  for (uint32_t EIdx = 0; EIdx != NumExprs; ++EIdx)
    tie(F.nodeOfExpr(ExprId(EIdx)), EIdx);
  for (uint32_t VIdx = 0; VIdx != NumVars; ++VIdx)
    tie(F.nodeOfVar(VarId(VIdx)), NumExprs + VIdx);

  if (faultFires(fault::SliceAlloc))
    return Status::outOfMemory(
        "slice: dependence adjacency allocation failed (injected)");

  // Projection: BFS forward (successors — Proposition 1's producer
  // direction) from each representative's canonical node, stopping at
  // the first entity-carrying node on every path.  The contraction
  // preserves entity reachability: any frozen path between entity nodes
  // decomposes into hops between consecutive entity nodes on it.
  std::vector<uint32_t> Stamp(NumFrozen, None);
  std::vector<uint32_t> Queue;
  uint64_t Steps = 0;
  for (uint32_t FN = 0; FN != NumFrozen; ++FN) {
    uint32_t Rep = RepOf[FN];
    if (Rep == None)
      continue;
    Queue.clear();
    Queue.push_back(FN);
    Stamp[FN] = FN;
    for (size_t Head = 0; Head != Queue.size(); ++Head) {
      uint32_t Cur = Queue[Head];
      for (uint32_t Succ : F.succs(Cur)) {
        if (Stamp[Succ] == FN)
          continue;
        Stamp[Succ] = FN;
        if (RepOf[Succ] != None)
          addEdge(Rep, RepOf[Succ], DepEdgeKind::Data);
        else
          Queue.push_back(Succ);
      }
      if (++Steps % 4096 == 0) {
        if (Opts.Token.cancelled())
          return Status::cancelled("slice: dependence build cancelled");
        if (Opts.D.expired())
          return Status::deadlineExceeded(
              "slice: dependence build exceeded its deadline");
      }
    }
  }

  // --- pass 3: dedup + CSR, linear in entities + raw edges (no
  // comparison sort).  A stable counting sort on To and then one on From
  // leave every forward row ordered by To, so a repeated (From, To) pair
  // is adjacent: it keeps one slot and its most specific kind
  // (reachability is identical either way).
  const size_t NumRaw = Edges.size();
  std::vector<RawEdge> ByTo(NumRaw);
  std::vector<uint32_t> Cursor(NumEnts + 1, 0);
  for (const RawEdge &E : Edges)
    ++Cursor[E.To + 1];
  for (uint32_t I = 0; I != NumEnts; ++I)
    Cursor[I + 1] += Cursor[I];
  for (const RawEdge &E : Edges)
    ByTo[Cursor[E.To]++] = E;
  std::vector<RawEdge>().swap(Edges);

  FwdOffsets.assign(NumEnts + 1, 0);
  for (const RawEdge &E : ByTo)
    ++FwdOffsets[E.From + 1];
  for (uint32_t I = 0; I != NumEnts; ++I)
    FwdOffsets[I + 1] += FwdOffsets[I];
  FwdTargets.resize(NumRaw);
  FwdKinds.resize(NumRaw);
  Cursor.assign(FwdOffsets.begin(), FwdOffsets.end() - 1);
  for (const RawEdge &E : ByTo) {
    const uint32_t Slot = Cursor[E.From]++;
    FwdTargets[Slot] = E.To;
    FwdKinds[Slot] = E.Kind;
  }

  uint32_t Kept = 0;
  for (uint32_t N = 0; N != NumEnts; ++N) {
    const uint32_t Begin = FwdOffsets[N], End = FwdOffsets[N + 1];
    FwdOffsets[N] = Kept;
    for (uint32_t I = Begin; I != End; ++I) {
      const uint32_t To = FwdTargets[I];
      const DepEdgeKind K = FwdKinds[I];
      if (Kept == FwdOffsets[N] || FwdTargets[Kept - 1] != To) {
        FwdTargets[Kept] = To;
        FwdKinds[Kept++] = K;
      } else if (kindPriority(K) < kindPriority(FwdKinds[Kept - 1])) {
        FwdKinds[Kept - 1] = K;
      }
    }
  }
  FwdOffsets[NumEnts] = Kept;
  FwdTargets.resize(Kept);
  FwdKinds.resize(Kept);

  // The reverse CSR, filled row by row from the forward one, lists each
  // entity's users in ascending order.
  RevOffsets.assign(NumEnts + 1, 0);
  for (uint32_t To : FwdTargets)
    ++RevOffsets[To + 1];
  for (uint32_t I = 0; I != NumEnts; ++I)
    RevOffsets[I + 1] += RevOffsets[I];
  RevTargets.resize(Kept);
  RevKinds.resize(Kept);
  Cursor.assign(RevOffsets.begin(), RevOffsets.end() - 1);
  for (uint32_t From = 0; From != NumEnts; ++From)
    for (uint32_t I = FwdOffsets[From]; I != FwdOffsets[From + 1]; ++I) {
      const uint32_t Slot = Cursor[FwdTargets[I]]++;
      RevTargets[Slot] = From;
      RevKinds[Slot] = FwdKinds[I];
    }

  BuildMs = T.millis();
  NodeCount.add(NumEnts);
  EdgeCount.add(Kept);
  BuildMillis.observe(static_cast<uint64_t>(BuildMs));
  BuildSpan.arg("dep_nodes", NumEnts);
  BuildSpan.arg("dep_edges", Kept);
  BuildSpan.arg("raw_edges", NumRaw);
  BuildSpan.arg("projection_steps", Steps);
  return Status::ok();
}
