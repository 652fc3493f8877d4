//===-- apps/EffectsAnalysis.cpp - Linear-time effects analysis -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/EffectsAnalysis.h"

#include "analysis/StandardCFA.h"

using namespace stcfa;

EffectsAnalysis::EffectsAnalysis(const Module &M, const FrozenGraph &F)
    : F(F), M(M), RedExpr(M.numExprs(), false), RedNode(F.numNodes(), false) {
  assert(M.numExprs() == F.numExprs() && "module/snapshot shape mismatch");
}

namespace {

/// Fills the CSR \p Offsets / \p Values over \p NumKeys keys from
/// (key, value) \p Pairs with one counting pass; each row keeps the
/// pairs' order.
void fillCsr(const std::vector<std::pair<uint32_t, ExprId>> &Pairs,
             uint32_t NumKeys, std::vector<uint32_t> &Offsets,
             std::vector<ExprId> &Values) {
  Offsets.assign(NumKeys + 1, 0);
  for (const auto &[Key, V] : Pairs)
    ++Offsets[Key + 1];
  for (uint32_t K = 0; K != NumKeys; ++K)
    Offsets[K + 1] += Offsets[K];
  Values.resize(Pairs.size());
  std::vector<uint32_t> Cursor(Offsets.begin(), Offsets.end() - 1);
  for (const auto &[Key, V] : Pairs)
    Values[Cursor[Key]++] = V;
}

} // namespace

void EffectsAnalysis::markExpr(ExprId E) {
  if (RedExpr[E.index()])
    return;
  RedExpr[E.index()] = true;
  ++NumRed;
  ExprWorklist.push_back(E);
  if (uint32_t N = F.nodeOfExpr(E); N != FrozenGraph::None)
    markNode(N);
}

void EffectsAnalysis::markNode(uint32_t N) {
  if (RedNode[N])
    return;
  RedNode[N] = true;
  NodeWorklist.push_back(N);
}

Status EffectsAnalysis::run(const Deadline &D, const CancellationToken &Token) {
  assert(!HasRun && "run() called twice");
  HasRun = true;

  // One linear pass: seed the side-effecting primitives and record the
  // structural dependencies child -> parent (skipping lambda bodies) plus
  // the app -> ran(operator) registrations, then lay both out as CSR.
  std::vector<std::pair<uint32_t, ExprId>> ChildParent, RanApp;
  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    if (!isa<LamExpr>(E))
      forEachChild(E,
                   [&](ExprId C) { ChildParent.push_back({C.index(), Id}); });
    if (const auto *P = dyn_cast<PrimExpr>(E)) {
      if (isEffectfulPrim(P->op()))
        markExpr(Id);
    }
    if (const auto *A = dyn_cast<AppExpr>(E)) {
      if (uint32_t Fn = F.nodeOfExpr(A->fn()); Fn != FrozenGraph::None) {
        // APP-2 created ran(fn) during the build phase.
        if (uint32_t Ran = F.ranOf(Fn); Ran != FrozenGraph::None)
          RanApp.push_back({Ran, Id});
      }
    }
  });
  // Expression -> expressions whose redness it implies, and ran-node ->
  // application sites registered on it.
  std::vector<uint32_t> ParentOffsets, AppOffsets;
  std::vector<ExprId> Parents, AppsOnRan;
  fillCsr(ChildParent, M.numExprs(), ParentOffsets, Parents);
  fillCsr(RanApp, F.numNodes(), AppOffsets, AppsOnRan);

  // Fixpoint: redness flows from children to parents, and backwards along
  // graph edges into ran-nodes (the paper's rule (b)).  Each pop is a few
  // vector scans, so the governor checkpoint runs every `Stride` pops.
  constexpr uint64_t Stride = 4096;
  uint64_t Pops = 0;
  while (!ExprWorklist.empty() || !NodeWorklist.empty()) {
    if (Pops++ % Stride == 0) {
      if (Token.cancelled())
        return RunStatus = Status::cancelled("effects analysis cancelled");
      if (D.expired())
        return RunStatus = Status::deadlineExceeded(
                   "effects analysis exceeded its deadline");
    }
    if (!ExprWorklist.empty()) {
      ExprId E = ExprWorklist.back();
      ExprWorklist.pop_back();
      for (uint32_t I = ParentOffsets[E.index()];
           I != ParentOffsets[E.index() + 1]; ++I)
        markExpr(Parents[I]);
      continue;
    }
    uint32_t N = NodeWorklist.back();
    NodeWorklist.pop_back();
    // Rule (b): a ran-node with an edge to a red node is red.
    for (uint32_t P : F.preds(N))
      if (F.op(P) == NodeOp::Ran)
        markNode(P);
    // Rule (a), third disjunct: a call site whose ran(operator) is red.
    if (F.op(N) == NodeOp::Ran)
      for (uint32_t I = AppOffsets[N]; I != AppOffsets[N + 1]; ++I)
        markExpr(AppsOnRan[I]);
  }
  return RunStatus = Status::ok();
}

//===----------------------------------------------------------------------===//
// Reference implementation over standard CFA
//===----------------------------------------------------------------------===//

EffectsAnalysisRef::EffectsAnalysisRef(const Module &M, const StandardCFA &CFA)
    : M(M), CFA(CFA), Red(M.numExprs(), false) {}

void EffectsAnalysisRef::run() {
  // Naive fixpoint: iterate the syntactic rules over the full label-set
  // representation until nothing changes.
  bool Changed = true;
  auto mark = [&](ExprId E) {
    if (Red[E.index()])
      return;
    Red[E.index()] = true;
    ++NumRed;
    Changed = true;
  };

  while (Changed) {
    Changed = false;
    forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
      if (Red[Id.index()])
        return;
      if (const auto *P = dyn_cast<PrimExpr>(E)) {
        if (isEffectfulPrim(P->op())) {
          mark(Id);
          return;
        }
      }
      // Evaluated children.
      bool ChildRed = false;
      if (!isa<LamExpr>(E))
        forEachChild(E, [&](ExprId C) { ChildRed |= Red[C.index()]; });
      if (ChildRed) {
        mark(Id);
        return;
      }
      // A call site is red when any callee body is red.
      if (const auto *A = dyn_cast<AppExpr>(E)) {
        bool CalleeRed = false;
        CFA.labelSet(A->fn()).forEach([&](uint32_t L) {
          const auto *Lam = cast<LamExpr>(M.expr(M.lamOfLabel(LabelId(L))));
          CalleeRed |= Red[Lam->body().index()];
        });
        if (CalleeRed)
          mark(Id);
      }
    });
  }
}
