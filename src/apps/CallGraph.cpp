//===-- apps/CallGraph.cpp - Call-graph construction ----------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/CallGraph.h"

using namespace stcfa;

CallGraph::CallGraph(const Module &M, QueryEngine &Engine)
    : M(M), Engine(Engine) {
  Callees.assign(numCallers(), DenseBitset(M.numLabels()));
  Sites.resize(numCallers());
}

void CallGraph::run() {
  assert(!HasRun && "run() called twice");
  HasRun = true;

  // Attribute every occurrence to its innermost enclosing abstraction
  // with one pass (recursion on lambda bodies carries the owner down).
  std::vector<uint32_t> OwnerOf(M.numExprs(), rootIndex());
  std::vector<std::pair<ExprId, uint32_t>> Stack{{M.root(), rootIndex()}};
  while (!Stack.empty()) {
    auto [Id, Owner] = Stack.back();
    Stack.pop_back();
    OwnerOf[Id.index()] = Owner;
    const Expr *E = M.expr(Id);
    uint32_t ChildOwner =
        isa<LamExpr>(E) ? cast<LamExpr>(E)->label().index() : Owner;
    forEachChild(E, [&, CO = ChildOwner](ExprId C) {
      Stack.emplace_back(C, CO);
    });
  }

  // Collect all call sites first so the engine answers them as one batch
  // (sharded across its thread pool).
  std::vector<ExprId> Operators;
  std::vector<uint32_t> Owners;
  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    const auto *App = dyn_cast<AppExpr>(E);
    if (!App)
      return;
    uint32_t Owner = OwnerOf[Id.index()];
    Sites[Owner].push_back(Id);
    Operators.push_back(App->fn());
    Owners.push_back(Owner);
  });

  std::vector<DenseBitset> Sets = Engine.labelsOfBatch(Operators);
  for (size_t I = 0; I != Sets.size(); ++I)
    Callees[Owners[I]].unionWith(Sets[I]);
}

DenseBitset CallGraph::reachableFunctions() const {
  assert(HasRun && "query before run()");
  DenseBitset Reached(M.numLabels());
  std::vector<uint32_t> Worklist{rootIndex()};
  while (!Worklist.empty()) {
    uint32_t Caller = Worklist.back();
    Worklist.pop_back();
    Callees[Caller].forEach([&](uint32_t L) {
      if (Reached.insert(L))
        Worklist.push_back(L);
    });
  }
  return Reached;
}

std::vector<LabelId> CallGraph::deadFunctions() const {
  DenseBitset Reached = reachableFunctions();
  std::vector<LabelId> Out;
  for (uint32_t L = 0; L != M.numLabels(); ++L)
    if (!Reached.contains(L))
      Out.push_back(LabelId(L));
  return Out;
}
