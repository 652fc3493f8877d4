//===-- poly/Polyvariant.cpp - Section 7 polyvariant extension ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "poly/Polyvariant.h"

#include <unordered_map>
#include <unordered_set>

using namespace stcfa;

PolyvariantCFA::PolyvariantCFA(const Module &M,
                               SubtransitiveConfig GraphConfig,
                               PolyConfig Config)
    : M(M), GraphConfig(GraphConfig), Config(Config) {}

std::vector<VarId> PolyvariantCFA::freeVarsOf(ExprId Lam) const {
  std::unordered_set<uint32_t> Bound;
  std::unordered_set<uint32_t> Seen;
  std::vector<VarId> Free;
  forEachExprPreorder(M, Lam, [&](ExprId, const Expr *E) {
    switch (E->kind()) {
    case ExprKind::Lam:
      Bound.insert(cast<LamExpr>(E)->param().index());
      break;
    case ExprKind::Let:
      Bound.insert(cast<LetExpr>(E)->var().index());
      break;
    case ExprKind::Case:
      for (const CaseArm &Arm : cast<CaseExpr>(E)->arms())
        for (VarId B : Arm.Binders)
          Bound.insert(B.index());
      break;
    case ExprKind::Var: {
      uint32_t V = cast<VarExpr>(E)->var().index();
      if (!Bound.count(V) && Seen.insert(V).second)
        Free.push_back(VarId(V));
      break;
    }
    default:
      break;
    }
  });
  return Free;
}

bool PolyvariantCFA::enumeratePaths(TypeId Ty, VarId Shared,
                                    std::vector<Summary::Step> &Prefix,
                                    Summary &S) const {
  if (S.Anchors.size() >= Config.MaxSummaryPaths)
    return false;
  S.Anchors.push_back({Shared, Prefix});
  if (!Ty.isValid())
    return true; // unresolved leaf: sound, context flows pass through
  const TypeTable &TT = M.types();
  const Type &T = TT.type(Ty);
  switch (T.Kind) {
  case TypeKind::Arrow:
    Prefix.push_back({NodeOp::Dom, 0});
    if (!enumeratePaths(TT.arg(T, 0), Shared, Prefix, S))
      return false;
    Prefix.back() = {NodeOp::Ran, 0};
    if (!enumeratePaths(TT.arg(T, 1), Shared, Prefix, S))
      return false;
    Prefix.pop_back();
    return true;
  case TypeKind::Tuple:
    for (uint32_t I = 0; I != T.NumArgs; ++I) {
      Prefix.push_back({NodeOp::Field, I});
      if (!enumeratePaths(TT.arg(T, I), Shared, Prefix, S))
        return false;
      Prefix.pop_back();
    }
    return true;
  case TypeKind::Data:
  case TypeKind::Ref:
    // Datatype contents are congruence-merged and ref cells must not be
    // split per instance; disqualify (monovariant fallback).
    return false;
  case TypeKind::Int:
  case TypeKind::Bool:
  case TypeKind::Unit:
  case TypeKind::String:
  case TypeKind::Var:
    return true;
  }
  assert(false && "unknown type kind");
  return false;
}

NodeId PolyvariantCFA::materializePath(
    SubtransitiveGraph &G, NodeId Anchor,
    const std::vector<Summary::Step> &Path) const {
  NodeId N = Anchor;
  for (const Summary::Step &Step : Path) {
    switch (Step.Op) {
    case NodeOp::Dom:
      N = G.domNode(N);
      break;
    case NodeOp::Ran:
      N = G.ranNode(N);
      break;
    case NodeOp::Field:
      N = G.tupleFieldNode(Step.Tag, N);
      break;
    default:
      assert(false && "unexpected path step");
    }
  }
  return N;
}

bool PolyvariantCFA::summarize(ExprId Lam, Summary &S) const {
  // Analyse the function in isolation first — the fragment graph also
  // supplies the binder types of the free variables (shared anchors).
  SubtransitiveGraph Fragment(M, GraphConfig);
  Fragment.buildFragment(Lam);
  NodeId Root = Fragment.exprNode(Lam);

  {
    std::vector<Summary::Step> Prefix;
    if (!enumeratePaths(M.expr(Lam)->type(), VarId::invalid(), Prefix, S))
      return false;
    // Shared anchors: the type template over every free-variable binder.
    // Forcing them demanded saturates all flows between context-visible
    // points, exactly as for the root's own paths.
    for (VarId Free : freeVarsOf(Lam)) {
      NodeId Binder = Fragment.varNode(Free);
      if (!enumeratePaths(Fragment.nodeType(Binder), Free, Prefix, S))
        return false;
    }
  }

  std::vector<NodeId> AnchorNodes;
  AnchorNodes.reserve(S.Anchors.size());
  for (const Summary::Anchor &A : S.Anchors) {
    NodeId Base =
        A.Shared.isValid() ? Fragment.varNode(A.Shared) : Root;
    NodeId N = materializePath(Fragment, Base, A.Path);
    Fragment.forceDemand(N);
    AnchorNodes.push_back(N);
  }
  Fragment.close();

  // Interface reachability: which anchors and which internal labels does
  // each anchor reach?  (Plain DFS; fragments are small.)
  std::unordered_map<uint32_t, uint32_t> AnchorIndexOfNode;
  for (uint32_t I = 0; I != AnchorNodes.size(); ++I)
    AnchorIndexOfNode.emplace(AnchorNodes[I].index(), I);

  std::vector<bool> Seen;
  std::vector<NodeId> Stack;
  for (uint32_t P = 0; P != AnchorNodes.size(); ++P) {
    Seen.assign(Fragment.numNodes(), false);
    Stack.assign(1, AnchorNodes[P]);
    Seen[AnchorNodes[P].index()] = true;
    while (!Stack.empty()) {
      NodeId N = Stack.back();
      Stack.pop_back();
      if (LabelId L = Fragment.labelOf(N); L.isValid())
        S.AnchorLabels.emplace_back(P, L);
      if (auto It = AnchorIndexOfNode.find(N.index());
          It != AnchorIndexOfNode.end() && It->second != P)
        S.Edges.emplace_back(P, It->second);
      for (NodeId Succ : Fragment.succs(N)) {
        if (Seen[Succ.index()])
          continue;
        Seen[Succ.index()] = true;
        Stack.push_back(Succ);
      }
    }
  }
  return true;
}

void PolyvariantCFA::instantiate(const Summary &S, NodeId Anchor) {
  ++Stats.Instantiations;
  auto nodeOf = [&](uint32_t Index) {
    const Summary::Anchor &A = S.Anchors[Index];
    NodeId Base = A.Shared.isValid() ? Main->varNode(A.Shared) : Anchor;
    return materializePath(*Main, Base, A.Path);
  };
  for (auto [From, To] : S.Edges)
    Main->addEdge(nodeOf(From), nodeOf(To));
  for (auto [Index, L] : S.AnchorLabels)
    Main->addEdge(nodeOf(Index), Main->labelNode(L));
}

void PolyvariantCFA::run() {
  assert(!HasRun && "run() called twice");
  HasRun = true;

  // Occurrence lists per binder.
  std::vector<std::vector<ExprId>> OccurrencesOf(M.numVars());
  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    if (const auto *V = dyn_cast<VarExpr>(E))
      OccurrencesOf[V->var().index()].push_back(Id);
  });

  // Select candidates and build their summaries.
  struct Candidate {
    VarId Var;
    Summary S;
  };
  std::vector<Candidate> Candidates;
  std::vector<bool> Externalized(M.numVars(), false);
  forEachExprPreorder(M, M.root(), [&](ExprId, const Expr *E) {
    const auto *L = dyn_cast<LetExpr>(E);
    if (!L || L->isRec() || !isa<LamExpr>(M.expr(L->init())))
      return;
    ++Stats.Candidates;
    if (OccurrencesOf[L->var().index()].size() > Config.MaxOccurrences) {
      ++Stats.Fallbacks;
      return;
    }
    Candidate C;
    C.Var = L->var();
    if (!summarize(L->init(), C.S)) {
      ++Stats.Fallbacks;
      return;
    }
    ++Stats.Summarized;
    Externalized[L->var().index()] = true;
    Candidates.push_back(std::move(C));
  });

  // Main graph: candidate def-use flow is externalized, everything else is
  // the ordinary monovariant build.
  Main = std::make_unique<SubtransitiveGraph>(M, GraphConfig);
  Main->setExternalizedVars(std::move(Externalized));
  Main->build();

  // Instantiate each candidate at every occurrence, plus once at the
  // binder itself: the binder-anchored instance serves uses through
  // *other* candidates' shared anchors and keeps `L(f)` populated.
  for (const Candidate &C : Candidates) {
    for (ExprId Occ : OccurrencesOf[C.Var.index()])
      instantiate(C.S, Main->exprNode(Occ));
    instantiate(C.S, Main->varNode(C.Var));
  }

  Main->close();
}
