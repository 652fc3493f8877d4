//===-- core/Reachability.cpp - Graph-reachability CFA queries ------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "core/Reachability.h"

#include <algorithm>

using namespace stcfa;

Reachability::Reachability(const SubtransitiveGraph &G)
    : G(G), M(G.module()), Stamp(G.numNodes(), 0) {}

bool Reachability::usable() const {
  // Checked dynamically rather than at construction: an aborted graph
  // must answer empty even if the abort happened after this engine was
  // created (the incremental close path).
  if (!G.aborted())
    return true;
  assert(false && "querying an aborted graph");
  QueryStatus = Status::failedPrecondition(
      "query on an aborted graph: " + G.closeStatus().toString());
  return false;
}

void Reachability::bumpEpoch() {
  // When the 32-bit epoch wraps, stale stamps from 2^32 queries ago
  // would alias the new epoch; reset them all once and restart from 1.
  if (++Epoch == 0) {
    std::fill(Stamp.begin(), Stamp.end(), 0);
    Epoch = 1;
  }
}

template <typename FnT>
void Reachability::forEachReachable(NodeId Start, FnT Fn) {
  bumpEpoch();
  Stack.clear();
  Stack.push_back(Start);
  Stamp[Start.index()] = Epoch;
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    ++Visited;
    if (!Fn(N))
      return;
    for (NodeId S : G.succs(N)) {
      if (Stamp[S.index()] == Epoch)
        continue;
      Stamp[S.index()] = Epoch;
      Stack.push_back(S);
    }
  }
}

bool Reachability::isLabelIn(ExprId E, LabelId L) {
  if (!usable())
    return false;
  NodeId Start = G.lookupExprNode(E);
  if (!Start.isValid())
    return false;
  bool Found = false;
  forEachReachable(Start, [&](NodeId N) {
    if (G.labelOf(N) == L) {
      Found = true;
      return false; // stop the search
    }
    return true;
  });
  return Found;
}

DenseBitset Reachability::labelsOfNode(NodeId N) {
  DenseBitset Out(M.numLabels());
  if (!usable())
    return Out;
  forEachReachable(N, [&](NodeId R) {
    if (LabelId L = G.labelOf(R); L.isValid())
      Out.insert(L.index());
    return true;
  });
  return Out;
}

DenseBitset Reachability::labelsOf(ExprId E) {
  if (!usable())
    return DenseBitset(M.numLabels());
  NodeId Start = G.lookupExprNode(E);
  if (!Start.isValid())
    return DenseBitset(M.numLabels());
  return labelsOfNode(Start);
}

DenseBitset Reachability::labelsOfVar(VarId V) {
  if (!usable())
    return DenseBitset(M.numLabels());
  NodeId Start = G.lookupVarNode(V);
  if (!Start.isValid())
    return DenseBitset(M.numLabels());
  return labelsOfNode(Start);
}

std::vector<ExprId> Reachability::occurrencesOf(LabelId L) {
  std::vector<ExprId> Out;
  if (!usable())
    return Out;
  // Polyvariant instantiations carry labels on separate `Label` nodes, so
  // the reverse search starts from both.
  bumpEpoch();
  Stack.clear();
  for (NodeId Root : {G.lookupExprNode(M.lamOfLabel(L)),
                      G.lookupLabelNode(L)}) {
    if (!Root.isValid())
      continue;
    Stack.push_back(Root);
    Stamp[Root.index()] = Epoch;
  }
  if (Stack.empty())
    return Out;
  while (!Stack.empty()) {
    NodeId N = Stack.back();
    Stack.pop_back();
    ++Visited;
    for (NodeId P : G.preds(N)) {
      if (Stamp[P.index()] == Epoch)
        continue;
      Stamp[P.index()] = Epoch;
      Stack.push_back(P);
    }
  }

  // A congruence summary node may stand for many occurrences, so map
  // expressions to their canonical nodes rather than the reverse.
  for (uint32_t I = 0, E = M.numExprs(); I != E; ++I) {
    NodeId N = G.lookupExprNode(ExprId(I));
    if (N.isValid() && Stamp[N.index()] == Epoch)
      Out.push_back(ExprId(I));
  }
  return Out;
}
