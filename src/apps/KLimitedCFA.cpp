//===-- apps/KLimitedCFA.cpp - Linear-time k-limited CFA ------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "apps/KLimitedCFA.h"

#include <algorithm>

using namespace stcfa;

bool LimitedSet::insert(uint32_t Id, uint32_t K) {
  if (Many)
    return false;
  auto It = std::lower_bound(Ids.begin(), Ids.end(), Id);
  if (It != Ids.end() && *It == Id)
    return false;
  if (Ids.size() >= K) {
    Many = true;
    Ids.clear();
    return true;
  }
  Ids.insert(It, Id);
  return true;
}

bool LimitedSet::mergeFrom(const LimitedSet &Other, uint32_t K) {
  if (Many)
    return false;
  if (Other.Many) {
    Many = true;
    Ids.clear();
    return true;
  }
  bool Changed = false;
  for (uint32_t Id : Other.Ids) {
    Changed |= insert(Id, K);
    if (Many)
      return true;
  }
  return Changed;
}

//===----------------------------------------------------------------------===//
// KLimitedCFA
//===----------------------------------------------------------------------===//

KLimitedCFA::KLimitedCFA(const Module &M, const FrozenGraph &F, uint32_t K)
    : F(F), M(M), K(K), Ann(F.numNodes()) {
  assert(M.numExprs() == F.numExprs() && "module/snapshot shape mismatch");
}

void KLimitedCFA::run() {
  assert(!HasRun && "run() called twice");
  HasRun = true;

  // Seed: every node carrying a label knows at least itself; propagate
  // against the edges (a predecessor's set contains its successors').
  std::vector<uint32_t> Worklist;
  for (uint32_t N = 0, E = F.numNodes(); N != E; ++N) {
    if (uint32_t L = F.labelAt(N); L != FrozenGraph::None) {
      Ann[N].insert(L, K);
      Worklist.push_back(N);
    }
  }
  while (!Worklist.empty()) {
    uint32_t N = Worklist.back();
    Worklist.pop_back();
    for (uint32_t P : F.preds(N)) {
      ++Updates;
      if (Ann[P].mergeFrom(Ann[N], K))
        Worklist.push_back(P);
    }
  }
}

const LimitedSet &KLimitedCFA::ofExpr(ExprId E) const {
  assert(HasRun && "query before run()");
  uint32_t N = F.nodeOfExpr(E);
  return N != FrozenGraph::None ? Ann[N] : Empty;
}

const LimitedSet &KLimitedCFA::ofVar(VarId V) const {
  assert(HasRun && "query before run()");
  uint32_t N = F.nodeOfVar(V);
  return N != FrozenGraph::None ? Ann[N] : Empty;
}

const LimitedSet &KLimitedCFA::ofCallSite(ExprId App) const {
  const auto *A = cast<AppExpr>(M.expr(App));
  return ofExpr(A->fn());
}

//===----------------------------------------------------------------------===//
// CalledOnceAnalysis
//===----------------------------------------------------------------------===//

namespace {

/// A called-once cell: no call site yet, one site's `AppExpr` id, or
/// many — the 1-limited `LimitedSet` lattice in one word.
constexpr uint32_t NoSite = ~0u, ManySites = ~0u - 1;

/// Joins \p Src into \p Dst; returns true iff \p Dst changed.
bool joinSite(uint32_t &Dst, uint32_t Src) {
  if (Dst == ManySites || Src == NoSite || Dst == Src)
    return false;
  Dst = Dst == NoSite ? Src : ManySites;
  return true;
}

} // namespace

CalledOnceAnalysis::CalledOnceAnalysis(const Module &M, const FrozenGraph &F)
    : F(F), M(M), Result(M.numLabels(), CallCount::Never),
      Site(M.numLabels(), ExprId::invalid()) {
  assert(M.numLabels() == F.numLabels() && "module/snapshot shape mismatch");
  assert(M.numExprs() < ManySites && "site ids collide with the sentinels");
}

Status CalledOnceAnalysis::run(const Deadline &D,
                               const CancellationToken &Token) {
  assert(!HasRun && "run() called twice");
  HasRun = true;

  // 1-limited call-site markers flowing with the edges.
  std::vector<uint32_t> Marks(F.numNodes(), NoSite);
  std::vector<uint32_t> Worklist;
  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    const auto *A = dyn_cast<AppExpr>(E);
    if (!A)
      return;
    uint32_t Fn = F.nodeOfExpr(A->fn());
    if (Fn == FrozenGraph::None)
      return;
    if (joinSite(Marks[Fn], Id.index()) || Marks[Fn] == ManySites)
      Worklist.push_back(Fn);
  });
  constexpr uint64_t Stride = 4096;
  uint64_t Pops = 0;
  RunStatus = Status::ok();
  while (!Worklist.empty()) {
    if (Pops++ % Stride == 0) {
      if (Token.cancelled()) {
        RunStatus = Status::cancelled("called-once analysis cancelled");
        break;
      }
      if (D.expired()) {
        RunStatus = Status::deadlineExceeded(
            "called-once analysis exceeded its deadline");
        break;
      }
    }
    uint32_t N = Worklist.back();
    Worklist.pop_back();
    for (uint32_t S : F.succs(N))
      if (joinSite(Marks[S], Marks[N]))
        Worklist.push_back(S);
  }

  // Summarise whatever marker flow completed; on an aborted propagation
  // the counts are an under-approximation and RunStatus says so.
  for (uint32_t L = 0, E = M.numLabels(); L != E; ++L) {
    uint32_t Total = NoSite;
    // The lambda's own node, plus the closure-inert label node through
    // which polyvariant instantiations attach the label: markers on
    // either count.
    auto [Lam, Carrier] = F.labelRoots(LabelId(L));
    if (Lam != FrozenGraph::None)
      joinSite(Total, Marks[Lam]);
    if (Carrier != FrozenGraph::None)
      joinSite(Total, Marks[Carrier]);
    if (Total == ManySites) {
      Result[L] = CallCount::Many;
    } else if (Total != NoSite) {
      Result[L] = CallCount::Once;
      Site[L] = ExprId(Total);
    }
  }
  return RunStatus;
}

std::vector<LabelId> CalledOnceAnalysis::calledOnce() const {
  assert(HasRun && "query before run()");
  std::vector<LabelId> Out;
  for (uint32_t L = 0, E = M.numLabels(); L != E; ++L)
    if (Result[L] == CallCount::Once)
      Out.push_back(LabelId(L));
  return Out;
}
