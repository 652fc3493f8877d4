//===-- tests/slice_test.cpp - Dependence graph, slicer, export -----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The slice subsystem's unit and differential tier:
///
///  * taxonomy — node kinds and the four edge derivations on handwritten
///    programs with known shapes;
///  * adjacency invariants — the forward and reverse CSR describe the
///    same edge multiset, every `Bind` edge lands on the occurrence's
///    actual binder, and both CSRs equal, element for element, the ones
///    a comparison sort + unique over the raw edges produces (witness
///    choice and `--export-deps` bytes depend on row order);
///  * slicing — golden member sets, backward/forward duality, witness
///    chains validated hop by hop, and the `slice.witness-corrupt`
///    canary proving the validation rejects a broken parent structure;
///  * differential — slice membership must equal an independent
///    set-based BFS closure over the same adjacency, across the
///    generator corpus;
///  * governor — expired deadlines and cancelled tokens yield partial
///    under-approximations (slices) or a null build (graphs), never a
///    crash;
///  * export — DOT output passes the graphviz-free validator, tampered
///    DOT is rejected, and the JSON document parses with the daemon's
///    own parser.
///
//===----------------------------------------------------------------------===//

#include "slice/DeadCode.h"
#include "slice/Export.h"
#include "slice/Slicer.h"

#include "core/SubtransitiveGraph.h"
#include "delta/DeltaSession.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "serve/Epoch.h"
#include "serve/Json.h"
#include "support/FaultInjection.h"
#include "testgen/ShapeGen.h"

#include "TestUtil.h"

#include <algorithm>
#include <set>
#include <tuple>
#include <type_traits>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

/// Everything the slice subsystem consumes, built from source once.
struct Pipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
  std::unique_ptr<DependenceGraph> DG;
};

Pipeline buildPipeline(std::string_view Source) {
  Pipeline P;
  P.M = parseMaybeInfer(Source);
  if (!P.M)
    return P;
  P.G = std::make_unique<SubtransitiveGraph>(*P.M, SubtransitiveConfig{});
  P.G->build();
  P.G->close();
  EXPECT_TRUE(P.G->closed() && !P.G->aborted());
  P.F = std::make_unique<FrozenGraph>(*P.G);
  EXPECT_TRUE(P.F->status().isOk());
  Status BS;
  P.DG = DependenceGraph::build(*P.M, *P.F, BS);
  EXPECT_NE(P.DG, nullptr) << BS.message();
  return P;
}

/// First occurrence of kind \p K in id order; fails when absent.
template <typename T> ExprId firstOfKind(const Module &M) {
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    if (isa<T>(M.expr(ExprId(I))))
      return ExprId(I);
  ADD_FAILURE() << "no expression of the requested kind";
  return ExprId::invalid();
}

/// Independent reference: plain set-based BFS closure over the same
/// adjacency the slicer walks, with none of its bookkeeping (no mark
/// bitset, no parent recording, no governor).
std::set<uint32_t> naiveClosure(const DependenceGraph &DG, ExprId Target,
                                SliceDirection Dir) {
  std::set<uint32_t> Seen;
  std::vector<uint32_t> Work{DG.nodeOfExpr(Target)};
  Seen.insert(Work[0]);
  while (!Work.empty()) {
    uint32_t Cur = Work.back();
    Work.pop_back();
    auto Next = Dir == SliceDirection::Backward ? DG.deps(Cur) : DG.users(Cur);
    for (uint32_t N : Next)
      if (Seen.insert(N).second)
        Work.push_back(N);
  }
  return Seen;
}

/// The slicer's expression members as a sorted id set.
std::set<uint32_t> memberSet(const SliceResult &R) {
  std::set<uint32_t> Out;
  for (ExprId E : R.Exprs)
    Out.insert(E.index());
  return Out;
}

void expectSliceMatchesNaive(const Pipeline &P, ExprId Target,
                             SliceDirection Dir) {
  Slicer Sl(*P.DG);
  SliceOptions SO;
  SO.Dir = Dir;
  SliceResult R = Sl.sliceFrom(Target, SO);
  ASSERT_TRUE(R.S.isOk()) << R.S.message();
  EXPECT_FALSE(R.Partial);

  std::set<uint32_t> Ref;
  for (uint32_t N : naiveClosure(*P.DG, Target, Dir))
    if (P.DG->isExprNode(N))
      Ref.insert(N);
  EXPECT_EQ(memberSet(R), Ref)
      << sliceDirectionName(Dir) << " slice of expr " << Target.index();
  // Members are reported sorted and include the target.
  EXPECT_TRUE(std::is_sorted(R.Exprs.begin(), R.Exprs.end(),
                             [](ExprId A, ExprId B) {
                               return A.index() < B.index();
                             }));
  EXPECT_TRUE(R.Marked.contains(P.DG->nodeOfExpr(Target)));
}

/// The dependence CSR as a comparison sort + unique over the raw edges
/// lays it out: rows by source, each row by target, the most specific
/// kind kept for a repeated pair, and the reverse CSR filled in that
/// order.  An independent re-derivation of every edge the build emits,
/// and of every node kind.
struct ReferenceCsr {
  std::vector<uint32_t> FwdOffsets, FwdTargets, RevOffsets, RevTargets;
  std::vector<DepEdgeKind> FwdKinds, RevKinds;
  std::vector<DepNodeKind> Kinds;
};

ReferenceCsr referenceCsr(const Module &M, const FrozenGraph &F) {
  struct RawEdge {
    uint32_t From, To;
    DepEdgeKind Kind;
  };
  constexpr uint32_t None = DependenceGraph::None;
  const uint32_t NumExprs = M.numExprs(), NumVars = M.numVars();
  const uint32_t NumEnts = NumExprs + NumVars;
  auto ofVar = [&](VarId V) { return NumExprs + V.index(); };
  ReferenceCsr R;
  R.Kinds.assign(NumEnts, DepNodeKind::ValueFlow);
  std::vector<RawEdge> Edges;
  auto add = [&](uint32_t From, uint32_t To, DepEdgeKind K) {
    Edges.push_back({From, To, K});
  };

  // Structural, control and bind edges, one preorder walk from the root
  // carrying the innermost guard.
  std::vector<char> Seen(NumExprs, 0);
  std::vector<std::pair<ExprId, uint32_t>> Stack;
  if (M.root().isValid())
    Stack.push_back({M.root(), None});
  while (!Stack.empty()) {
    auto [Id, Guard] = Stack.back();
    Stack.pop_back();
    const uint32_t N = Id.index();
    if (Seen[N])
      continue;
    Seen[N] = 1;
    if (Guard != None)
      add(N, Guard, DepEdgeKind::Control);
    const Expr *E = M.expr(Id);
    auto data = [&](ExprId C, uint32_t G) {
      add(N, C.index(), DepEdgeKind::Data);
      Stack.push_back({C, G});
    };
    if (const auto *V = dyn_cast<VarExpr>(E)) {
      add(N, ofVar(V->var()), DepEdgeKind::Bind);
    } else if (const auto *L = dyn_cast<LamExpr>(E)) {
      R.Kinds[N] = DepNodeKind::Definition;
      R.Kinds[ofVar(L->param())] = DepNodeKind::Formal;
      Stack.push_back({L->body(), N});
    } else if (const auto *A = dyn_cast<AppExpr>(E)) {
      R.Kinds[N] = DepNodeKind::Call;
      data(A->fn(), Guard);
      data(A->arg(), Guard);
    } else if (const auto *L = dyn_cast<LetExpr>(E)) {
      R.Kinds[N] = R.Kinds[ofVar(L->var())] = DepNodeKind::Definition;
      add(N, L->body().index(), DepEdgeKind::Data);
      Stack.push_back({L->init(), Guard});
      Stack.push_back({L->body(), Guard});
    } else if (const auto *L = dyn_cast<LetRecNExpr>(E)) {
      R.Kinds[N] = DepNodeKind::Definition;
      for (const LetRecNExpr::Binding &B : L->bindings()) {
        R.Kinds[ofVar(B.Var)] = DepNodeKind::Definition;
        Stack.push_back({B.Init, Guard});
      }
      data(L->body(), Guard);
    } else if (const auto *I = dyn_cast<IfExpr>(E)) {
      const uint32_t Cond = I->cond().index();
      add(N, Cond, DepEdgeKind::Data);
      add(N, I->thenExpr().index(), DepEdgeKind::Data);
      add(N, I->elseExpr().index(), DepEdgeKind::Data);
      Stack.push_back({I->cond(), Guard});
      Stack.push_back({I->thenExpr(), Cond});
      Stack.push_back({I->elseExpr(), Cond});
    } else if (const auto *T = dyn_cast<TupleExpr>(E)) {
      for (ExprId C : T->elems())
        data(C, Guard);
    } else if (const auto *P = dyn_cast<ProjExpr>(E)) {
      data(P->tuple(), Guard);
    } else if (const auto *C = dyn_cast<ConExpr>(E)) {
      for (ExprId A : C->args())
        data(A, Guard);
    } else if (const auto *C = dyn_cast<CaseExpr>(E)) {
      const uint32_t Scrut = C->scrutinee().index();
      data(C->scrutinee(), Guard);
      for (const CaseArm &Arm : C->arms()) {
        for (VarId B : Arm.Binders)
          R.Kinds[ofVar(B)] = DepNodeKind::Formal;
        add(N, Arm.Body.index(), DepEdgeKind::Data);
        Stack.push_back({Arm.Body, Scrut});
      }
    } else if (const auto *P = dyn_cast<PrimExpr>(E)) {
      for (ExprId A : P->args())
        data(A, Guard);
    }
  }

  // Argument position refines a plain value-flow occurrence; shape kinds
  // win.
  for (uint32_t N = 0; N != NumExprs; ++N)
    if (const auto *A = dyn_cast<AppExpr>(M.expr(ExprId(N))); A && Seen[N])
      if (DepNodeKind &K = R.Kinds[A->arg().index()];
          K == DepNodeKind::ValueFlow)
        K = DepNodeKind::Actual;

  // Congruence ties through each canonical node's first entity, then
  // the projection from every representative.
  const uint32_t NumFrozen = F.numNodes();
  std::vector<uint32_t> RepOf(NumFrozen, None);
  for (uint32_t Ent = 0; Ent != NumEnts; ++Ent) {
    const uint32_t FN = Ent < NumExprs ? F.nodeOfExpr(ExprId(Ent))
                                       : F.nodeOfVar(VarId(Ent - NumExprs));
    if (FN == FrozenGraph::None || FN >= NumFrozen)
      continue;
    if (RepOf[FN] == None) {
      RepOf[FN] = Ent;
    } else {
      add(RepOf[FN], Ent, DepEdgeKind::Congr);
      add(Ent, RepOf[FN], DepEdgeKind::Congr);
    }
  }
  std::vector<uint32_t> Stamp(NumFrozen, None);
  for (uint32_t FN = 0; FN != NumFrozen; ++FN) {
    if (RepOf[FN] == None)
      continue;
    std::vector<uint32_t> Queue{FN};
    Stamp[FN] = FN;
    for (size_t Head = 0; Head != Queue.size(); ++Head)
      for (uint32_t Succ : F.succs(Queue[Head])) {
        if (Stamp[Succ] == FN)
          continue;
        Stamp[Succ] = FN;
        if (RepOf[Succ] != None)
          add(RepOf[FN], RepOf[Succ], DepEdgeKind::Data);
        else
          Queue.push_back(Succ);
      }
  }

  auto priority = [](DepEdgeKind K) {
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
  };
  std::sort(Edges.begin(), Edges.end(),
            [&](const RawEdge &A, const RawEdge &B) {
              return std::tuple(A.From, A.To, priority(A.Kind)) <
                     std::tuple(B.From, B.To, priority(B.Kind));
            });
  Edges.erase(std::unique(Edges.begin(), Edges.end(),
                          [](const RawEdge &A, const RawEdge &B) {
                            return A.From == B.From && A.To == B.To;
                          }),
              Edges.end());

  R.FwdOffsets.assign(NumEnts + 1, 0);
  R.RevOffsets.assign(NumEnts + 1, 0);
  for (const RawEdge &E : Edges) {
    ++R.FwdOffsets[E.From + 1];
    ++R.RevOffsets[E.To + 1];
  }
  for (uint32_t I = 0; I != NumEnts; ++I) {
    R.FwdOffsets[I + 1] += R.FwdOffsets[I];
    R.RevOffsets[I + 1] += R.RevOffsets[I];
  }
  R.RevTargets.resize(Edges.size());
  R.RevKinds.resize(Edges.size());
  std::vector<uint32_t> Cursor(R.RevOffsets.begin(), R.RevOffsets.end() - 1);
  for (const RawEdge &E : Edges) {
    R.FwdTargets.push_back(E.To);
    R.FwdKinds.push_back(E.Kind);
    const uint32_t Slot = Cursor[E.To]++;
    R.RevTargets[Slot] = E.From;
    R.RevKinds[Slot] = E.Kind;
  }
  return R;
}

/// Compares \p DG's node kinds and four CSR views with the reference,
/// row by row.
void expectCsrMatchesReference(const DependenceGraph &DG) {
  const ReferenceCsr R = referenceCsr(DG.module(), DG.frozen());
  ASSERT_EQ(DG.numEdges(), R.FwdTargets.size());
  auto row = [](const auto &Values, const std::vector<uint32_t> &Offsets,
                uint32_t N) {
    using T = typename std::decay_t<decltype(Values)>::value_type;
    return std::vector<T>(Values.begin() + Offsets[N],
                          Values.begin() + Offsets[N + 1]);
  };
  auto vec = [](auto Span) {
    return std::vector<typename decltype(Span)::value_type>(Span.begin(),
                                                            Span.end());
  };
  for (uint32_t N = 0; N != DG.numDepNodes(); ++N) {
    ASSERT_STREQ(depNodeKindName(DG.kindOf(N)), depNodeKindName(R.Kinds[N]))
        << N;
    ASSERT_EQ(vec(DG.deps(N)), row(R.FwdTargets, R.FwdOffsets, N)) << N;
    ASSERT_EQ(vec(DG.depKinds(N)), row(R.FwdKinds, R.FwdOffsets, N)) << N;
    ASSERT_EQ(vec(DG.users(N)), row(R.RevTargets, R.RevOffsets, N)) << N;
    ASSERT_EQ(vec(DG.userKinds(N)), row(R.RevKinds, R.RevOffsets, N)) << N;
  }
}

//===----------------------------------------------------------------------===//
// Taxonomy and adjacency invariants
//===----------------------------------------------------------------------===//

TEST(DependenceGraph, NodeKindsFollowTheTaxonomy) {
  Pipeline P = buildPipeline("let f = fn x => x in f 1");
  ASSERT_TRUE(P.DG);
  const Module &M = *P.M;
  const DependenceGraph &DG = *P.DG;

  ExprId App = firstOfKind<AppExpr>(M);
  EXPECT_EQ(DG.kindOf(DG.nodeOfExpr(App)), DepNodeKind::Call);
  // The application's argument occurrence (`1`) is an actual.
  const auto *A = cast<AppExpr>(M.expr(App));
  EXPECT_EQ(DG.kindOf(DG.nodeOfExpr(A->arg())), DepNodeKind::Actual);

  ExprId Lam = firstOfKind<LamExpr>(M);
  EXPECT_EQ(DG.kindOf(DG.nodeOfExpr(Lam)), DepNodeKind::Definition);
  ExprId Let = firstOfKind<LetExpr>(M);
  EXPECT_EQ(DG.kindOf(DG.nodeOfExpr(Let)), DepNodeKind::Definition);

  // `fn` parameters are formals, `let` binders definitions.
  EXPECT_EQ(DG.kindOf(DG.nodeOfVar(varNamed(M, "x"))), DepNodeKind::Formal);
  EXPECT_EQ(DG.kindOf(DG.nodeOfVar(varNamed(M, "f"))), DepNodeKind::Definition);
}

TEST(DependenceGraph, BindEdgesResolveToTheRightBinder) {
  Pipeline P = buildPipeline("let a = fn x => x in let b = fn y => a y in b");
  ASSERT_TRUE(P.DG);
  const Module &M = *P.M;
  const DependenceGraph &DG = *P.DG;

  // Every variable occurrence carries exactly one Bind edge, and it
  // points at the occurrence's resolved binder.
  uint32_t Occurrences = 0;
  for (uint32_t I = 0; I != M.numExprs(); ++I) {
    const auto *V = dyn_cast<VarExpr>(M.expr(ExprId(I)));
    if (!V)
      continue;
    ++Occurrences;
    uint32_t N = DG.nodeOfExpr(ExprId(I));
    uint32_t BindCount = 0;
    auto Deps = DG.deps(N);
    auto Kinds = DG.depKinds(N);
    for (size_t K = 0; K != Deps.size(); ++K)
      if (Kinds[K] == DepEdgeKind::Bind) {
        ++BindCount;
        EXPECT_EQ(Deps[K], DG.nodeOfVar(V->var()));
      }
    EXPECT_EQ(BindCount, 1u) << "occurrence " << I;
  }
  EXPECT_GE(Occurrences, 3u);
}

TEST(DependenceGraph, ControlEdgesPointAtTheInnermostGuard) {
  Pipeline P = buildPipeline("let f = fn x => if x then 1 else 2 in f true");
  ASSERT_TRUE(P.DG);
  const Module &M = *P.M;
  const DependenceGraph &DG = *P.DG;

  const auto *If = cast<IfExpr>(M.expr(firstOfKind<IfExpr>(M)));
  // Both branches are control-dependent on the condition.
  for (ExprId Branch : {If->thenExpr(), If->elseExpr()}) {
    bool Found = false;
    auto Deps = DG.deps(DG.nodeOfExpr(Branch));
    auto Kinds = DG.depKinds(DG.nodeOfExpr(Branch));
    for (size_t K = 0; K != Deps.size(); ++K)
      Found |= Kinds[K] == DepEdgeKind::Control &&
               Deps[K] == DG.nodeOfExpr(If->cond());
    EXPECT_TRUE(Found) << "branch " << Branch.index();
  }
}

TEST(DependenceGraph, ForwardAndReverseAdjacencyAgree) {
  Pipeline P = buildPipeline(makeCubicFamily(6));
  ASSERT_TRUE(P.DG);
  const DependenceGraph &DG = *P.DG;

  // Collect both directions as (from, to, kind) multisets.
  std::multiset<std::tuple<uint32_t, uint32_t, int>> Fwd, Rev;
  for (uint32_t N = 0; N != DG.numDepNodes(); ++N) {
    auto Deps = DG.deps(N);
    auto DK = DG.depKinds(N);
    for (size_t I = 0; I != Deps.size(); ++I)
      Fwd.insert({N, Deps[I], int(DK[I])});
    auto Users = DG.users(N);
    auto UK = DG.userKinds(N);
    for (size_t I = 0; I != Users.size(); ++I)
      Rev.insert({Users[I], N, int(UK[I])});
  }
  EXPECT_EQ(Fwd, Rev);
  EXPECT_EQ(Fwd.size(), DG.numEdges());
}

TEST(DependenceGraph, CsrMatchesSortedReference) {
  std::vector<std::string> Corpus = {makeCubicFamily(8), makeCubicFamily(32),
                                     makeCubicFamily(128),
                                     makeJoinPointFamily(64), lifeProgram()};
  RandomProgramOptions RO;
  for (uint64_t Seed : {3ull, 7ull, 21ull, 99ull, 1234ull}) {
    RO.Seed = Seed;
    RO.NumBindings = 40;
    Corpus.push_back(makeRandomProgram(RO));
  }
  for (size_t I = 0; I != Corpus.size(); ++I) {
    SCOPED_TRACE("program " + std::to_string(I));
    Pipeline P = buildPipeline(Corpus[I]);
    ASSERT_TRUE(P.DG);
    expectCsrMatchesReference(*P.DG);
  }

  // A delta epoch: the spliced source's module over the edit's
  // canonically numbered view, after edits that leave shadow garbage.
  ShapeSpec Spec;
  ASSERT_TRUE(parseShapeSpec("diamond:3", Spec));
  Status S = Status::ok();
  std::unique_ptr<DeltaSession> Sess =
      DeltaSession::create(makeShapeProgram(Spec), DeltaSession::Options{}, S);
  ASSERT_TRUE(Sess) << S.toString();
  for (auto [Name, Text] :
       {std::pair{"l2", "letrec l2 = fn x => l2 (m0 x);"},
        std::pair{"m0", "let m0 = fn y => fn z => y;"}}) {
    EditRequest R;
    R.Kind = EditRequest::Op::Replace;
    R.Name = Name;
    R.Text = Text;
    ApplyResult Res;
    ASSERT_TRUE(Sess->apply(R, Res).isOk()) << Name;
  }
  DeltaView V;
  ASSERT_TRUE(Sess->freezeView(V).isOk());
  serve::Epoch Delta(1, std::move(V), Sess->currentSource(),
                     QueryEngine::DefaultKernelThreshold);
  const DependenceGraph *DG = nullptr;
  ASSERT_TRUE(Delta.dependenceGraph(Deadline::infinite(), DG).isOk());
  SCOPED_TRACE("delta epoch");
  expectCsrMatchesReference(*DG);
}

TEST(DependenceGraph, RootConeIsReachable) {
  Pipeline P = buildPipeline("let f = fn x => x in f 1");
  ASSERT_TRUE(P.DG);
  // Every entity of this garbage-free module is reachable.
  for (uint32_t N = 0; N != P.DG->numDepNodes(); ++N)
    EXPECT_TRUE(P.DG->isReachable(N)) << N;
  EXPECT_GT(P.DG->buildMillis(), 0.0);
}

//===----------------------------------------------------------------------===//
// Governed build and the allocation fault
//===----------------------------------------------------------------------===//

TEST(DependenceGraph, ExpiredDeadlineAbortsTheBuild) {
  // The build polls the governor on its projection hot loop, so the
  // program must be large enough to reach the first poll.
  Pipeline P = buildPipeline(makeCubicFamily(400));
  ASSERT_TRUE(P.M);
  Status BS;
  DependenceGraph::Options O;
  O.D = Deadline::afterMillis(0);
  EXPECT_EQ(DependenceGraph::build(*P.M, *P.F, BS, O), nullptr);
  EXPECT_EQ(BS.code(), StatusCode::DeadlineExceeded);
}

TEST(DependenceGraph, CancelledTokenAbortsTheBuild) {
  Pipeline P = buildPipeline(makeCubicFamily(400));
  ASSERT_TRUE(P.M);
  Status BS;
  DependenceGraph::Options O;
  O.Token = CancellationToken::create();
  O.Token.requestCancel();
  EXPECT_EQ(DependenceGraph::build(*P.M, *P.F, BS, O), nullptr);
  EXPECT_EQ(BS.code(), StatusCode::Cancelled);
}

#if STCFA_FAULT_INJECTION
TEST(DependenceGraph, AllocFaultReturnsOutOfMemory) {
  Pipeline P = buildPipeline("let f = fn x => x in f 1");
  ASSERT_TRUE(P.M);
  ASSERT_TRUE(armFault(fault::SliceAlloc));
  Status BS;
  std::unique_ptr<DependenceGraph> DG =
      DependenceGraph::build(*P.M, *P.F, BS);
  disarmFaults();
  EXPECT_EQ(DG, nullptr);
  EXPECT_EQ(BS.code(), StatusCode::OutOfMemory);
}
#endif

//===----------------------------------------------------------------------===//
// Slicing
//===----------------------------------------------------------------------===//

TEST(Slicer, BackwardSliceOfAResultPullsItsProducers) {
  Pipeline P =
      buildPipeline("let dead = fn d => d in let id = fn x => x in id 1");
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  SliceResult R = Sl.sliceFrom(P.M->root());
  ASSERT_TRUE(R.S.isOk());

  // `id` and its body are in the backward slice of the result; the dead
  // binding's abstraction is not.
  ExprId IdLam = P.M->lamOfLabel(labelOfFnWithParam(*P.M, "x"));
  ExprId DeadLam = P.M->lamOfLabel(labelOfFnWithParam(*P.M, "d"));
  EXPECT_TRUE(R.Marked.contains(P.DG->nodeOfExpr(IdLam)));
  EXPECT_FALSE(R.Marked.contains(P.DG->nodeOfExpr(DeadLam)));
  EXPECT_TRUE(R.Marked.contains(P.DG->nodeOfVar(varNamed(*P.M, "id"))));
  EXPECT_FALSE(R.Marked.contains(P.DG->nodeOfVar(varNamed(*P.M, "dead"))));
}

TEST(Slicer, ForwardSliceOfAProducerReachesItsConsumers) {
  Pipeline P =
      buildPipeline("let dead = fn d => d in let id = fn x => x in id 1");
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  ExprId IdLam = P.M->lamOfLabel(labelOfFnWithParam(*P.M, "x"));
  SliceOptions SO;
  SO.Dir = SliceDirection::Forward;
  SliceResult R = Sl.sliceFrom(IdLam, SO);
  ASSERT_TRUE(R.S.isOk());
  // The abstraction flows into the call and thus into the program result.
  EXPECT_TRUE(R.Marked.contains(P.DG->nodeOfExpr(P.M->root())));
}

TEST(Slicer, BackwardForwardDualityHoldsPairwise) {
  Pipeline P = buildPipeline(makeJoinPointFamily(4));
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);

  // N is in the backward slice of T exactly when T is in the forward
  // slice of N — reachability and its transpose.
  std::vector<DenseBitset> Back;
  for (uint32_t T = 0; T != P.M->numExprs(); ++T) {
    SliceResult R = Sl.sliceFrom(ExprId(T));
    ASSERT_TRUE(R.S.isOk());
    Back.push_back(std::move(R.Marked));
  }
  SliceOptions Fwd;
  Fwd.Dir = SliceDirection::Forward;
  for (uint32_t N = 0; N != P.M->numExprs(); ++N) {
    SliceResult R = Sl.sliceFrom(ExprId(N), Fwd);
    ASSERT_TRUE(R.S.isOk());
    for (uint32_t T = 0; T != P.M->numExprs(); ++T)
      EXPECT_EQ(R.Marked.contains(P.DG->nodeOfExpr(ExprId(T))),
                Back[T].contains(P.DG->nodeOfExpr(ExprId(N))))
          << "target " << T << " node " << N;
  }
}

TEST(Slicer, InvalidTargetIsRejected) {
  Pipeline P = buildPipeline("let f = fn x => x in f 1");
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  SliceResult R = Sl.sliceFrom(ExprId(P.M->numExprs()));
  EXPECT_EQ(R.S.code(), StatusCode::InvalidArgument);
  EXPECT_TRUE(R.Exprs.empty());
  R = Sl.sliceFrom(ExprId::invalid());
  EXPECT_EQ(R.S.code(), StatusCode::InvalidArgument);
}

TEST(Slicer, DifferentialAgainstNaiveBfsAcrossTheCorpus) {
  std::vector<std::string> Corpus = {
      "let f = fn x => x in f 1",
      "let r = ref (fn x => x) in let g = fn y => !r y in g 2",
      makeCubicFamily(8),
      makeJoinPointFamily(16),
      makeEffectsFamily(8),
      makeCalledOnceFamily(6),
      lifeProgram(),
      miniEvalProgram(),
      parserComboProgram(),
  };
  RandomProgramOptions RO;
  for (uint64_t Seed : {7ull, 21ull}) {
    RO.Seed = Seed;
    RO.NumBindings = 24;
    Corpus.push_back(makeRandomProgram(RO));
  }

  for (size_t I = 0; I != Corpus.size(); ++I) {
    SCOPED_TRACE("program " + std::to_string(I));
    Pipeline P = buildPipeline(Corpus[I]);
    ASSERT_TRUE(P.DG);
    // Root backward, plus a spread of explicit targets both ways.
    expectSliceMatchesNaive(P, P.M->root(), SliceDirection::Backward);
    const uint32_t N = P.M->numExprs();
    for (uint32_t T : {0u, N / 3, N / 2, N - 1}) {
      expectSliceMatchesNaive(P, ExprId(T), SliceDirection::Backward);
      expectSliceMatchesNaive(P, ExprId(T), SliceDirection::Forward);
    }
  }
}

//===----------------------------------------------------------------------===//
// Witnesses
//===----------------------------------------------------------------------===//

TEST(Slicer, WitnessChainsValidateHopByHop) {
  Pipeline P = buildPipeline(makeJoinPointFamily(6));
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  SliceResult R = Sl.sliceFrom(P.M->root());
  ASSERT_TRUE(R.S.isOk());

  for (ExprId Member : R.Exprs) {
    std::vector<WitnessStep> Steps;
    ASSERT_TRUE(Sl.witnessFor(R, Member, Steps).isOk())
        << "member " << Member.index();
    ASSERT_FALSE(Steps.empty());
    // Chain runs target -> member along real dependence edges.
    EXPECT_EQ(Steps.front().Node, P.DG->nodeOfExpr(R.Target));
    EXPECT_EQ(Steps.back().Node, P.DG->nodeOfExpr(Member));
    for (size_t I = 1; I != Steps.size(); ++I)
      EXPECT_TRUE(P.DG->hasEdge(Steps[I - 1].Node, Steps[I].Node));
    std::string Line = Sl.renderWitness(Steps);
    EXPECT_FALSE(Line.empty());
    if (Steps.size() > 1) {
      EXPECT_NE(Line.find("-["), std::string::npos) << Line;
    }
  }
}

TEST(Slicer, WitnessForNonMemberIsRejected) {
  Pipeline P =
      buildPipeline("let dead = fn d => d in let id = fn x => x in id 1");
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  SliceResult R = Sl.sliceFrom(P.M->root());
  ASSERT_TRUE(R.S.isOk());
  ExprId DeadLam = P.M->lamOfLabel(labelOfFnWithParam(*P.M, "d"));
  std::vector<WitnessStep> Steps;
  EXPECT_EQ(Sl.witnessFor(R, DeadLam, Steps).code(),
            StatusCode::InvalidArgument);
}

#if STCFA_FAULT_INJECTION
TEST(Slicer, WitnessCorruptionCanaryIsDetected) {
  Pipeline P = buildPipeline(makeJoinPointFamily(6));
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  ASSERT_TRUE(armFault(fault::SliceWitnessCorrupt));
  SliceResult R = Sl.sliceFrom(P.M->root());
  disarmFaults();
  ASSERT_TRUE(R.S.isOk());

  // The canary broke one discovery parent: validation must reject the
  // affected chain with Internal instead of rendering a wrong path.
  uint32_t Rejected = 0;
  for (ExprId Member : R.Exprs) {
    std::vector<WitnessStep> Steps;
    Status S = Sl.witnessFor(R, Member, Steps);
    if (!S.isOk()) {
      EXPECT_EQ(S.code(), StatusCode::Internal);
      ++Rejected;
    }
  }
  EXPECT_GE(Rejected, 1u);
}
#endif

//===----------------------------------------------------------------------===//
// Governed traversal: partial slices
//===----------------------------------------------------------------------===//

TEST(Slicer, CancelledTokenYieldsAPartialSubset) {
  // The governor polls every few thousand dequeued entities, so the
  // cone must be larger than one polling interval to observe a partial.
  Pipeline P = buildPipeline(makeCubicFamily(400));
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);

  SliceResult Full = Sl.sliceFrom(P.M->root());
  ASSERT_TRUE(Full.S.isOk());
  ASSERT_GT(Full.Exprs.size(), 2048u)
      << "corpus program too small to exercise the poll";

  SliceOptions SO;
  SO.Token = CancellationToken::create();
  SO.Token.requestCancel();
  SliceResult Part = Sl.sliceFrom(P.M->root(), SO);
  EXPECT_EQ(Part.S.code(), StatusCode::Cancelled);
  EXPECT_TRUE(Part.Partial);
  // The partial answer is an under-approximation of the full slice.
  EXPECT_LT(Part.Exprs.size(), Full.Exprs.size());
  std::set<uint32_t> FullSet = memberSet(Full);
  for (ExprId E : Part.Exprs)
    EXPECT_TRUE(FullSet.count(E.index())) << E.index();
  // Witnesses for found members still validate.
  ASSERT_FALSE(Part.Exprs.empty());
  std::vector<WitnessStep> Steps;
  EXPECT_TRUE(Sl.witnessFor(Part, Part.Exprs.back(), Steps).isOk());
}

TEST(Slicer, ExpiredDeadlineYieldsAPartialSubset) {
  Pipeline P = buildPipeline(makeCubicFamily(400));
  ASSERT_TRUE(P.DG);
  Slicer Sl(*P.DG);
  SliceOptions SO;
  SO.D = Deadline::afterMillis(0);
  SliceResult Part = Sl.sliceFrom(P.M->root(), SO);
  EXPECT_EQ(Part.S.code(), StatusCode::DeadlineExceeded);
  EXPECT_TRUE(Part.Partial);
}

//===----------------------------------------------------------------------===//
// Export
//===----------------------------------------------------------------------===//

TEST(SliceExport, DotValidatesAcrossTheCorpus) {
  for (const std::string &Source :
       {std::string("let f = fn x => x in f 1"), makeCubicFamily(6),
        makeJoinPointFamily(8), lifeProgram()}) {
    Pipeline P = buildPipeline(Source);
    ASSERT_TRUE(P.DG);
    std::string Dot = exportDepsDot(*P.DG);
    Status S = validateDot(Dot);
    EXPECT_TRUE(S.isOk()) << S.message();
    EXPECT_NE(Dot.find("digraph"), std::string::npos);
  }
}

TEST(SliceExport, ValidatorRejectsTamperedDot) {
  Pipeline P = buildPipeline("let f = fn x => x in f 1");
  ASSERT_TRUE(P.DG);
  const std::string Dot = exportDepsDot(*P.DG);
  ASSERT_TRUE(validateDot(Dot).isOk());

  // Truncated footer.
  std::string NoFooter = Dot.substr(0, Dot.rfind('}'));
  EXPECT_EQ(validateDot(NoFooter).code(), StatusCode::Internal);

  // An edge whose endpoints were never declared.
  std::string Phantom = Dot;
  Phantom.insert(Phantom.rfind('}'), "  n9999 -> n9998;\n");
  EXPECT_EQ(validateDot(Phantom).code(), StatusCode::Internal);

  // A dropped statement terminator on the first real node declaration
  // (the attribute preamble is exempt, so tamper past it).
  size_t Semi = Dot.find("];", Dot.find("shape="));
  ASSERT_NE(Semi, std::string::npos);
  std::string NoSemi = Dot.substr(0, Semi + 1) + Dot.substr(Semi + 2);
  EXPECT_EQ(validateDot(NoSemi).code(), StatusCode::Internal);

  // An unbalanced quote.
  size_t Quote = Dot.find('"');
  ASSERT_NE(Quote, std::string::npos);
  std::string NoQuote = Dot.substr(0, Quote) + Dot.substr(Quote + 1);
  EXPECT_EQ(validateDot(NoQuote).code(), StatusCode::Internal);
}

TEST(SliceExport, JsonParsesAndCountsMatchTheGraph) {
  Pipeline P = buildPipeline(makeJoinPointFamily(6));
  ASSERT_TRUE(P.DG);
  std::string Json = exportDepsJson(*P.DG);

  serve::JsonValue V;
  ASSERT_TRUE(serve::parseJson(Json, V).isOk()) << Json.substr(0, 200);
  const serve::JsonValue *Nodes = V.field("nodes");
  const serve::JsonValue *Edges = V.field("edges");
  const serve::JsonValue *Counts = V.field("counts");
  ASSERT_NE(Nodes, nullptr);
  ASSERT_NE(Edges, nullptr);
  ASSERT_NE(Counts, nullptr);
  ASSERT_TRUE(Nodes->isArray());
  ASSERT_TRUE(Edges->isArray());

  // Only reachable entities are exported; counts agree with the arrays.
  uint32_t Reachable = 0;
  for (uint32_t N = 0; N != P.DG->numDepNodes(); ++N)
    Reachable += P.DG->isReachable(N);
  EXPECT_EQ(Nodes->items().size(), Reachable);
  EXPECT_EQ(Counts->field("nodes")->asInt(), int64_t(Nodes->items().size()));
  EXPECT_EQ(Counts->field("edges")->asInt(), int64_t(Edges->items().size()));

  // Each node row names a kind from the taxonomy.
  for (const serve::JsonValue &Row : Nodes->items()) {
    const std::string &Kind = Row.field("kind")->asString();
    EXPECT_TRUE(Kind == "definition" || Kind == "call" || Kind == "formal" ||
                Kind == "actual" || Kind == "value-flow")
        << Kind;
  }
}

} // namespace
