//===-- tests/frozen_graph_test.cpp - Snapshot / engine equivalence -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The frozen CSR snapshot and the query engine must be *bit-for-bit*
/// interchangeable with the mutable-graph `Reachability` reference: every
/// query kind, on every corpus program, under every closure policy and
/// congruence mode.  Plus the apps over the frozen tables checked against
/// the same reference on every corpus program.
///
//===----------------------------------------------------------------------===//

#include "apps/CallGraph.h"
#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "analysis/DeadCodeAwareCFA.h"
#include "analysis/StandardCFA.h"
#include "core/Condensation.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"

#include "TestUtil.h"

#include <algorithm>
#include <map>
#include <set>

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// FrozenGraph structure
//===----------------------------------------------------------------------===//

TEST(FrozenGraph, CsrMatchesLinkedLists) {
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  ASSERT_FALSE(G.aborted());
  FrozenGraph F(G);

  ASSERT_EQ(F.numNodes(), G.numNodes());
  uint64_t Edges = 0;
  for (uint32_t N = 0; N != G.numNodes(); ++N) {
    std::multiset<uint32_t> Want, Got;
    for (NodeId S : G.succs(NodeId(N)))
      Want.insert(S.index());
    for (uint32_t S : F.succs(N))
      Got.insert(S);
    EXPECT_EQ(Want, Got) << "succs mismatch at node " << N;
    Edges += Want.size();

    Want.clear();
    Got.clear();
    for (NodeId P : G.preds(NodeId(N)))
      Want.insert(P.index());
    for (uint32_t P : F.preds(N))
      Got.insert(P);
    EXPECT_EQ(Want, Got) << "preds mismatch at node " << N;

    EXPECT_EQ(F.op(N), G.op(NodeId(N)));
    LabelId L = G.labelOf(NodeId(N));
    EXPECT_EQ(F.labelAt(N), L.isValid() ? L.index() : FrozenGraph::None);
  }
  EXPECT_EQ(F.numEdges(), Edges);
}

TEST(FrozenGraph, CondensationIsCachedAndConsistent) {
  std::unique_ptr<Module> M = parseMaybeInfer(lifeProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);

  const Condensation &C1 = F.condensation();
  const Condensation &C2 = F.condensation();
  EXPECT_EQ(&C1, &C2) << "condensation must be computed once";
  EXPECT_EQ(C1.numNodes(), F.numNodes());

  // Edges never point from a lower SCC id to a higher one except within
  // the same SCC: completion order is reverse topological.
  for (uint32_t N = 0; N != F.numNodes(); ++N)
    for (uint32_t S : F.succs(N))
      if (C1.sccOf(N) != C1.sccOf(S)) {
        EXPECT_GT(C1.sccOf(N), C1.sccOf(S));
      }
}

//===----------------------------------------------------------------------===//
// QueryEngine vs Reachability, all corpora x configs
//===----------------------------------------------------------------------===//

struct Config {
  const char *Name;
  ClosurePolicy Policy;
  CongruenceMode Congruence;
};

const Config Configs[] = {
    {"paper/bytype", ClosurePolicy::PaperExact, CongruenceMode::ByType},
    {"nodeexists/bytype", ClosurePolicy::NodeExists, CongruenceMode::ByType},
};

struct CorpusProgram {
  const char *Name;
  std::string Source;
};

std::vector<CorpusProgram> corpusPrograms() {
  return {{"life", lifeProgram()},
          {"lexgen", makeLexgenLike(/*States=*/12)},
          {"minieval", miniEvalProgram()},
          {"parsercombo", parserComboProgram()}};
}

void expectSameSet(const DenseBitset &A, const DenseBitset &B,
                   const char *What, const char *Where, uint32_t Index) {
  EXPECT_TRUE(A == B) << What << " mismatch on " << Where << " at index "
                      << Index;
}

/// Runs every query kind through Reachability and through a QueryEngine;
/// everything must agree exactly.
void checkEquivalence(const Module &M, const SubtransitiveGraph &G,
                      const char *Where) {
  Reachability Reach(G);
  FrozenGraph F(G);
  QueryEngine Engine(F);

  // labelsOf: point and batched, every occurrence.  The batch over every
  // occurrence is "all label sets"; two more engines pin it to the kernel
  // and to per-query BFS, whatever the batch size.
  std::vector<ExprId> AllExprs;
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    AllExprs.push_back(ExprId(I));
  std::vector<DenseBitset> Batch = Engine.labelsOfBatch(AllExprs);
  ASSERT_EQ(Batch.size(), AllExprs.size());
  QueryEngine Kernel(F), Bfs(F);
  Kernel.setKernelThreshold(1);
  Bfs.setKernelThreshold(0);
  std::vector<DenseBitset> KernelBatch = Kernel.labelsOfBatch(AllExprs);
  ASSERT_TRUE(Kernel.kernel() && Kernel.kernel()->complete()) << Where;
  std::vector<DenseBitset> BfsBatch = Bfs.labelsOfBatch(AllExprs);
  for (uint32_t I = 0; I != M.numExprs(); ++I) {
    DenseBitset Want = Reach.labelsOf(ExprId(I));
    expectSameSet(Want, Engine.labelsOf(ExprId(I)), "labelsOf", Where, I);
    expectSameSet(Want, Batch[I], "labelsOfBatch", Where, I);
    expectSameSet(Want, KernelBatch[I], "labelsOfBatch(kernel)", Where, I);
    expectSameSet(Want, BfsBatch[I], "labelsOfBatch(bfs)", Where, I);
  }

  // labelsOfVar: every binder.
  for (uint32_t V = 0; V != M.numVars(); ++V)
    expectSameSet(Reach.labelsOfVar(VarId(V)), Engine.labelsOfVar(VarId(V)),
                  "labelsOfVar", Where, V);

  // isLabelIn: every (occurrence, label) pair.
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    for (uint32_t L = 0; L != M.numLabels(); ++L)
      EXPECT_EQ(Reach.isLabelIn(ExprId(I), LabelId(L)),
                Engine.isLabelIn(ExprId(I), LabelId(L)))
          << "isLabelIn mismatch on " << Where << " at expr " << I
          << ", label " << L;

  // occurrencesOf: every label; order is part of the contract (ascending
  // expression id).
  for (uint32_t L = 0; L != M.numLabels(); ++L)
    EXPECT_EQ(Reach.occurrencesOf(LabelId(L)), Engine.occurrencesOf(LabelId(L)))
        << "occurrencesOf mismatch on " << Where << " at label " << L;
}

TEST(QueryEngine, MatchesReachabilityEverywhere) {
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    for (const Config &C : Configs) {
      SubtransitiveConfig GC;
      GC.Policy = C.Policy;
      GC.Congruence = C.Congruence;
      SubtransitiveGraph G(*M, GC);
      G.build();
      G.close();
      ASSERT_FALSE(G.aborted()) << P.Name << " " << C.Name;
      std::string Where = std::string(P.Name) + "/" + C.Name;
      checkEquivalence(*M, G, Where.c_str());
    }
  }
}

TEST(QueryEngine, MatchesReachabilityUnderByBaseCongruence) {
  // The finer ByBaseAndType congruence diverges during close() on the
  // recursive corpus programs (a pre-existing limitation of ≈2, not of
  // the snapshot), so the bybase equivalence runs on programs where the
  // closure terminates: the cubic family and a small datatype program.
  struct {
    const char *Name;
    std::string Source;
  } Programs[] = {
      {"cubic30", makeCubicFamily(30)},
      {"flist", "data FList = FNil | FCons(Int -> Int, FList);\n"
                "let l = FCons(fn a => a, FCons(fn b => b, FNil)) in "
                "case l of FNil => (fn z => z) | FCons(h, t) => h end"},
  };
  for (const auto &P : Programs) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveConfig GC;
    GC.Congruence = CongruenceMode::ByBaseAndType;
    SubtransitiveGraph G(*M, GC);
    G.build();
    G.close();
    ASSERT_FALSE(G.aborted()) << P.Name;
    std::string Where = std::string(P.Name) + "/paper/bybase";
    checkEquivalence(*M, G, Where.c_str());
  }
}

TEST(QueryEngine, SharedSnapshotIndependentEngines) {
  // Two engines over one snapshot answer independently (the documented
  // sharing model: share the FrozenGraph, not the engine).
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine A(F), B(F);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(A.labelsOf(ExprId(I)) == B.labelsOf(ExprId(I)));
  // Each engine runs its own kernel over the snapshot's one cached
  // condensation; the batches over every occurrence agree.
  std::vector<ExprId> AllExprs;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    AllExprs.push_back(ExprId(I));
  std::vector<DenseBitset> SA = A.labelsOfBatch(AllExprs);
  std::vector<DenseBitset> SB = B.labelsOfBatch(AllExprs);
  ASSERT_TRUE(A.kernel() && B.kernel() && A.kernel() != B.kernel());
  for (uint32_t I = 0; I != SA.size(); ++I)
    EXPECT_TRUE(SA[I] == SB[I]);
}

//===----------------------------------------------------------------------===//
// Apps over the frozen snapshot
//===----------------------------------------------------------------------===//

TEST(FrozenApps, EffectsNeverMissReferenceEffect) {
  // The frozen-table propagation may be coarser than the standard-CFA
  // reference (invariant ref closure, congruence) but never misses.
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    EffectsAnalysis Eff(*M, F);
    Eff.run();
    StandardCFA Std(*M);
    Std.run();
    EffectsAnalysisRef Ref(*M, Std);
    Ref.run();
    for (uint32_t I = 0; I != M->numExprs(); ++I) {
      if (Ref.isEffectful(ExprId(I))) {
        EXPECT_TRUE(Eff.isEffectful(ExprId(I))) << P.Name << " expr " << I;
      }
    }
  }
}

TEST(FrozenApps, KLimitedMatchesReachability) {
  // Each occurrence's annotation is its exact label set when that has at
  // most K labels, and `many` otherwise.
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    Reachability R(G);
    for (uint32_t K : {1u, 3u}) {
      KLimitedCFA KL(*M, F, K);
      KL.run();
      for (uint32_t I = 0; I != M->numExprs(); ++I) {
        DenseBitset Exact = R.labelsOf(ExprId(I));
        const LimitedSet &S = KL.ofExpr(ExprId(I));
        ASSERT_EQ(S.isMany(), Exact.count() > K)
            << P.Name << " K=" << K << " expr " << I;
        if (S.isMany())
          continue;
        std::vector<uint32_t> Want;
        Exact.forEach([&](uint32_t L) { Want.push_back(L); });
        EXPECT_EQ(S.ids(), Want) << P.Name << " K=" << K << " expr " << I;
      }
    }
  }
}

TEST(FrozenApps, CalledOnceMatchesCallSiteCount) {
  // A label's count and unique site follow from the call sites whose
  // operator's reference label set contains it.
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    CalledOnceAnalysis CO(*M, F);
    CO.run();
    Reachability R(G);
    std::vector<uint32_t> Sites(M->numLabels(), 0);
    std::vector<ExprId> LastSite(M->numLabels(), ExprId::invalid());
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      if (const auto *A = dyn_cast<AppExpr>(M->expr(ExprId(I))))
        R.labelsOf(A->fn()).forEach([&](uint32_t L) {
          ++Sites[L];
          LastSite[L] = ExprId(I);
        });
    for (uint32_t L = 0; L != M->numLabels(); ++L) {
      auto Want = Sites[L] == 0   ? CalledOnceAnalysis::CallCount::Never
                  : Sites[L] == 1 ? CalledOnceAnalysis::CallCount::Once
                                  : CalledOnceAnalysis::CallCount::Many;
      EXPECT_EQ(CO.countOf(LabelId(L)), Want) << P.Name << " label " << L;
      if (Sites[L] == 1) {
        EXPECT_EQ(CO.uniqueCallSite(LabelId(L)), LastSite[L])
            << P.Name << " label " << L;
      }
    }
  }
}

TEST(FrozenApps, CallGraphCalleesMatchReachabilityPerSite) {
  // Each caller's callees are exactly the union, over its call sites, of
  // the operator's label set on the mutable-graph reference.
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    QueryEngine Engine(F);
    CallGraph CG(*M, Engine);
    CG.run();
    Reachability Reach(G);
    ASSERT_EQ(CG.numCallers(), M->numLabels() + 1) << P.Name;
    for (uint32_t C = 0; C != CG.numCallers(); ++C) {
      DenseBitset Want(M->numLabels());
      for (ExprId Site : CG.sitesOf(C))
        Want.unionWith(
            Reach.labelsOf(cast<AppExpr>(M->expr(Site))->fn()));
      EXPECT_TRUE(CG.calleesOf(C) == Want) << P.Name << " caller " << C;
    }
  }
}

TEST(FrozenApps, EngineNeverCalledContainedInDeadCodeAware) {
  // The subtransitive flow over-approximates standard CFA, which in turn
  // over-approximates the liveness-gated analysis: a function the engine
  // never sees called must be dead-code-aware dead.
  for (const CorpusProgram &P : corpusPrograms()) {
    std::unique_ptr<Module> M = parseMaybeInfer(P.Source);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    QueryEngine Engine(F);
    CallGraph CG(*M, Engine);
    CG.run();
    DeadCodeAwareCFA Dc(*M);
    Dc.run();
    std::set<uint32_t> DcDead;
    for (LabelId L : Dc.deadFunctions())
      DcDead.insert(L.index());
    for (LabelId L : CG.deadFunctions()) {
      EXPECT_TRUE(DcDead.count(L.index()))
          << P.Name << ": engine-dead fn#" << L.index()
          << " not dead-code-aware dead";
    }
  }
}

//===----------------------------------------------------------------------===//
// Epoch wrap
//===----------------------------------------------------------------------===//

TEST(QueryEngine, ManyQueriesStayConsistent) {
  // Repeated queries exercise the epoch stamping; results must be stable.
  std::unique_ptr<Module> M = parseMaybeInfer(parserComboProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine Engine(F);
  DenseBitset First = Engine.labelsOf(M->root());
  for (int I = 0; I != 1000; ++I)
    ASSERT_TRUE(First == Engine.labelsOf(M->root()));
  uint64_t Visited = Engine.nodesVisited();
  EXPECT_GT(Visited, 0u);
}

//===----------------------------------------------------------------------===//
// Governed freeze: Status instead of asserts
//===----------------------------------------------------------------------===//

TEST(FrozenGraph, FreezeBeforeCloseIsReportedNotUB) {
  std::unique_ptr<Module> M = parseMaybeInfer("let id = fn x => x in id id");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build(); // no close()
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  EXPECT_EQ(F, nullptr);
  EXPECT_EQ(S.code(), StatusCode::FailedPrecondition);
}

TEST(FrozenGraph, FreezeOfAbortedGraphIsReportedNotUB) {
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  SubtransitiveConfig C;
  C.Congruence = CongruenceMode::None;
  C.MaxNodes = 64; // guaranteed blown
  SubtransitiveGraph G(*M, C);
  G.build();
  EXPECT_EQ(G.close(Deadline::infinite()).code(),
            StatusCode::ResourceExhausted);
  ASSERT_TRUE(G.aborted());

  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  EXPECT_EQ(F, nullptr);
  EXPECT_EQ(S.code(), StatusCode::FailedPrecondition);
  // The message carries the abort reason for the degradation report.
  EXPECT_NE(S.message().find("resource-exhausted"), std::string::npos)
      << S.toString();
}

TEST(FrozenGraph, FreezeUnderExpiredDeadlineIsInert) {
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  ASSERT_FALSE(G.aborted());
  Status S;
  std::unique_ptr<FrozenGraph> F =
      FrozenGraph::freeze(G, S, Deadline::afterMillis(0));
  EXPECT_EQ(F, nullptr);
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);

  // The governed constructor keeps the inert-but-well-defined snapshot.
  FrozenGraph Inert(G, Deadline::afterMillis(0));
  EXPECT_FALSE(Inert.status().isOk());
  EXPECT_EQ(Inert.numNodes(), 0u);
  QueryEngine E(Inert);
  EXPECT_TRUE(E.labelsOf(M->root()).empty());
  EXPECT_TRUE(E.labelsOfVar(VarId(0)).empty());
  EXPECT_TRUE(E.occurrencesOf(LabelId(0)).empty());
}

//===----------------------------------------------------------------------===//
// Batch edge cases
//===----------------------------------------------------------------------===//

TEST(QueryEngine, EmptyBatchesAreNoOps) {
  std::unique_ptr<Module> M = parseMaybeInfer("let id = fn x => x in id id");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine E(F);
  EXPECT_TRUE(E.labelsOfBatch({}).empty());

  BatchControl Control;
  BatchOutcome Outcome;
  EXPECT_TRUE(E.labelsOfBatch({}, Control, Outcome).empty());
  EXPECT_TRUE(Outcome.S.isOk());
  EXPECT_EQ(Outcome.Completed, 0u);
  EXPECT_TRUE(Outcome.Done.empty());
}

TEST(QueryEngine, GovernedBatchWithRealDeadlineFinishesPromptly) {
  // A generous real deadline on a small batch: everything completes.
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine E(F);
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  BatchControl Control;
  Control.D = Deadline::afterMillis(60000);
  BatchOutcome Outcome;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_TRUE(Outcome.S.isOk());
  EXPECT_EQ(Outcome.Completed, Es.size());

  // An already-expired deadline yields zero answers, not a hang or crash.
  Control.D = Deadline::afterMillis(0);
  Sets = E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_EQ(Outcome.S.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Outcome.Completed, 0u);
  for (const DenseBitset &S : Sets)
    EXPECT_TRUE(S.empty());
}

TEST(QueryEngine, GovernedBatchCancellationToken) {
  // A pre-cancelled token stops the batch before any item runs.
  std::unique_ptr<Module> M = parseMaybeInfer(miniEvalProgram());
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine E(F);
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  BatchControl Control;
  Control.Token = CancellationToken::create();
  Control.Token.requestCancel();
  BatchOutcome Outcome;
  (void)E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_EQ(Outcome.S.code(), StatusCode::Cancelled);
  EXPECT_EQ(Outcome.Completed, 0u);
}

} // namespace
