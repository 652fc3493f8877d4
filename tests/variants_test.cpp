//===-- tests/variants_test.cpp - Dead-code CFA, call graph, incremental --===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the analysis variations beyond the core algorithm: the
/// dead-code-aware 0-CFA (introduction, variation 2), the call-graph
/// consumer, and the incremental use of the subtransitive graph ("simple,
/// incremental, demand-driven").
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/DeadCodeAwareCFA.h"
#include "analysis/StandardCFA.h"
#include "apps/CallGraph.h"
#include "core/Reachability.h"
#include "gen/Generators.h"
#include "interp/Interpreter.h"

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// Dead-code-aware CFA
//===----------------------------------------------------------------------===//

TEST(DeadCodeCFA, PrunesNeverCalledBodies) {
  // `unused` is never applied, so the flows inside its body must vanish,
  // while standard CFA still reports them.
  auto M = parseMaybeInfer(
      "let unused = fn u => (fn a => a) (fn b => b) in 42");
  ASSERT_TRUE(M);
  StandardCFA Std(*M);
  Std.run();
  DeadCodeAwareCFA Dc(*M);
  Dc.run();
  VarId A = varNamed(*M, "a");
  EXPECT_GT(Std.labelSetOfVar(A).count(), 0u);
  EXPECT_EQ(Dc.labelSetOfVar(A).count(), 0u);
  // The body of `unused` is dead.
  const auto *Let = cast<LetExpr>(M->expr(M->root()));
  const auto *Lam = cast<LamExpr>(M->expr(Let->init()));
  EXPECT_FALSE(Dc.isLive(Lam->body()));
  EXPECT_TRUE(Dc.isLive(M->root()));
}

TEST(DeadCodeCFA, TransitivelyDeadFunctions) {
  auto M = parseMaybeInfer("let g = fn x => x in "
                           "let f = fn y => g y in " // only f calls g
                           "let live = fn z => z in "
                           "live 1");
  ASSERT_TRUE(M);
  DeadCodeAwareCFA Dc(*M);
  Dc.run();
  auto Dead = Dc.deadFunctions();
  // f and g are dead; live is not.
  EXPECT_EQ(Dead.size(), 2u);
  LabelId Live = labelOfFnWithParam(*M, "z");
  for (LabelId L : Dead)
    EXPECT_NE(L, Live);
}

TEST(DeadCodeCFA, CalledThroughDeadCodeStaysDead) {
  // A call that only exists inside a dead body must not activate its
  // callee.
  auto M = parseMaybeInfer("let callee = fn c => c in "
                           "let deadCaller = fn d => callee d in "
                           "7");
  ASSERT_TRUE(M);
  DeadCodeAwareCFA Dc(*M);
  Dc.run();
  EXPECT_EQ(Dc.deadFunctions().size(), 2u);
}

class DeadCodeProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeadCodeProperty, RefinesStandardAndCoversDynamic) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 50;
  O.UseRefs = (GetParam() % 2) == 0;
  auto M = parseAndInfer(makeRandomProgram(O));
  ASSERT_TRUE(M);
  StandardCFA Std(*M);
  Std.run();
  DeadCodeAwareCFA Dc(*M);
  Dc.run();
  InterpreterResult Dyn = interpret(*M, 2000000);

  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    DenseBitset Refined = Dc.labelSet(ExprId(I));
    // Refinement: never larger than standard.
    EXPECT_TRUE(Std.labelSet(ExprId(I)).containsAll(Refined))
        << "expr " << I << " seed " << GetParam();
    // Soundness: contains everything observed dynamically.
    EXPECT_TRUE(Refined.containsAll(Dyn.LabelsAt[I]))
        << "expr " << I << " seed " << GetParam();
  }
  // Anything the interpreter evaluated must be live.
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    if (Dyn.LabelsAt[I].count() || Dyn.DidEffect[I]) {
      EXPECT_TRUE(Dc.isLive(ExprId(I)))
          << "expr " << I << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DeadCodeProperty,
                         ::testing::Range<uint64_t>(1500, 1520));

//===----------------------------------------------------------------------===//
// Call graph
//===----------------------------------------------------------------------===//

struct BuiltGraph {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
  std::unique_ptr<QueryEngine> Engine;

  explicit BuiltGraph(const std::string &Source) {
    M = parseMaybeInfer(Source);
    EXPECT_TRUE(M);
    if (!M)
      return;
    G = std::make_unique<SubtransitiveGraph>(*M);
    G->build();
    G->close();
    F = std::make_unique<FrozenGraph>(*G);
    Engine = std::make_unique<QueryEngine>(*F);
  }
};

TEST(CallGraphApp, DirectAndIndirectEdges) {
  BuiltGraph B("letrec even = fn n => if n == 0 then true "
               "else not (even (n - 1)) in "
               "let apply = fn f => fn x => f x in "
               "apply (fn b => b) (even 4)");
  ASSERT_TRUE(B.G);
  CallGraph CG(*B.M, *B.Engine);
  CG.run();

  LabelId Even = labelOfFnWithParam(*B.M, "n");
  LabelId ApplyOuter = labelOfFnWithParam(*B.M, "f");
  LabelId Arg = labelOfFnWithParam(*B.M, "b");

  // Top level calls apply and even; even calls itself; apply's inner
  // lambda calls its argument.
  EXPECT_TRUE(CG.calleesOf(CG.rootIndex()).contains(ApplyOuter.index()));
  EXPECT_TRUE(CG.calleesOf(CG.rootIndex()).contains(Even.index()));
  EXPECT_TRUE(CG.calleesOf(Even.index()).contains(Even.index()));
  LabelId ApplyInner = labelOfFnWithParam(*B.M, "x");
  EXPECT_TRUE(CG.calleesOf(ApplyInner.index()).contains(Arg.index()));
}

TEST(CallGraphApp, DeadFunctionDetection) {
  BuiltGraph B("let used = fn a => a in "
               "let dead1 = fn b => b in "
               "let dead2 = fn c => dead1 c in "
               "used 1");
  ASSERT_TRUE(B.G);
  CallGraph CG(*B.M, *B.Engine);
  CG.run();
  auto Dead = CG.deadFunctions();
  EXPECT_EQ(Dead.size(), 2u);
  DenseBitset Reached = CG.reachableFunctions();
  EXPECT_TRUE(Reached.contains(labelOfFnWithParam(*B.M, "a").index()));
  EXPECT_FALSE(Reached.contains(labelOfFnWithParam(*B.M, "b").index()));
}

class CallGraphProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CallGraphProperty, ContainsDynamicCallEdges) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 40;
  auto M = parseAndInfer(makeRandomProgram(O));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  QueryEngine Engine(F);
  CallGraph CG(*M, Engine);
  CG.run();
  InterpreterResult Dyn = interpret(*M, 2000000);

  // For every dynamic call (site, callee), the static graph must have the
  // callee at the site's owner.
  for (uint32_t L = 0; L != M->numLabels(); ++L) {
    for (ExprId Site : Dyn.CallSitesOf[L]) {
      bool Found = false;
      for (uint32_t Caller = 0; Caller != CG.numCallers(); ++Caller) {
        for (ExprId S : CG.sitesOf(Caller)) {
          if (S == Site) {
            Found = CG.calleesOf(Caller).contains(L);
            break;
          }
        }
        if (Found)
          break;
      }
      EXPECT_TRUE(Found) << "dynamic call to label " << L << " at site "
                         << Site.index() << " missing, seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CallGraphProperty,
                         ::testing::Range<uint64_t>(1600, 1615));

//===----------------------------------------------------------------------===//
// Incremental closure
//===----------------------------------------------------------------------===//

TEST(Incremental, FragmentByFragmentEqualsFromScratch) {
  // Analyse the let-spine one binding at a time, closing in between; the
  // final graph must answer exactly like a from-scratch build+close.
  auto M = parseMaybeInfer(makeCubicFamily(6));
  ASSERT_TRUE(M);

  SubtransitiveGraph Whole(*M);
  Whole.build();
  Whole.close();
  Reachability RW(Whole);

  // Incremental: feed each top-level initializer separately, then the
  // rest of the program.
  SubtransitiveGraph Inc(*M);
  std::vector<ExprId> Inits;
  const Expr *E = M->expr(M->root());
  while (const auto *L = dyn_cast<LetExpr>(E)) {
    Inits.push_back(L->init());
    E = M->expr(L->body());
  }
  ASSERT_GT(Inits.size(), 3u);
  Inc.buildFragment(Inits[0]);
  Inc.close();
  for (size_t I = 1; I != Inits.size(); ++I) {
    Inc.addFragment(Inits[I]);
    Inc.close();
  }
  Inc.addFragment(M->root()); // the spine itself (re-visits are no-ops)
  Inc.close();

  Reachability RI(Inc);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(RI.labelsOf(ExprId(I)) == RW.labelsOf(ExprId(I)))
        << "expr " << I;
  EXPECT_EQ(Whole.stats().totalEdges(), Inc.stats().totalEdges());
}

TEST(Incremental, PostCloseEdgeExtendsTheFixpoint) {
  // Manually connect a new flow after close() and re-close: the new
  // consequence appears, nothing else changes.
  auto M = parseMaybeInfer("let f = fn x => x in let g = fn y => y in f");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  Reachability R1(G);
  LabelId GLab = labelOfFnWithParam(*M, "y");
  EXPECT_FALSE(R1.labelsOf(M->root()).contains(GLab.index()));

  // New fact: the root may also evaluate to g.
  const auto *LetF = cast<LetExpr>(M->expr(M->root()));
  const auto *LetG = cast<LetExpr>(M->expr(LetF->body()));
  G.addEdge(G.exprNode(M->root()), G.exprNode(LetG->init()));
  G.close();
  Reachability R2(G);
  EXPECT_TRUE(R2.labelsOf(M->root()).contains(GLab.index()));
}

} // namespace
