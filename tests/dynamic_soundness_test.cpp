//===-- tests/dynamic_soundness_test.cpp - Analyses vs ground truth -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// End-to-end soundness: every static analysis in the repository must
/// over-approximate what the reference interpreter actually observes on a
/// concrete run.  This closes the loop on the whole stack — if the
/// subtransitive closure, a congruence, the polyvariant instantiation, or
/// a consuming application ever dropped a real flow, some seed here would
/// catch it.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/StandardCFA.h"
#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "core/Reachability.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "interp/Interpreter.h"
#include "poly/Polyvariant.h"
#include "unify/UnificationCFA.h"

using namespace stcfa;

namespace {

RandomProgramOptions optionsFor(uint64_t Seed) {
  RandomProgramOptions O;
  O.Seed = Seed;
  O.NumBindings = 50;
  O.UseRefs = (Seed % 2) == 0;
  O.UseEffects = (Seed % 3) == 0;
  return O;
}

/// Everything outside non-recursive let-bound lambdas (where polyvariant
/// occurrence identity is meaningful).
std::vector<ExprId> externalExprs(const Module &M) {
  std::vector<bool> Internal(M.numExprs(), false);
  forEachExprPreorder(M, M.root(), [&](ExprId, const Expr *E) {
    const auto *L = dyn_cast<LetExpr>(E);
    if (!L || L->isRec() || !isa<LamExpr>(M.expr(L->init())))
      return;
    forEachExprPreorder(M, L->init(), [&](ExprId Sub, const Expr *) {
      Internal[Sub.index()] = true;
    });
  });
  std::vector<ExprId> Out;
  for (uint32_t I = 0; I != M.numExprs(); ++I)
    if (!Internal[I])
      Out.push_back(ExprId(I));
  return Out;
}

class DynamicSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicSoundness, AllAnalysesContainObservedFlows) {
  auto M = parseAndInfer(makeRandomProgram(optionsFor(GetParam())));
  ASSERT_TRUE(M);
  InterpreterResult Dyn = interpret(*M, 2000000);
  // Even partial traces are valid observations; nothing to check only if
  // the program observed nothing.

  StandardCFA Std(*M);
  Std.run();
  UnificationCFA Uni(*M);
  Uni.run();
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  Reachability R(G);
  KLimitedCFA KL(*M, F, 3);
  KL.run();
  PolyvariantCFA Poly(*M);
  Poly.run();
  Reachability PolyR(Poly.graph());
  std::vector<ExprId> External = externalExprs(*M);
  std::vector<bool> IsExternal(M->numExprs(), false);
  for (ExprId E : External)
    IsExternal[E.index()] = true;

  for (uint32_t I = 0, N = M->numExprs(); I != N; ++I) {
    const DenseBitset &Observed = Dyn.LabelsAt[I];
    if (Observed.empty())
      continue;
    EXPECT_TRUE(Std.labelSet(ExprId(I)).containsAll(Observed))
        << "standard CFA unsound at expr " << I << " seed " << GetParam();
    EXPECT_TRUE(Uni.labelSet(ExprId(I)).containsAll(Observed))
        << "unification CFA unsound at expr " << I << " seed " << GetParam();
    DenseBitset Graph = R.labelsOf(ExprId(I));
    EXPECT_TRUE(Graph.containsAll(Observed))
        << "subtransitive graph unsound at expr " << I << " seed "
        << GetParam();
    const LimitedSet &KS = KL.ofExpr(ExprId(I));
    if (!KS.isMany()) {
      Observed.forEach([&](uint32_t L) {
        EXPECT_TRUE(std::find(KS.ids().begin(), KS.ids().end(), L) !=
                    KS.ids().end())
            << "k-limited unsound at expr " << I << " seed " << GetParam();
      });
    }
    if (IsExternal[I]) {
      EXPECT_TRUE(PolyR.labelsOf(ExprId(I)).containsAll(Observed))
          << "polyvariant unsound at expr " << I << " seed " << GetParam();
    }
  }

  for (uint32_t V = 0, N = M->numVars(); V != N; ++V) {
    const DenseBitset &Observed = Dyn.VarLabels[V];
    if (Observed.empty())
      continue;
    EXPECT_TRUE(Std.labelSetOfVar(VarId(V)).containsAll(Observed))
        << "standard CFA unsound at var " << V << " seed " << GetParam();
    EXPECT_TRUE(R.labelsOfVar(VarId(V)).containsAll(Observed))
        << "graph unsound at var " << V << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSoundness,
                         ::testing::Range<uint64_t>(1000, 1030));

class DynamicAppSoundness : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicAppSoundness, EffectsAndCalledOnceContainObservations) {
  auto M = parseAndInfer(makeRandomProgram(optionsFor(GetParam())));
  ASSERT_TRUE(M);
  InterpreterResult Dyn = interpret(*M, 2000000);

  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  FrozenGraph F(G);
  EffectsAnalysis Eff(*M, F);
  Eff.run();
  CalledOnceAnalysis CO(*M, F);
  CO.run();

  // Every dynamically effectful expression must be flagged.
  for (uint32_t I = 0, N = M->numExprs(); I != N; ++I) {
    if (Dyn.DidEffect[I]) {
      EXPECT_TRUE(Eff.isEffectful(ExprId(I)))
          << "effects analysis missed expr " << I << " seed " << GetParam();
    }
  }
  // A label dynamically called from two sites cannot be Once/Never; one
  // dynamically called at all cannot be Never.
  for (uint32_t L = 0, N = M->numLabels(); L != N; ++L) {
    size_t Sites = Dyn.CallSitesOf[L].size();
    auto C = CO.countOf(LabelId(L));
    if (Sites >= 2) {
      EXPECT_EQ(C, CalledOnceAnalysis::CallCount::Many)
          << "label " << L << " seed " << GetParam();
    }
    if (Sites == 1) {
      EXPECT_NE(C, CalledOnceAnalysis::CallCount::Never)
          << "label " << L << " seed " << GetParam();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicAppSoundness,
                         ::testing::Range<uint64_t>(1100, 1125));

void checkCorpusSoundness(const std::string &Source, const char *Name) {
  auto M = parseAndInfer(Source);
  ASSERT_TRUE(M);
  InterpreterResult Dyn = interpret(*M, 20000000);
  ASSERT_TRUE(Dyn.Completed) << Name << ": " << Dyn.Abort;

  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  Reachability R(G);
  for (uint32_t I = 0, N = M->numExprs(); I != N; ++I) {
    if (Dyn.LabelsAt[I].empty())
      continue;
    EXPECT_TRUE(R.labelsOf(ExprId(I)).containsAll(Dyn.LabelsAt[I]))
        << "graph unsound on " << Name << " at expr " << I;
  }
}

TEST(DynamicSoundnessCorpus, LifeProgram) {
  checkCorpusSoundness(lifeProgram(), "life");
}

TEST(DynamicSoundnessCorpus, MiniEval) {
  checkCorpusSoundness(miniEvalProgram(), "minieval");
}

TEST(DynamicSoundnessCorpus, ParserCombo) {
  checkCorpusSoundness(parserComboProgram(), "parsecombo");
}

TEST(DynamicSoundnessCorpus, LexgenLike) {
  checkCorpusSoundness(makeLexgenLike(12), "lexgen:12");
}

} // namespace
