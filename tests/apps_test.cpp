//===-- tests/apps_test.cpp - CFA-consuming applications (Sections 8-9) ---===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/StandardCFA.h"
#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "core/Reachability.h"
#include "gen/Generators.h"

using namespace stcfa;

namespace {

SubtransitiveConfig exact() {
  SubtransitiveConfig C;
  C.Congruence = CongruenceMode::None;
  return C;
}

struct Pipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;

  explicit Pipeline(const std::string &Source,
                    SubtransitiveConfig Config = exact()) {
    M = parseMaybeInfer(Source);
    EXPECT_TRUE(M);
    if (!M)
      return;
    G = std::make_unique<SubtransitiveGraph>(*M, Config);
    G->build();
    G->close();
    F = std::make_unique<FrozenGraph>(*G);
  }
};

//===----------------------------------------------------------------------===//
// LimitedSet lattice
//===----------------------------------------------------------------------===//

TEST(LimitedSet, InsertAndSaturate) {
  LimitedSet S;
  EXPECT_TRUE(S.insert(3, 2));
  EXPECT_TRUE(S.insert(1, 2));
  EXPECT_FALSE(S.insert(3, 2)); // duplicate
  EXPECT_FALSE(S.isMany());
  EXPECT_EQ(S.ids(), (std::vector<uint32_t>{1, 3}));
  EXPECT_TRUE(S.insert(2, 2)); // third distinct element saturates
  EXPECT_TRUE(S.isMany());
  EXPECT_FALSE(S.insert(9, 2)); // Many absorbs
}

TEST(LimitedSet, MergeRules) {
  LimitedSet A, B;
  A.insert(1, 3);
  B.insert(2, 3);
  B.insert(3, 3);
  EXPECT_TRUE(A.mergeFrom(B, 3));
  EXPECT_EQ(A.ids(), (std::vector<uint32_t>{1, 2, 3}));
  EXPECT_FALSE(A.mergeFrom(B, 3)); // idempotent
  LimitedSet ManySet;
  ManySet.insert(7, 0); // k=0: anything saturates
  EXPECT_TRUE(ManySet.isMany());
  EXPECT_TRUE(A.mergeFrom(ManySet, 3));
  EXPECT_TRUE(A.isMany());
}

//===----------------------------------------------------------------------===//
// Effects analysis
//===----------------------------------------------------------------------===//

TEST(Effects, DirectPrint) {
  Pipeline P("print \"x\"");
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  EXPECT_TRUE(E.isEffectful(P.M->root()));
}

TEST(Effects, PureProgramHasNone) {
  Pipeline P("let f = fn x => x + 1 in f (f 2)");
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  EXPECT_EQ(E.numEffectful(), 0u);
}

TEST(Effects, CallingAnEffectfulFunction) {
  Pipeline P("let noisy = fn x => #2 (print \"hi\", x) in noisy 1");
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  // The application is red; the abstraction itself is a pure value.
  const auto *Let = cast<LetExpr>(P.M->expr(P.M->root()));
  EXPECT_TRUE(E.isEffectful(Let->body()));
  EXPECT_FALSE(E.isEffectful(Let->init()));
}

TEST(Effects, EffectThroughHigherOrderFlow) {
  // The effectful function reaches the call site through an identity.
  Pipeline P("let id = fn f => f in "
             "let noisy = fn x => #2 (print \"hi\", x) in "
             "(id noisy) 7");
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  const auto *LetId = cast<LetExpr>(P.M->expr(P.M->root()));
  const auto *LetNoisy = cast<LetExpr>(P.M->expr(LetId->body()));
  EXPECT_TRUE(E.isEffectful(LetNoisy->body()));
  // `id noisy` itself only builds a value: calling id is pure.
  const auto *Outer = cast<AppExpr>(P.M->expr(LetNoisy->body()));
  EXPECT_FALSE(E.isEffectful(Outer->fn()));
}

TEST(Effects, PureCallSiteStaysPure) {
  Pipeline P("let noisy = fn x => #2 (print \"hi\", x) in "
             "let quiet = fn x => x in "
             "(noisy 1, quiet 2)");
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  const auto *L1 = cast<LetExpr>(P.M->expr(P.M->root()));
  const auto *L2 = cast<LetExpr>(P.M->expr(L1->body()));
  const auto *T = cast<TupleExpr>(P.M->expr(L2->body()));
  EXPECT_TRUE(E.isEffectful(T->elems()[0]));
  EXPECT_FALSE(E.isEffectful(T->elems()[1]));
}

TEST(Effects, RefAssignmentIsAnEffect) {
  Pipeline P("let r = ref 1 in r := 2");
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  EXPECT_TRUE(E.isEffectful(P.M->root()));
}

TEST(Effects, EffectsFamilySeparatesWrappersFromPure) {
  Pipeline P(makeEffectsFamily(6));
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  StandardCFA Std(*P.M);
  Std.run();
  EffectsAnalysisRef Ref(*P.M, Std);
  Ref.run();
  for (uint32_t I = 0, N = P.M->numExprs(); I != N; ++I)
    EXPECT_EQ(E.isEffectful(ExprId(I)), Ref.isEffectful(ExprId(I)))
        << "expr " << I;
  EXPECT_GT(E.numEffectful(), 0u);
}

class EffectsProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EffectsProperty, AgreesWithReferencePipeline) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 60;
  O.UseEffects = true;
  O.UseRefs = false;
  Pipeline P(makeRandomProgram(O));
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  StandardCFA Std(*P.M);
  Std.run();
  EffectsAnalysisRef Ref(*P.M, Std);
  Ref.run();
  for (uint32_t I = 0, N = P.M->numExprs(); I != N; ++I)
    EXPECT_EQ(E.isEffectful(ExprId(I)), Ref.isEffectful(ExprId(I)))
        << "expr " << I << " seed " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Seeds, EffectsProperty,
                         ::testing::Range<uint64_t>(400, 420));

class EffectsRefProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EffectsRefProperty, SoundWithRefs) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 60;
  O.UseEffects = true;
  O.UseRefs = true;
  Pipeline P(makeRandomProgram(O));
  ASSERT_TRUE(P.G);
  EffectsAnalysis E(*P.M, *P.F);
  E.run();
  StandardCFA Std(*P.M);
  Std.run();
  EffectsAnalysisRef Ref(*P.M, Std);
  Ref.run();
  // Graph effects may be coarser (invariant ref closure) but never miss.
  for (uint32_t I = 0, N = P.M->numExprs(); I != N; ++I)
    if (Ref.isEffectful(ExprId(I))) {
      EXPECT_TRUE(E.isEffectful(ExprId(I)))
          << "missed effect at expr " << I << " seed " << GetParam();
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EffectsRefProperty,
                         ::testing::Range<uint64_t>(500, 515));

//===----------------------------------------------------------------------===//
// k-limited CFA
//===----------------------------------------------------------------------===//

TEST(KLimited, SmallSetsAreExact) {
  Pipeline P("let pick = fn b => if b then fn x => x else fn y => y in "
             "pick true");
  ASSERT_TRUE(P.G);
  KLimitedCFA KL(*P.M, *P.F, 3);
  KL.run();
  const auto *Let = cast<LetExpr>(P.M->expr(P.M->root()));
  const LimitedSet &S = KL.ofExpr(Let->body());
  ASSERT_FALSE(S.isMany());
  EXPECT_EQ(S.size(), 2u);
}

TEST(KLimited, SaturatesBeyondK) {
  // Five functions joined at one variable; k=2 must report Many.
  std::string Src = "let f = fn x => x;\n";
  for (int I = 0; I < 5; ++I)
    Src += "let r" + std::to_string(I) + " = f (fn a" + std::to_string(I) +
           " => a" + std::to_string(I) + ");\n";
  Src += "r0";
  Pipeline P(Src);
  ASSERT_TRUE(P.G);
  KLimitedCFA KL(*P.M, *P.F, 2);
  KL.run();
  EXPECT_TRUE(KL.ofVar(varNamed(*P.M, "x")).isMany());
}

class KLimitedProperty
    : public ::testing::TestWithParam<std::tuple<uint64_t, uint32_t>> {};

TEST_P(KLimitedProperty, MatchesExactReachability) {
  auto [Seed, K] = GetParam();
  RandomProgramOptions O;
  O.Seed = Seed;
  O.NumBindings = 60;
  Pipeline P(makeRandomProgram(O));
  ASSERT_TRUE(P.G);
  KLimitedCFA KL(*P.M, *P.F, K);
  KL.run();
  Reachability R(*P.G);
  for (uint32_t I = 0, N = P.M->numExprs(); I != N; ++I) {
    DenseBitset Exact = R.labelsOf(ExprId(I));
    const LimitedSet &S = KL.ofExpr(ExprId(I));
    if (S.isMany()) {
      EXPECT_GT(Exact.count(), K) << "expr " << I << " seed " << Seed;
    } else {
      ASSERT_EQ(S.size(), Exact.count()) << "expr " << I << " seed " << Seed;
      for (uint32_t L : S.ids())
        EXPECT_TRUE(Exact.contains(L)) << "expr " << I << " seed " << Seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndK, KLimitedProperty,
    ::testing::Combine(::testing::Values<uint64_t>(600, 601, 602, 603, 604),
                       ::testing::Values<uint32_t>(1, 2, 3, 5)));

//===----------------------------------------------------------------------===//
// Called-once analysis
//===----------------------------------------------------------------------===//

TEST(CalledOnce, Family) {
  Pipeline P(makeCalledOnceFamily(4));
  ASSERT_TRUE(P.G);
  CalledOnceAnalysis CO(*P.M, *P.F);
  CO.run();
  int Once = 0, Many = 0, Never = 0;
  for (uint32_t L = 0; L != P.M->numLabels(); ++L) {
    switch (CO.countOf(LabelId(L))) {
    case CalledOnceAnalysis::CallCount::Once:
      ++Once;
      break;
    case CalledOnceAnalysis::CallCount::Many:
      ++Many;
      break;
    case CalledOnceAnalysis::CallCount::Never:
      ++Never;
      break;
    }
  }
  EXPECT_EQ(Once, 4);  // once1..once4
  EXPECT_EQ(Many, 4);  // twice1..twice4
  EXPECT_EQ(Never, 0);
}

TEST(CalledOnce, UniqueSiteIsReported) {
  Pipeline P("let g = fn x => x in g 5");
  ASSERT_TRUE(P.G);
  CalledOnceAnalysis CO(*P.M, *P.F);
  CO.run();
  LabelId G1 = labelOfFnWithParam(*P.M, "x");
  ASSERT_EQ(CO.countOf(G1), CalledOnceAnalysis::CallCount::Once);
  ExprId Site = CO.uniqueCallSite(G1);
  EXPECT_TRUE(isa<AppExpr>(P.M->expr(Site)));
}

TEST(CalledOnce, UncalledFunction) {
  Pipeline P("let dead = fn x => x in 42");
  ASSERT_TRUE(P.G);
  CalledOnceAnalysis CO(*P.M, *P.F);
  CO.run();
  EXPECT_EQ(CO.countOf(labelOfFnWithParam(*P.M, "x")),
            CalledOnceAnalysis::CallCount::Never);
}

class CalledOnceProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CalledOnceProperty, MatchesBruteForce) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 50;
  Pipeline P(makeRandomProgram(O));
  ASSERT_TRUE(P.G);
  CalledOnceAnalysis CO(*P.M, *P.F);
  CO.run();
  Reachability R(*P.G);

  // Brute force: for each label, enumerate application sites whose
  // operator can evaluate to it.
  for (uint32_t L = 0; L != P.M->numLabels(); ++L) {
    int Sites = 0;
    ExprId TheSite = ExprId::invalid();
    for (uint32_t I = 0, N = P.M->numExprs(); I != N; ++I) {
      const auto *A = dyn_cast<AppExpr>(P.M->expr(ExprId(I)));
      if (!A)
        continue;
      if (R.labelsOf(A->fn()).contains(L)) {
        ++Sites;
        TheSite = ExprId(I);
      }
    }
    auto Want = Sites == 0   ? CalledOnceAnalysis::CallCount::Never
                : Sites == 1 ? CalledOnceAnalysis::CallCount::Once
                             : CalledOnceAnalysis::CallCount::Many;
    EXPECT_EQ(CO.countOf(LabelId(L)), Want)
        << "label " << L << " seed " << GetParam();
    if (Sites == 1) {
      EXPECT_EQ(CO.uniqueCallSite(LabelId(L)), TheSite);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CalledOnceProperty,
                         ::testing::Range<uint64_t>(700, 720));

//===----------------------------------------------------------------------===//
// Governed runs
//===----------------------------------------------------------------------===//

/// Never < Once < Many.
int rankOf(CalledOnceAnalysis::CallCount C) {
  switch (C) {
  case CalledOnceAnalysis::CallCount::Never:
    return 0;
  case CalledOnceAnalysis::CallCount::Once:
    return 1;
  case CalledOnceAnalysis::CallCount::Many:
    return 2;
  }
  return 3;
}

/// Every label of \p Partial ranks at or below its rank in \p Full, and
/// a unique site kept by both is the same site.
void expectCalledOnceUnderApproximates(const Module &M,
                                       const CalledOnceAnalysis &Partial,
                                       const CalledOnceAnalysis &Full) {
  bool Below = false;
  for (uint32_t L = 0; L != M.numLabels(); ++L) {
    const int P = rankOf(Partial.countOf(LabelId(L)));
    const int W = rankOf(Full.countOf(LabelId(L)));
    EXPECT_LE(P, W) << "label " << L;
    Below |= P < W;
    if (P == 1 && W == 1) {
      EXPECT_EQ(Partial.uniqueCallSite(LabelId(L)),
                Full.uniqueCallSite(LabelId(L)))
          << "label " << L;
    }
  }
  EXPECT_TRUE(Below) << "the governed run did not stop early";
}

TEST(GovernedApps, CalledOnceStopsOnDeadlineAndCancellation) {
  Pipeline P(makeCalledOnceFamily(16));
  ASSERT_TRUE(P.G);
  CalledOnceAnalysis Full(*P.M, *P.F);
  ASSERT_TRUE(Full.run(Deadline::infinite()).isOk());

  CalledOnceAnalysis Expired(*P.M, *P.F);
  EXPECT_EQ(Expired.run(Deadline::afterMillis(0)).code(),
            StatusCode::DeadlineExceeded);
  EXPECT_EQ(Expired.runStatus().code(), StatusCode::DeadlineExceeded);
  expectCalledOnceUnderApproximates(*P.M, Expired, Full);

  CancellationToken Token = CancellationToken::create();
  Token.requestCancel();
  CalledOnceAnalysis Cancelled(*P.M, *P.F);
  EXPECT_EQ(Cancelled.run(Deadline::infinite(), Token).code(),
            StatusCode::Cancelled);
  EXPECT_EQ(Cancelled.runStatus().code(), StatusCode::Cancelled);
  expectCalledOnceUnderApproximates(*P.M, Cancelled, Full);
}

TEST(GovernedApps, EffectsStopOnDeadlineAndCancellation) {
  Pipeline P(makeEffectsFamily(16));
  ASSERT_TRUE(P.G);
  EffectsAnalysis Full(*P.M, *P.F);
  ASSERT_TRUE(Full.run(Deadline::infinite()).isOk());

  EffectsAnalysis Expired(*P.M, *P.F);
  EXPECT_EQ(Expired.run(Deadline::afterMillis(0)).code(),
            StatusCode::DeadlineExceeded);
  EXPECT_EQ(Expired.runStatus().code(), StatusCode::DeadlineExceeded);

  CancellationToken Token = CancellationToken::create();
  Token.requestCancel();
  EffectsAnalysis Cancelled(*P.M, *P.F);
  EXPECT_EQ(Cancelled.run(Deadline::infinite(), Token).code(),
            StatusCode::Cancelled);
  EXPECT_EQ(Cancelled.runStatus().code(), StatusCode::Cancelled);

  // Both stopped marks are under-approximations of the fixpoint.
  for (const EffectsAnalysis *Partial : {&Expired, &Cancelled}) {
    EXPECT_LT(Partial->numEffectful(), Full.numEffectful());
    for (uint32_t I = 0, N = P.M->numExprs(); I != N; ++I)
      if (Partial->isEffectful(ExprId(I))) {
        EXPECT_TRUE(Full.isEffectful(ExprId(I))) << "expr " << I;
      }
  }
}

} // namespace
