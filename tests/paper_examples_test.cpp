//===-- tests/paper_examples_test.cpp - Remaining paper examples ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Direct checks of the paper's remaining worked examples and remarks:
/// the Section 5 polymorphic `id` program, the exponential-type footnote,
/// the Section 2 join-point fragment, plus forward/backward query
/// consistency and the robustness of the front end on malformed input.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "gen/Generators.h"
#include "sema/Infer.h"

#include <algorithm>

using namespace stcfa;

namespace {

TEST(PaperExamples, Section5PolymorphicId) {
  // fun id x = x; val y = ((id id) id) 1 — the paper's Section 5 program
  // whose let-expansion induces three monotypes for id.
  auto M = parseAndInfer("let id = fn x => x in ((id id) id) 1");
  ASSERT_TRUE(M);

  // The three occurrences of id carry increasingly large instantiated
  // monotypes (Int->Int, (Int->Int)->(Int->Int), ...), exactly the
  // paper's list.
  std::vector<uint32_t> Sizes;
  forEachExprPreorder(*M, M->root(), [&](ExprId, const Expr *E) {
    if (isa<VarExpr>(E) &&
        M->text(M->var(cast<VarExpr>(E)->var()).Name) == "id")
      Sizes.push_back(M->types().treeSize(E->type()));
  });
  ASSERT_EQ(Sizes.size(), 3u);
  std::sort(Sizes.begin(), Sizes.end());
  EXPECT_EQ(Sizes[0], 3u);  // Int -> Int
  EXPECT_EQ(Sizes[1], 7u);  // (Int->Int) -> (Int->Int)
  EXPECT_EQ(Sizes[2], 15u); // one level up again

  // And the analysis is exact on it.
  StandardCFA Std(*M);
  Std.run();
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  Reachability R(G);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(R.labelsOf(ExprId(I)) == Std.labelSet(ExprId(I)));
}

TEST(PaperExamples, ExponentialTypeFootnote) {
  // The Section 4 remark: "in general, the tree-size of a program can be
  // exponential in program size".  `pair x = (x, x)` nested n times
  // doubles the type each level.  The demand-driven LC' must stay small
  // regardless, because nothing demands the deep paths.
  std::string Src = "let pair = fn x => (x, x) in\n"
                    "let p1 = pair 1 in\n";
  for (int I = 2; I <= 12; ++I)
    Src += "let p" + std::to_string(I) + " = pair p" + std::to_string(I - 1) +
           " in\n";
  Src += "0";
  auto M = parseAndInfer(Src);
  ASSERT_TRUE(M);

  TypeMetrics TM = computeTypeMetrics(*M);
  EXPECT_GT(TM.MaxTypeSize, 4000u) << "types should explode";

  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  // ...but the demand-driven graph stays proportional to the program.
  EXPECT_LT(G.stats().totalNodes(), uint64_t(M->numExprs()) * 8);
  EXPECT_EQ(G.stats().Widenings, 0u);

  StandardCFA Std(*M);
  Std.run();
  Reachability R(G);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(R.labelsOf(ExprId(I)) == Std.labelSet(ExprId(I)));
}

TEST(PaperExamples, Section2JoinPointGrowsLinearly) {
  // "the information collected for x can grow linearly": at family size n
  // the shared parameter's label set has n elements.
  for (int N : {3, 7, 11}) {
    auto M = parseAndInfer(makeJoinPointFamily(N));
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    Reachability R(G);
    EXPECT_EQ(R.labelsOfVar(varNamed(*M, "x")).count(),
              static_cast<uint32_t>(N));
  }
}

//===----------------------------------------------------------------------===//
// Query consistency
//===----------------------------------------------------------------------===//

class QueryConsistency : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryConsistency, ForwardAndBackwardAgree) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 40;
  auto M = parseAndInfer(makeRandomProgram(O));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  Reachability R(G);

  // l ∈ labelsOf(e)  ⟺  e ∈ occurrencesOf(l)  ⟺  isLabelIn(e, l), and the
  // kernel batch over every occurrence agrees with the point queries.
  std::vector<DenseBitset> All;
  std::vector<ExprId> AllExprs;
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    All.push_back(R.labelsOf(ExprId(I)));
    AllExprs.push_back(ExprId(I));
  }
  FrozenGraph F(G);
  QueryEngine Engine(F);
  std::vector<DenseBitset> Batch = Engine.labelsOfBatch(AllExprs);
  ASSERT_TRUE(Engine.kernel() && Engine.kernel()->complete());
  for (uint32_t L = 0; L != M->numLabels(); ++L) {
    std::vector<ExprId> Occs = R.occurrencesOf(LabelId(L));
    std::vector<bool> InOccs(M->numExprs(), false);
    for (ExprId E : Occs)
      InOccs[E.index()] = true;
    for (uint32_t I = 0; I != M->numExprs(); ++I) {
      bool Forward = All[I].contains(L);
      EXPECT_EQ(Forward, InOccs[I])
          << "expr " << I << " label " << L << " seed " << GetParam();
      EXPECT_EQ(Forward, R.isLabelIn(ExprId(I), LabelId(L)))
          << "expr " << I << " label " << L << " seed " << GetParam();
      EXPECT_TRUE(All[I] == Batch[I]) << "expr " << I;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryConsistency,
                         ::testing::Range<uint64_t>(1700, 1710));

//===----------------------------------------------------------------------===//
// Front-end robustness
//===----------------------------------------------------------------------===//

TEST(Robustness, MalformedInputsNeverCrash) {
  const char *Bad[] = {
      "",
      "(",
      ")",
      "fn",
      "fn x",
      "fn x =>",
      "let",
      "let x",
      "let x =",
      "let x = 1",
      "let x = 1 in",
      "if 1 then 2",
      "case 1 of",
      "data",
      "data D",
      "data D =",
      "data D = d;1",     // lower-case constructor
      "#0 (1, 2)",        // zero index
      "# (1, 2)",
      "\"unterminated",
      "1 +",
      ":= 2",
      "let let = 1 in 2", // keyword as name
      "x",
      "fn x => y",
      "(* unclosed",
      "let f = fn x => x in f ;",
      "\x01\x02\xff",
  };
  for (const char *Src : Bad) {
    DiagnosticEngine Diags;
    auto M = parseProgram(Src, Diags);
    EXPECT_EQ(M, nullptr) << "accepted malformed input: " << Src;
    EXPECT_TRUE(Diags.hasErrors()) << Src;
  }
}

TEST(Robustness, DeepNestingWithinLimitParses) {
  std::string Src(500, '(');
  Src += "1";
  Src.append(500, ')');
  auto M = parseOrDie(Src);
  EXPECT_TRUE(M);
}

TEST(Robustness, AbsurdNestingIsRejectedNotCrashed) {
  // Beyond the parser's depth bound the input is diagnosed cleanly.
  // Big stack: the guard is calibrated for release frames (TestUtil.h).
  runOnBigStack([] {
    std::string Src(100000, '(');
    Src += "1";
    Src.append(100000, ')');
    DiagnosticEngine Diags;
    EXPECT_EQ(parseProgram(Src, Diags), nullptr);
    EXPECT_TRUE(Diags.hasErrors());
  });
}

TEST(Robustness, LongLetSpineEverywhere) {
  // 20k-binding spine: parser loop, inference spine loop, analyses.
  std::string Src;
  Src += "let a0 = fn x => x;\n";
  for (int I = 1; I < 20000; ++I)
    Src += "let a" + std::to_string(I) + " = a" + std::to_string(I - 1) +
           ";\n";
  Src += "a19999";
  auto M = parseAndInfer(Src);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M);
  G.build();
  G.close();
  Reachability R(G);
  EXPECT_EQ(R.labelsOf(M->root()).count(), 1u);
}

} // namespace
