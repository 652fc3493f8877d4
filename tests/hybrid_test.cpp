//===-- tests/hybrid_test.cpp - The hybrid CFA ladder ---------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the Conclusion's hybrid algorithm: subtransitive first, cubic
/// fallback for arbitrary programs.  (Section 10's chain compression lives
/// in the label-set kernel's interning; tests/label_set_kernel_test.cpp
/// covers it.)
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/HybridCFA.h"
#include "gen/Generators.h"

using namespace stcfa;

namespace {

//===----------------------------------------------------------------------===//
// HybridCFA
//===----------------------------------------------------------------------===//

TEST(Hybrid, BoundedProgramUsesSubtransitive) {
  auto M = parseMaybeInfer(makeCubicFamily(4));
  ASSERT_TRUE(M);
  HybridCFA H(*M);
  H.run();
  EXPECT_EQ(H.engine(), HybridCFA::Engine::Subtransitive);
  EXPECT_NE(H.graph(), nullptr);
}

TEST(Hybrid, RecursiveDatatypeTraversalFallsBack) {
  // Recursive traversal of a recursive datatype with exact tracking
  // diverges (widening) — the hybrid must fall back to the standard
  // algorithm.
  auto M = parseMaybeInfer(
      "data FList = FNil | FCons(Int -> Int, FList);\n"
      "letrec map = fn f => fn l => case l of FNil => FNil "
      "| FCons(h, t) => FCons(f h, map f t) end in "
      "map (fn g => g) (FCons(fn x => x + 1, FNil))");
  ASSERT_TRUE(M);
  HybridCFA H(*M);
  H.run();
  EXPECT_EQ(H.engine(), HybridCFA::Engine::Standard);
}

TEST(Hybrid, UntypedSelfApplicationStillTerminates) {
  // (fn x => x x)(fn y => y) is untypeable; either engine must still
  // produce the right answer.
  auto M = parseMaybeInfer("(fn x => x x) (fn y => y)");
  ASSERT_TRUE(M);
  HybridCFA H(*M);
  H.run();
  EXPECT_TRUE(H.labelSet(M->root())
                  .contains(labelOfFnWithParam(*M, "y").index()));
}

class HybridEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HybridEquivalence, MatchesStandardCFA) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 50;
  O.UseRefs = false;
  auto M = parseAndInfer(makeRandomProgram(O));
  ASSERT_TRUE(M);
  HybridCFA H(*M);
  H.run();
  StandardCFA Std(*M);
  Std.run();
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    DenseBitset Want = Std.labelSet(ExprId(I));
    DenseBitset Got = H.labelSet(ExprId(I));
    if (H.engine() == HybridCFA::Engine::Subtransitive) {
      // The subtransitive engine with exact tracking is exact.
      EXPECT_TRUE(Got == Want) << "expr " << I << " seed " << GetParam();
    } else {
      EXPECT_TRUE(Got.containsAll(Want));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HybridEquivalence,
                         ::testing::Range<uint64_t>(1200, 1215));

TEST(Hybrid, TinyBudgetForcesFallbackButStaysCorrect) {
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  HybridCFA H(*M, /*BudgetFactor=*/0); // MaxNodes ~ 1024: cubic:8 exceeds it
  H.run();
  StandardCFA Std(*M);
  Std.run();
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(H.labelSet(ExprId(I)) == Std.labelSet(ExprId(I)));
}

} // namespace
