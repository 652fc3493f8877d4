//===-- tests/testgen_test.cpp - Condensation-shape generator tests -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The stress generator's contracts (testgen/ShapeGen.h):
///
///   * every family emits well-formed, well-typed programs at any N;
///   * generation is deterministic in `(shape, N, seed)`, and the seed
///     perturbs only emission order — never the shape class or the
///     analysis answers;
///   * the condensation geometry actually matches the family name: deep
///     is a skinny path (depth grows with N), wide is one fat level,
///     skewed is fat-then-skinny;
///   * the spec parser round-trips and rejects malformed specs without
///     clobbering its output.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/Reachability.h"
#include "core/SubtransitiveGraph.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

std::vector<CondShape> allShapes() {
  return {CondShape::Wide, CondShape::Deep, CondShape::Diamond,
          CondShape::Skewed};
}

struct BuiltShape {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

BuiltShape buildShape(const ShapeSpec &Spec) {
  BuiltShape B;
  B.M = parseAndInfer(makeShapeProgram(Spec));
  if (!B.M)
    return B;
  B.G = std::make_unique<SubtransitiveGraph>(*B.M);
  B.G->build();
  B.G->close();
  EXPECT_FALSE(B.G->aborted()) << shapeSpecString(Spec);
  B.F = std::make_unique<FrozenGraph>(*B.G);
  return B;
}

/// Runs a fresh kernel to completion and returns it for label probes.
std::unique_ptr<LabelSetKernel> closeKernel(const FrozenGraph &F) {
  auto K = std::make_unique<LabelSetKernel>(F);
  EXPECT_TRUE(K->run().isOk());
  EXPECT_TRUE(K->complete());
  return K;
}

/// Depth of \p F's condensation DAG: the number of components on its
/// longest path (0 for an empty graph).  Component ids are reverse
/// topological, so one ascending sweep over the nodes grouped by
/// component sees every successor's depth final.
uint32_t condensationDepth(const FrozenGraph &F) {
  const Condensation &C = F.condensation();
  std::vector<std::vector<uint32_t>> Nodes(C.numSccs());
  for (uint32_t N = 0; N != F.numNodes(); ++N)
    Nodes[C.sccOf(N)].push_back(N);
  std::vector<uint32_t> Depth(C.numSccs(), 1);
  uint32_t Max = 0;
  for (uint32_t S = 0; S != C.numSccs(); ++S) {
    for (uint32_t N : Nodes[S])
      for (uint32_t J = F.outOffsets()[N]; J != F.outOffsets()[N + 1]; ++J)
        if (uint32_t T = C.sccOf(F.outTargets()[J]); T != S)
          Depth[S] = std::max(Depth[S], Depth[T] + 1);
    Max = std::max(Max, Depth[S]);
  }
  return Max;
}

} // namespace

//===----------------------------------------------------------------------===//
// Well-formedness and determinism
//===----------------------------------------------------------------------===//

TEST(ShapeGen, AllFamiliesParseAndTypeCheck) {
  for (CondShape S : allShapes()) {
    for (int N : {1, 2, 8, 33}) {
      for (uint64_t Seed : {1ull, 7ull}) {
        ShapeSpec Spec{S, N, Seed};
        auto M = parseAndInfer(makeShapeProgram(Spec));
        ASSERT_TRUE(M) << shapeSpecString(Spec);
        EXPECT_GT(M->numExprs(), 0u) << shapeSpecString(Spec);
        EXPECT_GT(M->numLabels(), 0u) << shapeSpecString(Spec);
      }
    }
  }
}

TEST(ShapeGen, DeterministicInSpec) {
  for (CondShape S : allShapes()) {
    ShapeSpec Spec{S, 12, 9};
    EXPECT_EQ(makeShapeProgram(Spec), makeShapeProgram(Spec))
        << shapeSpecString(Spec);
  }
}

TEST(ShapeGen, SeedPermutesEmissionOrderOnly) {
  // The permuting families must emit a *different* program under a
  // different seed...
  for (CondShape S : {CondShape::Wide, CondShape::Skewed}) {
    ShapeSpec A{S, 16, 1}, B{S, 16, 2};
    EXPECT_NE(makeShapeProgram(A), makeShapeProgram(B)) << shapeName(S);
  }
  // ...but the analysis answers are shape properties, not seed
  // properties: label-set sizes and condensation geometry agree across
  // seeds.
  for (CondShape S : allShapes()) {
    BuiltShape A = buildShape({S, 10, 1});
    BuiltShape B = buildShape({S, 10, 99});
    ASSERT_TRUE(A.M && B.M) << shapeName(S);
    auto KA = closeKernel(*A.F);
    auto KB = closeKernel(*B.F);
    EXPECT_EQ(condensationDepth(*A.F), condensationDepth(*B.F))
        << shapeName(S);
    EXPECT_EQ(A.F->condensation().numSccs(), B.F->condensation().numSccs())
        << shapeName(S);

    // Multisets of label-set sizes must agree (expr ids shift with
    // emission order, so compare sorted counts).
    auto Counts = [](const Module &M, LabelSetKernel &K) {
      std::vector<uint32_t> C;
      for (uint32_t I = 0, E = M.numExprs(); I != E; ++I)
        C.push_back(K.labelsOf(ExprId(I)).count());
      std::sort(C.begin(), C.end());
      return C;
    };
    EXPECT_EQ(Counts(*A.M, *KA), Counts(*B.M, *KB)) << shapeName(S);
  }
}

//===----------------------------------------------------------------------===//
// Condensation geometry matches the family name
//===----------------------------------------------------------------------===//

TEST(ShapeGen, DeepLevelsGrowWithN) {
  BuiltShape Small = buildShape({CondShape::Deep, 20, 1});
  BuiltShape Large = buildShape({CondShape::Deep, 80, 1});
  ASSERT_TRUE(Small.M && Large.M);
  const uint32_t DS = condensationDepth(*Small.F);
  const uint32_t DL = condensationDepth(*Large.F);
  // A wrapper chain condenses to a path: depth scales with N, and the
  // 4x deeper chain must be ~4x as deep (allow generous slack for the
  // fixed prologue/epilogue components).
  EXPECT_GE(DS, 20u);
  EXPECT_GE(DL, 80u);
  EXPECT_GE(DL, 3 * DS);
}

TEST(ShapeGen, WideIsShallowerThanDeepAtEqualN) {
  BuiltShape W = buildShape({CondShape::Wide, 60, 1});
  BuiltShape D = buildShape({CondShape::Deep, 60, 1});
  ASSERT_TRUE(W.M && D.M);
  // wide:N's branches run in parallel (each contributes only its fixed
  // per-branch plumbing depth); deep:N is a path where every wrapper
  // stacks.  At equal N the wide DAG must be markedly shallower despite
  // having more SCCs.
  EXPECT_LT(condensationDepth(*W.F) * 2, condensationDepth(*D.F));
}

TEST(ShapeGen, SkewedIsDeeperThanWideAtEqualN) {
  BuiltShape S = buildShape({CondShape::Skewed, 40, 1});
  BuiltShape W = buildShape({CondShape::Wide, 40, 1});
  ASSERT_TRUE(S.M && W.M);
  // The skewed family appends a depth-N tail to the wide join.
  EXPECT_GE(condensationDepth(*S.F), condensationDepth(*W.F) + 40);
}

TEST(ShapeGen, WideJoinSeesAllLabels) {
  // Every w_i flows through the shared conduit's parameter, so the
  // conduit body's label set contains all N wrapper labels.
  const int N = 8;
  BuiltShape B = buildShape({CondShape::Wide, N, 3});
  ASSERT_TRUE(B.M);
  auto K = closeKernel(*B.F);
  Reachability R(*B.G);
  uint32_t MaxCount = 0;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
    DenseBitset L = K->labelsOf(ExprId(I));
    ASSERT_TRUE(L == R.labelsOf(ExprId(I))) << "expr " << I;
    MaxCount = std::max(MaxCount, L.count());
  }
  EXPECT_GE(MaxCount, static_cast<uint32_t>(N));
}

TEST(ShapeGen, KernelMatchesBfsOnAllFamilies) {
  for (CondShape S : allShapes()) {
    for (uint64_t Seed : {1ull, 5ull}) {
      BuiltShape B = buildShape({S, 14, Seed});
      ASSERT_TRUE(B.M) << shapeName(S);
      auto K = closeKernel(*B.F);
      Reachability R(*B.G);
      for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
        ASSERT_TRUE(K->labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)))
            << shapeName(S) << " seed " << Seed << " expr " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Spec parsing
//===----------------------------------------------------------------------===//

TEST(ShapeGen, ParseSpecAccepts) {
  ShapeSpec S;
  ASSERT_TRUE(parseShapeSpec("wide:64", S));
  EXPECT_EQ(S.Shape, CondShape::Wide);
  EXPECT_EQ(S.N, 64);
  EXPECT_EQ(S.Seed, 1u); // default seed

  ASSERT_TRUE(parseShapeSpec("deep:500:7", S));
  EXPECT_EQ(S.Shape, CondShape::Deep);
  EXPECT_EQ(S.N, 500);
  EXPECT_EQ(S.Seed, 7u);

  ASSERT_TRUE(parseShapeSpec("diamond:1", S));
  EXPECT_EQ(S.Shape, CondShape::Diamond);
  ASSERT_TRUE(parseShapeSpec("skewed:32:12345", S));
  EXPECT_EQ(S.Shape, CondShape::Skewed);
  EXPECT_EQ(S.Seed, 12345u);
}

TEST(ShapeGen, ParseSpecRejectsWithoutClobbering) {
  ShapeSpec S{CondShape::Diamond, 77, 9};
  for (const char *Bad :
       {"", "wide", "wide:", "wide:0", "wide:-3", "wide:abc", "wide:3:",
        "wide:3:x", "cubic:100", "tall:5", ":5", "wide:3:4:5x"}) {
    EXPECT_FALSE(parseShapeSpec(Bad, S)) << "'" << Bad << "'";
    EXPECT_EQ(S.Shape, CondShape::Diamond) << "'" << Bad << "'";
    EXPECT_EQ(S.N, 77) << "'" << Bad << "'";
    EXPECT_EQ(S.Seed, 9u) << "'" << Bad << "'";
  }
}

TEST(ShapeGen, SpecStringRoundTrips) {
  for (CondShape Shape : allShapes()) {
    ShapeSpec In{Shape, 42, 17};
    ShapeSpec Out;
    ASSERT_TRUE(parseShapeSpec(shapeSpecString(In), Out));
    EXPECT_EQ(Out.Shape, In.Shape);
    EXPECT_EQ(Out.N, In.N);
    EXPECT_EQ(Out.Seed, In.Seed);
  }
}

TEST(ShapeGen, ShapeNamesParseBack) {
  for (CondShape Shape : allShapes()) {
    ShapeSpec Out;
    EXPECT_TRUE(
        parseShapeSpec(std::string(shapeName(Shape)) + ":5", Out));
    EXPECT_EQ(Out.Shape, Shape);
  }
}
