//===-- tests/core_graph_test.cpp - Subtransitive graph structure ---------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "core/Reachability.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "support/Hashing.h"
#include "testgen/ShapeGen.h"

#include <cinttypes>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>

using namespace stcfa;

namespace {

SubtransitiveConfig exact() {
  SubtransitiveConfig C;
  C.Congruence = CongruenceMode::None;
  return C;
}

bool hasEdge(const SubtransitiveGraph &G, NodeId A, NodeId B) {
  for (NodeId S : G.succs(A))
    if (S == B)
      return true;
  return false;
}

//===----------------------------------------------------------------------===//
// The build-phase rules, edge by edge (the paper's Section 3 derivation)
//===----------------------------------------------------------------------===//

TEST(GraphStructure, PaperBuildEdges) {
  // (fn x => x x) (fn y => y): the first four rule applications of the
  // Section 3 LC example.
  auto M = parseMaybeInfer("(fn x => x x) (fn y => y)");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();

  const auto *App = cast<AppExpr>(M->expr(M->root()));
  NodeId LamX = G.exprNode(App->fn());
  NodeId LamY = G.exprNode(App->arg());
  const auto *LX = cast<LamExpr>(M->expr(App->fn()));
  NodeId VarX = G.varNode(LX->param());

  // ABS-1: x -> dom(fn x => ...), for both abstractions.
  EXPECT_TRUE(hasEdge(G, VarX, G.domNode(LamX)));
  // ABS-2: ran(fn x => ...) -> (x x).
  EXPECT_TRUE(hasEdge(G, G.ranNode(LamX), G.exprNode(LX->body())));
  // APP-1: dom(e1) -> e2 for the outer application.
  EXPECT_TRUE(hasEdge(G, G.domNode(LamX), LamY));
  // APP-2: (e1 e2) -> ran(e1).
  EXPECT_TRUE(hasEdge(G, G.exprNode(M->root()), G.ranNode(LamX)));
}

TEST(GraphStructure, PaperCloseDerivation) {
  // After closing, the whole application must reach fn y => y through a
  // multi-step chain (Proposition 1's factored derivation).
  auto M = parseMaybeInfer("(fn x => x x) (fn y => y)");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  uint64_t BuildEdges = G.stats().BuildEdges;
  G.close();
  EXPECT_GT(G.stats().CloseEdges, 0u);
  EXPECT_EQ(G.stats().BuildEdges, BuildEdges) << "build count frozen";

  Reachability R(G);
  EXPECT_TRUE(R.isLabelIn(M->root(), labelOfFnWithParam(*M, "y")));
  // But there is NO direct edge root -> fn y (it is genuinely
  // subtransitive: only the closure's multi-step path connects them).
  const auto *App = cast<AppExpr>(M->expr(M->root()));
  EXPECT_FALSE(hasEdge(G, G.exprNode(M->root()), G.exprNode(App->arg())));
}

TEST(GraphStructure, BuildIsLinearPass) {
  // Build-phase node and edge counts grow linearly in program size.
  auto M1 = parseMaybeInfer(makeCubicFamily(8));
  auto M2 = parseMaybeInfer(makeCubicFamily(16));
  ASSERT_TRUE(M1 && M2);
  SubtransitiveGraph G1(*M1, exact()), G2(*M2, exact());
  G1.build();
  G2.build();
  double NodeRatio =
      double(G2.stats().BuildNodes) / double(G1.stats().BuildNodes);
  EXPECT_NEAR(NodeRatio, 2.0, 0.25);
}

TEST(GraphStructure, DescribeRendersPaths) {
  auto M = parseMaybeInfer("fn x => x");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  NodeId Lam = G.exprNode(M->root());
  EXPECT_EQ(G.describe(G.domNode(Lam)).substr(0, 4), "dom(");
  EXPECT_EQ(G.describe(G.ranNode(Lam)).substr(0, 4), "ran(");
  const auto *LX = cast<LamExpr>(M->expr(M->root()));
  EXPECT_EQ(G.describe(G.varNode(LX->param())), "var:x");
}

TEST(GraphStructure, DerivedNodesAreHashConsed) {
  auto M = parseMaybeInfer("fn x => x");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  NodeId Lam = G.exprNode(M->root());
  EXPECT_EQ(G.domNode(Lam), G.domNode(Lam));
  EXPECT_NE(G.domNode(Lam), G.ranNode(Lam));
  EXPECT_EQ(G.lookupDerived(NodeOp::Dom, Lam), G.domNode(Lam));
}

TEST(GraphStructure, EdgesAreDeduplicated) {
  auto M = parseMaybeInfer("fn x => x");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  NodeId A = G.exprNode(M->root());
  NodeId B = G.labelNode(LabelId(0));
  uint64_t Before = G.stats().BuildEdges;
  G.addEdge(A, B);
  G.addEdge(A, B);
  G.addEdge(A, A); // self edges are dropped
  EXPECT_EQ(G.stats().BuildEdges, Before + 1);
}

//===----------------------------------------------------------------------===//
// Widening
//===----------------------------------------------------------------------===//

TEST(GraphStructure, WideningKeepsLabelSoundness) {
  // Recursive datatype + recursive traversal with a tiny depth budget:
  // widening must engage and the result must still contain the truth.
  const char *Source =
      "data FList = FNil | FCons(Int -> Int, FList);\n"
      "letrec nth = fn l => fn n => case l of "
      "FNil => (fn z => z) | FCons(h, t) => if n == 0 then h else "
      "nth t (n - 1) end in "
      "(nth (FCons(fn a => a + 1, FNil)) 0) 5";
  auto M = parseMaybeInfer(Source);
  ASSERT_TRUE(M);
  SubtransitiveConfig C = exact();
  C.MaxNodeDepth = 3;
  SubtransitiveGraph G(*M, C);
  G.build();
  G.close();
  EXPECT_GT(G.stats().Widenings, 0u);
  Reachability R(G);
  // The dynamic truth: `nth ... 0` evaluates to fn a => a + 1, so the
  // operator of the outermost application must see that label.
  const auto *Let = cast<LetExpr>(M->expr(M->root()));
  const auto *App = cast<AppExpr>(M->expr(Let->body()));
  EXPECT_TRUE(R.labelsOf(App->fn())
                  .contains(labelOfFnWithParam(*M, "a").index()));
}

//===----------------------------------------------------------------------===//
// Fragments and externalized variables (the Section 7 machinery)
//===----------------------------------------------------------------------===//

TEST(GraphStructure, FragmentBuildsOnlyTheSubtree) {
  auto M = parseMaybeInfer("let f = fn x => x in f (fn a => a)");
  ASSERT_TRUE(M);
  const auto *Let = cast<LetExpr>(M->expr(M->root()));

  SubtransitiveGraph Whole(*M, exact());
  Whole.build();
  SubtransitiveGraph Frag(*M, exact());
  Frag.buildFragment(Let->init());
  EXPECT_LT(Frag.stats().BuildNodes, Whole.stats().BuildNodes);
  // The argument abstraction is outside the fragment.
  const auto *App = cast<AppExpr>(M->expr(Let->body()));
  EXPECT_FALSE(Frag.lookupExprNode(App->arg()).isValid());
}

TEST(GraphStructure, ExternalizedVarsSuppressDefUseFlow) {
  auto M = parseMaybeInfer("let f = fn x => x in f");
  ASSERT_TRUE(M);
  const auto *Let = cast<LetExpr>(M->expr(M->root()));

  std::vector<bool> Ext(M->numVars(), false);
  Ext[Let->var().index()] = true;
  SubtransitiveGraph G(*M, exact());
  G.setExternalizedVars(Ext);
  G.build();
  G.close();
  Reachability R(G);
  // With the def-use flow externalized and nothing instantiated, the use
  // of f sees no labels.
  EXPECT_EQ(R.labelsOf(Let->body()).count(), 0u);
}

TEST(GraphStructure, ForceDemandSaturatesInterfacePaths) {
  auto M = parseMaybeInfer("fn g => fn x => g x");
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  NodeId V = G.exprNode(M->root());
  // Force the dom/dom and dom/ran paths like the summariser does.
  NodeId D = G.domNode(V), R2 = G.ranNode(V);
  G.forceDemand(G.domNode(D));
  G.forceDemand(G.ranNode(D));
  G.forceDemand(G.domNode(R2));
  G.forceDemand(G.ranNode(R2));
  G.forceDemand(D);
  G.forceDemand(R2);
  G.close();
  // The summary edge of Section 7: results of the inner application come
  // from the context function's results, i.e. ran(ran(V)) reaches
  // ran(dom(V)).
  Reachability Reach(G);
  bool Found = false;
  std::vector<NodeId> Stack{G.ranNode(R2)};
  std::set<uint32_t> Seen;
  while (!Stack.empty() && !Found) {
    NodeId N = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(N.index()).second)
      continue;
    Found = (N == G.ranNode(D));
    for (NodeId S : G.succs(N))
      Stack.push_back(S);
  }
  EXPECT_TRUE(Found);
}

//===----------------------------------------------------------------------===//
// Stats accounting
//===----------------------------------------------------------------------===//

TEST(GraphStructure, PhaseAccountingIsDisjoint) {
  auto M = parseMaybeInfer(makeJoinPointFamily(6));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  GraphStats AfterBuild = G.stats();
  EXPECT_GT(AfterBuild.BuildNodes, 0u);
  EXPECT_EQ(AfterBuild.CloseNodes, 0u);
  EXPECT_EQ(AfterBuild.CloseEdges, 0u);
  G.close();
  const GraphStats &AfterClose = G.stats();
  EXPECT_EQ(AfterClose.BuildNodes, AfterBuild.BuildNodes);
  EXPECT_EQ(AfterClose.BuildEdges, AfterBuild.BuildEdges);
  EXPECT_EQ(AfterClose.totalNodes(), G.numNodes());
}

//===----------------------------------------------------------------------===//
// The close-phase governor: budgets, deadlines, and cancellation
//===----------------------------------------------------------------------===//

TEST(CloseGovernor, CleanCloseReportsOk) {
  auto M = parseMaybeInfer(makeJoinPointFamily(6));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  Status S = G.close(Deadline::infinite());
  EXPECT_TRUE(S.isOk());
  EXPECT_TRUE(G.closeStatus().isOk());
  EXPECT_TRUE(G.closed());
  EXPECT_FALSE(G.aborted());
}

TEST(CloseGovernor, NodeBudgetAbortsWithResourceExhausted) {
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  SubtransitiveConfig C = exact();
  C.MaxNodes = 32; // far below what the cubic family needs
  SubtransitiveGraph G(*M, C);
  G.build();
  Status S = G.close(Deadline::infinite());
  EXPECT_EQ(S, StatusCode::ResourceExhausted);
  EXPECT_TRUE(G.aborted());
  EXPECT_FALSE(G.closed());
  EXPECT_EQ(G.closeStatus(), StatusCode::ResourceExhausted);
}

TEST(CloseGovernor, EdgeBudgetAbortsWithResourceExhausted) {
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  SubtransitiveConfig C = exact();
  C.MaxEdges = 16;
  SubtransitiveGraph G(*M, C);
  G.build();
  Status S = G.close(Deadline::infinite());
  EXPECT_EQ(S, StatusCode::ResourceExhausted);
  EXPECT_NE(S.message().find("edge"), std::string::npos);
  EXPECT_TRUE(G.aborted());
}

TEST(CloseGovernor, ExpiredDeadlineAbortsWithDeadlineExceeded) {
  auto M = parseMaybeInfer(makeCubicFamily(6));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  Status S = G.close(Deadline::afterMillis(0));
  EXPECT_EQ(S, StatusCode::DeadlineExceeded);
  EXPECT_TRUE(G.aborted());
  EXPECT_FALSE(G.closed());
}

TEST(CloseGovernor, PreCancelledTokenAbortsWithCancelled) {
  auto M = parseMaybeInfer(makeCubicFamily(6));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  CancellationToken Token = CancellationToken::create();
  Token.requestCancel();
  Status S = G.close(Deadline::infinite(), Token);
  EXPECT_EQ(S, StatusCode::Cancelled);
  EXPECT_TRUE(G.aborted());
}

TEST(CloseGovernor, UnarmedTokenAndInfiniteDeadlineAreFree) {
  // The default-constructed token is unarmed and Deadline::infinite() never
  // reads the clock; a fully governed call must still reach the fixpoint.
  auto M = parseMaybeInfer(makeCubicFamily(6));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exact());
  G.build();
  Status S = G.close(Deadline::infinite(), CancellationToken());
  EXPECT_TRUE(S.isOk());
  EXPECT_TRUE(G.closed());
}

#ifdef NDEBUG
TEST(CloseGovernor, AbortedGraphAnswersEmptyThroughReachability) {
  // Satellite 2 at the core layer: in release builds, querying an aborted
  // graph is a reported error (empty answer + FailedPrecondition), not UB.
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  SubtransitiveConfig C = exact();
  C.MaxNodes = 32;
  SubtransitiveGraph G(*M, C);
  G.build();
  ASSERT_FALSE(G.close(Deadline::infinite()).isOk());
  ASSERT_TRUE(G.aborted());
  Reachability R(G);
  for (uint32_t I = 0; I < M->numExprs(); ++I)
    EXPECT_TRUE(R.labelsOf(ExprId(I)).empty());
  EXPECT_EQ(R.status(), StatusCode::FailedPrecondition);
}
#endif

//===----------------------------------------------------------------------===//
// Shape pinning: the node store and edge pool, record by record
//===----------------------------------------------------------------------===//

/// Digest of the node records in id order (op, payloads, type), the edge
/// pool in pool order (From, To; tombstones included) and `GraphStats`.
uint64_t shapeDigest(const SubtransitiveGraph &G) {
  uint64_t H = hashU64(G.numNodes());
  auto mix = [&H](uint64_t X) { H = hashCombine(H, X); };
  auto raw = [](auto Id) -> uint64_t { return Id.isValid() ? Id.index() + 1 : 0; };
  for (uint32_t I = 0; I != G.numNodes(); ++I) {
    NodeId N(I);
    mix(uint64_t(G.op(N)) << 32 | raw(G.nodeType(N)));
    mix(uint64_t(G.payloadA(N)) << 32 | G.payloadB(N));
  }
  mix(G.edgePoolSize());
  for (uint32_t I = 0; I != G.edgePoolSize(); ++I)
    mix(raw(G.edgeAt(I).From) << 32 | raw(G.edgeAt(I).To));
  const GraphStats &S = G.stats();
  for (uint64_t X : {S.BuildNodes, S.BuildEdges, S.CloseNodes, S.CloseEdges,
                     S.CloseRuleFirings, S.Widenings})
    mix(X);
  return H;
}

/// The programs `ShapeMatchesParent` pins, by name.
std::vector<std::pair<std::string, std::string>> shapePrograms() {
  std::vector<std::pair<std::string, std::string>> Out = {
      {"life", lifeProgram()},
      {"lexgen", makeLexgenLike()},
      {"cubic:32", makeCubicFamily(32)},
      {"joinpoint:16", makeJoinPointFamily(16)},
  };
  for (CondShape Shape : {CondShape::Wide, CondShape::Deep,
                          CondShape::Skewed, CondShape::Diamond})
    Out.push_back({std::string(shapeName(Shape)) + ":64",
                   makeShapeProgram({Shape, 64, 1})});
  for (uint64_t Seed : {1, 2, 3}) {
    RandomProgramOptions O;
    O.Seed = Seed;
    O.UseRefs = true;
    O.UseDatatypes = true;
    Out.push_back({"random-refs-data:" + std::to_string(Seed),
                   makeRandomProgram(O)});
  }
  return Out;
}

TEST(SubtransitiveGraph, ShapeMatchesParent) {
  // Digests of the graphs the store produced before it became one flat
  // record array with per-node edge dedup: the same nodes in the same
  // order, the same edges in the same pool order, the same counts.  A
  // node budget bounds the ≈2 closes that diverge (life, lexgen); where
  // it aborts, the prefix it built is pinned just the same.  ≈2 under
  // the undemanded policy is left out on those two and on the random
  // programs: its eager template materialisation recurses without bound
  // during build(), which no close budget reaches.
  static const std::map<std::string, uint64_t> Want = {
    {"life/none/paper", 0xd82066d622110e46ull},
    {"life/none/nodeexists", 0xd82066d622110e46ull},
    {"life/none/undemanded", 0x5798f19d0aa7e618ull},
    {"life/bytype/paper", 0x2224348bbc1b063eull},
    {"life/bytype/nodeexists", 0xfa063fce1ed8e58dull},
    {"life/bytype/undemanded", 0x18e39e27f544176cull},
    {"life/bybase/paper", 0x36f02453ebda92d0ull},
    {"life/bybase/nodeexists", 0x36f02453ebda92d0ull},
    {"lexgen/none/paper", 0xf2ba89b34dd73353ull},
    {"lexgen/none/nodeexists", 0xf2ba89b34dd73353ull},
    {"lexgen/none/undemanded", 0x1dc99e88ab219d94ull},
    {"lexgen/bytype/paper", 0x38cb42a264b7b0aaull},
    {"lexgen/bytype/nodeexists", 0x7ddb56e237a01e17ull},
    {"lexgen/bytype/undemanded", 0xc2f4f00406d817b8ull},
    {"lexgen/bybase/paper", 0x5c23f870d37ec722ull},
    {"lexgen/bybase/nodeexists", 0x5c23f870d37ec722ull},
    {"cubic:32/none/paper", 0xd54526b725491e27ull},
    {"cubic:32/none/nodeexists", 0xd54526b725491e27ull},
    {"cubic:32/none/undemanded", 0xfae57b3db8ffe956ull},
    {"cubic:32/bytype/paper", 0xd54526b725491e27ull},
    {"cubic:32/bytype/nodeexists", 0xd54526b725491e27ull},
    {"cubic:32/bytype/undemanded", 0xfae57b3db8ffe956ull},
    {"cubic:32/bybase/paper", 0xd54526b725491e27ull},
    {"cubic:32/bybase/nodeexists", 0xd54526b725491e27ull},
    {"cubic:32/bybase/undemanded", 0xfae57b3db8ffe956ull},
    {"joinpoint:16/none/paper", 0xfb60173078d8e8feull},
    {"joinpoint:16/none/nodeexists", 0xfb60173078d8e8feull},
    {"joinpoint:16/none/undemanded", 0x5be6f03a119fec99ull},
    {"joinpoint:16/bytype/paper", 0xfb60173078d8e8feull},
    {"joinpoint:16/bytype/nodeexists", 0xfb60173078d8e8feull},
    {"joinpoint:16/bytype/undemanded", 0x5be6f03a119fec99ull},
    {"joinpoint:16/bybase/paper", 0xfb60173078d8e8feull},
    {"joinpoint:16/bybase/nodeexists", 0xfb60173078d8e8feull},
    {"joinpoint:16/bybase/undemanded", 0x5be6f03a119fec99ull},
    {"wide:64/none/paper", 0x2393ca030668dd58ull},
    {"wide:64/none/nodeexists", 0x2393ca030668dd58ull},
    {"wide:64/none/undemanded", 0xbeba8cda059e9231ull},
    {"wide:64/bytype/paper", 0x2393ca030668dd58ull},
    {"wide:64/bytype/nodeexists", 0x2393ca030668dd58ull},
    {"wide:64/bytype/undemanded", 0xbeba8cda059e9231ull},
    {"wide:64/bybase/paper", 0x2393ca030668dd58ull},
    {"wide:64/bybase/nodeexists", 0x2393ca030668dd58ull},
    {"wide:64/bybase/undemanded", 0xbeba8cda059e9231ull},
    {"deep:64/none/paper", 0x20d41c3415f78de3ull},
    {"deep:64/none/nodeexists", 0x20d41c3415f78de3ull},
    {"deep:64/none/undemanded", 0xdf2a8d55d5eeac15ull},
    {"deep:64/bytype/paper", 0x20d41c3415f78de3ull},
    {"deep:64/bytype/nodeexists", 0x20d41c3415f78de3ull},
    {"deep:64/bytype/undemanded", 0xdf2a8d55d5eeac15ull},
    {"deep:64/bybase/paper", 0x20d41c3415f78de3ull},
    {"deep:64/bybase/nodeexists", 0x20d41c3415f78de3ull},
    {"deep:64/bybase/undemanded", 0xdf2a8d55d5eeac15ull},
    {"skewed:64/none/paper", 0x1900cdec6aa7035eull},
    {"skewed:64/none/nodeexists", 0x1900cdec6aa7035eull},
    {"skewed:64/none/undemanded", 0xcf96cdb80fbcb513ull},
    {"skewed:64/bytype/paper", 0x1900cdec6aa7035eull},
    {"skewed:64/bytype/nodeexists", 0x1900cdec6aa7035eull},
    {"skewed:64/bytype/undemanded", 0xcf96cdb80fbcb513ull},
    {"skewed:64/bybase/paper", 0x1900cdec6aa7035eull},
    {"skewed:64/bybase/nodeexists", 0x1900cdec6aa7035eull},
    {"skewed:64/bybase/undemanded", 0xcf96cdb80fbcb513ull},
    {"diamond:64/none/paper", 0xade8b98bc944c627ull},
    {"diamond:64/none/nodeexists", 0xade8b98bc944c627ull},
    {"diamond:64/none/undemanded", 0xa0624d2929d6d3d6ull},
    {"diamond:64/bytype/paper", 0xade8b98bc944c627ull},
    {"diamond:64/bytype/nodeexists", 0xade8b98bc944c627ull},
    {"diamond:64/bytype/undemanded", 0xa0624d2929d6d3d6ull},
    {"diamond:64/bybase/paper", 0xade8b98bc944c627ull},
    {"diamond:64/bybase/nodeexists", 0xade8b98bc944c627ull},
    {"diamond:64/bybase/undemanded", 0xa0624d2929d6d3d6ull},
    {"random-refs-data:1/none/paper", 0x963c1063aca9d7efull},
    {"random-refs-data:1/none/nodeexists", 0x67d5f8429b3001a7ull},
    {"random-refs-data:1/none/undemanded", 0xb93fa06e55dcaf09ull},
    {"random-refs-data:1/bytype/paper", 0x78441dd2476d1984ull},
    {"random-refs-data:1/bytype/nodeexists", 0x08b0ddd9af834189ull},
    {"random-refs-data:1/bytype/undemanded", 0xcb22dd43c245c21full},
    {"random-refs-data:1/bybase/paper", 0x0a4b300b340b8117ull},
    {"random-refs-data:1/bybase/nodeexists", 0x8de3368b0bff5b52ull},
    {"random-refs-data:2/none/paper", 0xf5c4c443e2bf6c1full},
    {"random-refs-data:2/none/nodeexists", 0x80c8894dcc91774eull},
    {"random-refs-data:2/none/undemanded", 0x8e2e024e8fe4ca7eull},
    {"random-refs-data:2/bytype/paper", 0xe79803d2927fec13ull},
    {"random-refs-data:2/bytype/nodeexists", 0xa6ad879c48294b83ull},
    {"random-refs-data:2/bytype/undemanded", 0xfb22e138e6b1e7eeull},
    {"random-refs-data:2/bybase/paper", 0xdbbf4ba07387b646ull},
    {"random-refs-data:2/bybase/nodeexists", 0xf61d39f08531815aull},
    {"random-refs-data:3/none/paper", 0x88e50562ee960104ull},
    {"random-refs-data:3/none/nodeexists", 0x69a025741c0a8326ull},
    {"random-refs-data:3/none/undemanded", 0xf493dce99b375cd9ull},
    {"random-refs-data:3/bytype/paper", 0x8b5df05ad6a91740ull},
    {"random-refs-data:3/bytype/nodeexists", 0xdddec5e3ea2dfe67ull},
    {"random-refs-data:3/bytype/undemanded", 0x5a72f1ef874ee792ull},
    {"random-refs-data:3/bybase/paper", 0x9492151af111deccull},
    {"random-refs-data:3/bybase/nodeexists", 0x889345f858e363f1ull},
  };
  const char *Congruences[] = {"none", "bytype", "bybase"};
  const char *Policies[] = {"paper", "nodeexists", "undemanded"};
  std::string Got;
  size_t Checked = 0;
  for (const auto &[Name, Source] : shapePrograms()) {
    auto M = parseMaybeInfer(Source);
    ASSERT_TRUE(M) << Name;
    for (int C = 0; C != 3; ++C)
      for (int P = 0; P != 3; ++P) {
        if (C == 2 && P == 2 &&
            (Name == "life" || Name == "lexgen" ||
             Name.rfind("random", 0) == 0))
          continue;
        SubtransitiveConfig Config;
        Config.Congruence = static_cast<CongruenceMode>(C);
        Config.Policy = static_cast<ClosurePolicy>(P);
        Config.MaxNodes = 100000;
        SubtransitiveGraph G(*M, Config);
        G.build();
        (void)G.close(Deadline::infinite());
        const std::string Key =
            Name + "/" + Congruences[C] + "/" + Policies[P];
        const uint64_t D = shapeDigest(G);
        char Line[160];
        std::snprintf(Line, sizeof Line, "    {\"%s\", 0x%016" PRIx64 "ull},\n",
                      Key.c_str(), D);
        Got += Line;
        auto It = Want.find(Key);
        EXPECT_TRUE(It != Want.end() && It->second == D)
            << Key << " digest differs";
        ++Checked;
      }
  }
  EXPECT_EQ(Checked, Want.size());
  if (HasFailure())
    std::printf("digests of this tree:\n%s", Got.c_str());
}

/// True iff a scan of `succs(A)` finds B.
bool scanHasEdge(const SubtransitiveGraph &G, NodeId A, NodeId B) {
  for (NodeId S : G.succs(A))
    if (S == B)
      return true;
  return false;
}

TEST(SubtransitiveGraph, HasEdgeMatchesScanThroughDeltaEdits) {
  // The delta layer's primitives (journaled fragment builds, retraction
  // through `removeEdgeForDelta`, consequence cones, re-close) as a
  // seeded edit script, with hubs in play: under ≈1 a datatype's summary
  // collects edges far past `HubDegree`.  After every step, `hasEdge`
  // must agree with a list scan on every pair the script touched.
  RandomProgramOptions O;
  O.Seed = 5;
  O.NumBindings = 120;
  auto M = parseMaybeInfer(makeRandomProgram(O));
  ASSERT_TRUE(M);
  // The edges wired by hand below ignore types, so bound the re-closes.
  SubtransitiveConfig Config;
  Config.MaxNodes = 200000;
  SubtransitiveGraph G(*M, Config);
  std::vector<std::pair<NodeId, NodeId>> Journal;
  G.setEdgeJournal(&Journal);
  G.build();
  G.setEdgeJournal(nullptr);
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());

  std::set<std::pair<uint32_t, uint32_t>> Touched;
  auto touch = [&](NodeId A, NodeId B) {
    Touched.insert({A.index(), B.index()});
  };
  auto agree = [&](int Step) {
    for (auto [A, B] : Touched)
      ASSERT_EQ(G.hasEdge(NodeId(A), NodeId(B)),
                scanHasEdge(G, NodeId(A), NodeId(B)))
          << "step " << Step << ": " << A << " -> " << B;
  };

  // A hub made on purpose, wired to 40 targets, and a sink with 40
  // sources, so the hub-to-sink pair is answered by the hub set.
  ASSERT_GT(G.numNodes(), 100u);
  NodeId Hub = G.exprNode(M->root()), Sink(99);
  std::vector<NodeId> Targets = {Sink};
  for (uint32_t I = 0; I != 40; ++I) {
    Targets.push_back(NodeId(I));
    G.addEdge(NodeId(I + 50), Sink);
    touch(NodeId(I + 50), Sink);
  }
  for (NodeId T : Targets) {
    G.addEdge(Hub, T);
    touch(Hub, T);
  }
  agree(-1);

  std::mt19937_64 Rng(11);
  for (int Step = 0; Step != 200; ++Step) {
    const uint32_t Pick = static_cast<uint32_t>(Rng() % 4);
    if (Pick == 0 && !Journal.empty()) {
      // Retract a journaled base edge and the consequence cone above it.
      auto [A, B] = Journal[Rng() % Journal.size()];
      std::vector<std::pair<NodeId, NodeId>> Cone;
      G.appendConsequencesForDelta(A, B, Cone);
      G.removeEdgeForDelta(A, B);
      touch(A, B);
      for (auto [X, Y] : Cone) {
        G.removeEdgeForDelta(X, Y);
        touch(X, Y);
        G.requeueAliasesForDelta(X);
      }
      G.requeueAliasesForDelta(A);
      G.requeueAliasesForDelta(B);
    } else if (Pick == 1) {
      // Remove, and maybe re-add, a hub edge.
      NodeId B = Targets[Rng() % Targets.size()];
      G.removeEdgeForDelta(Hub, B);
      touch(Hub, B);
      if (Rng() % 2)
        G.addEdge(Hub, B);
    } else if (Pick == 2) {
      // Re-run the base edges of a random subtree, as a replaced
      // definition does.
      ExprId Root(static_cast<uint32_t>(Rng() % M->numExprs()));
      const size_t From = Journal.size();
      G.setEdgeJournal(&Journal);
      G.addFragment(Root);
      G.setEdgeJournal(nullptr);
      for (size_t I = From; I != Journal.size(); ++I)
        touch(Journal[I].first, Journal[I].second);
    } else {
      (void)G.close(Deadline::infinite());
      // Sample the close phase's own edges too.
      for (int K = 0; K != 8; ++K) {
        const auto &E = G.edgeAt(
            static_cast<uint32_t>(Rng() % G.edgePoolSize()));
        if (E.From.isValid())
          touch(E.From, E.To);
      }
    }
    agree(Step);
  }
  EXPECT_GT(Touched.size(), 100u);
}

} // namespace
