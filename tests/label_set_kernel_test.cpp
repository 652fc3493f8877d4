//===-- tests/label_set_kernel_test.cpp - Word-parallel kernel tests ------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The label-set kernel's contracts:
///
///   * bit-identical to per-query BFS (`Reachability`) on every program,
///     and to `StandardCFA` on pure programs under exact congruence, over
///     the whole generator corpus;
///   * governed aborts: a kernel stopped at its k-th poll reports
///     `Status`, says exactly which label sets are complete — the
///     components below `componentsCompleted()`, a prefix of the sweep —
///     serves those bit-identically to per-query BFS, and resumes from
///     there without rewriting a final row;
///   * interning (the paper's §10 chain compression): every pooled row
///     equals the BFS, pool rows are pairwise distinct, every
///     pass-through shares its successor's row id, and a resumed run
///     pools no row twice — over every ShapeGen family and the random
///     corpus, plus the cases moved from the retired `CompressedGraph`;
///   * `QueryEngine` dispatch: batches at/above the threshold ride the
///     kernel, point queries and sub-threshold batches do not, an
///     aborted kernel degrades to the BFS path transparently, and
///     `allLabelSets` interns the same sets on both paths.
///
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "support/FaultInjection.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <vector>

using namespace stcfa;

namespace {

struct Workload {
  std::string Name;
  std::string Source;
  bool Pure; // exact vs StandardCFA under CongruenceMode::None
  // Mode for the main equivalence run.  The realistic corpus programs
  // recurse through datatypes and only close tractably with congruence
  // summaries (the same mode every other suite closes them under);
  // everything else runs summary-free.
  CongruenceMode Mode = CongruenceMode::None;
};

/// The full generator corpus (all program families) plus the realistic
/// corpus programs.
std::vector<Workload> corpus() {
  std::vector<Workload> W;
  for (int N : {1, 4, 12})
    W.push_back({"cubic:" + std::to_string(N), makeCubicFamily(N), true});
  W.push_back({"joinpoint:10", makeJoinPointFamily(10), true});
  W.push_back({"calledonce:8", makeCalledOnceFamily(8), true});
  W.push_back({"dispatch:8", makeDispatchFamily(8), true});
  // The effects family prints but neither refs nor widening: still exact.
  W.push_back({"effects:6", makeEffectsFamily(6), true});
  for (uint64_t Seed : {11ull, 12ull}) {
    RandomProgramOptions O;
    O.Seed = Seed;
    O.NumBindings = 60;
    W.push_back({"random-pure:" + std::to_string(Seed), makeRandomProgram(O),
                 true});
  }
  {
    // Refs make the graph a sound superset of StandardCFA, but the
    // kernel must still match the BFS bit for bit.
    RandomProgramOptions O;
    O.Seed = 21;
    O.NumBindings = 60;
    O.UseRefs = true;
    O.UseEffects = true;
    W.push_back({"random-refs:21", makeRandomProgram(O), false});
  }
  W.push_back({"life", lifeProgram(), false, CongruenceMode::ByType});
  W.push_back({"lexgen:10", makeLexgenLike(10), false, CongruenceMode::ByType});
  W.push_back({"minieval", miniEvalProgram(), false, CongruenceMode::ByType});
  W.push_back(
      {"parsercombo", parserComboProgram(), false, CongruenceMode::ByType});
  return W;
}

struct Built {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

/// Programs whose condensations span several poll strides: the cubic
/// family and every condensation-shape family.
std::vector<Workload> prefixCorpus() {
  std::vector<Workload> W;
  W.push_back({"cubic:100", makeCubicFamily(100), true});
  for (ShapeSpec Spec : {ShapeSpec{CondShape::Wide, 60, 1},
                         ShapeSpec{CondShape::Deep, 100, 1},
                         ShapeSpec{CondShape::Diamond, 120, 1},
                         ShapeSpec{CondShape::Skewed, 60, 1}})
    W.push_back({shapeSpecString(Spec), makeShapeProgram(Spec), true});
  return W;
}

Built build(const Workload &W, CongruenceMode Mode) {
  Built B;
  B.M = parseMaybeInfer(W.Source);
  if (!B.M)
    return B;
  SubtransitiveConfig C;
  C.Congruence = Mode;
  B.G = std::make_unique<SubtransitiveGraph>(*B.M, C);
  B.G->build();
  B.G->close();
  EXPECT_FALSE(B.G->aborted()) << W.Name;
  B.F = std::make_unique<FrozenGraph>(*B.G);
  return B;
}

/// The partial-result contract of \p K, whose finished prefix is
/// \p Done components: exactly the components below `Done` are complete,
/// `exprComplete` agrees with that prefix, every complete answer equals
/// the per-query BFS, and every incomplete one is empty.
void expectPrefix(const std::string &Name, const Built &B,
                  const LabelSetKernel &K, uint32_t Done) {
  const Condensation &C = B.F->condensation();
  ASSERT_EQ(K.componentsCompleted(), Done) << Name;
  for (uint32_t S = 0; S != C.numSccs(); ++S)
    ASSERT_EQ(K.sccComplete(S), S < Done) << Name << " component " << S;
  Reachability R(*B.G);
  uint32_t NumComplete = 0, NumIncomplete = 0;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
    ExprId Ex(I);
    uint32_t N = B.F->nodeOfExpr(Ex);
    bool InPrefix = N == FrozenGraph::None || C.sccOf(N) < Done;
    ASSERT_EQ(K.exprComplete(Ex), InPrefix) << Name << " expr " << I;
    if (N == FrozenGraph::None)
      continue;
    if (InPrefix) {
      ++NumComplete;
      ASSERT_TRUE(K.labelsOf(Ex) == R.labelsOf(Ex))
          << Name << ": complete expr " << I << " differs from BFS";
    } else {
      ++NumIncomplete;
      ASSERT_TRUE(K.labelsOf(Ex).empty()) << Name << " expr " << I;
    }
  }
  // A mid-sweep abort leaves both kinds of occurrence.
  if (Done != 0 && Done != C.numSccs()) {
    EXPECT_GT(NumComplete, 0u) << Name;
    EXPECT_GT(NumIncomplete, 0u) << Name;
  }
}

/// The rows of the first \p Done components of \p K.
std::vector<std::vector<uint64_t>> prefixRows(const LabelSetKernel &K,
                                              uint32_t Done) {
  std::vector<std::vector<uint64_t>> Rows;
  for (uint32_t S = 0; S != Done; ++S) {
    std::span<const uint64_t> R = K.pool().row(K.rowOf(S));
    Rows.emplace_back(R.begin(), R.end());
  }
  return Rows;
}

/// Resumes \p K to completion and checks that no row of the
/// \p Before prefix changed and that every answer equals the BFS.
void expectResumeKeepsPrefix(const std::string &Name, const Built &B,
                             LabelSetKernel &K,
                             const std::vector<std::vector<uint64_t>> &Before) {
  ASSERT_TRUE(K.run().isOk()) << Name;
  EXPECT_TRUE(K.complete()) << Name;
  EXPECT_EQ(K.componentsCompleted(), B.F->condensation().numSccs()) << Name;
  for (uint32_t S = 0; S != Before.size(); ++S) {
    std::span<const uint64_t> R = K.pool().row(K.rowOf(S));
    ASSERT_TRUE(std::equal(R.begin(), R.end(), Before[S].begin(),
                           Before[S].end()))
        << Name << ": resume rewrote final row " << S;
  }
  Reachability R(*B.G);
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)))
        << Name << " expr " << I;
}

} // namespace

//===----------------------------------------------------------------------===//
// Equivalence: kernel vs BFS vs StandardCFA over the corpus
//===----------------------------------------------------------------------===//

TEST(LabelSetKernel, MatchesBfsAndStandardCFAOverCorpus) {
  for (const Workload &W : corpus()) {
    Built B = build(W, W.Mode);
    ASSERT_TRUE(B.M) << W.Name;

    LabelSetKernel K(*B.F);
    ASSERT_TRUE(K.run().isOk()) << W.Name;
    ASSERT_TRUE(K.complete()) << W.Name;

    Reachability R(*B.G);
    StandardCFA Std(*B.M);
    Std.run();

    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
      ExprId Ex(I);
      DenseBitset Kernel = K.labelsOf(Ex);
      DenseBitset Bfs = R.labelsOf(Ex);
      ASSERT_TRUE(Kernel == Bfs)
          << W.Name << ": kernel != BFS at expr " << I;
      if (W.Pure) {
        ASSERT_TRUE(Kernel == Std.labelSet(Ex))
            << W.Name << ": kernel != StandardCFA at expr " << I;
      } else {
        ASSERT_TRUE(Kernel.containsAll(Std.labelSet(Ex)))
            << W.Name << ": kernel unsound vs StandardCFA at expr " << I;
      }
    }
  }
}

TEST(LabelSetKernel, MatchesBfsUnderCongruence) {
  // Congruence summaries stress nodeOfExpr aliasing: many occurrences
  // share one canonical node and one kernel row.
  for (const Workload &W : corpus()) {
    Built B = build(W, CongruenceMode::ByType);
    ASSERT_TRUE(B.M) << W.Name;
    LabelSetKernel K(*B.F);
    ASSERT_TRUE(K.run().isOk()) << W.Name;
    Reachability R(*B.G);
    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
      ASSERT_TRUE(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)))
          << W.Name << " expr " << I;
  }
}

TEST(LabelSetKernel, LaneCountDoesNotChangeResults) {
  // The `(F, unsigned)` overload kept for the benchmark ignores its lane
  // count: it must build the same kernel as `(F)`.
  Built B = build({"cubic:12", makeCubicFamily(12), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K1(*B.F);
  LabelSetKernel K4(*B.F, 4u);
  ASSERT_TRUE(K1.run().isOk());
  ASSERT_TRUE(K4.run().isOk());
  EXPECT_GT(K1.componentsCompleted(), 1u);
  EXPECT_EQ(K1.componentsCompleted(), K4.componentsCompleted());
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(K1.labelsOf(ExprId(I)) == K4.labelsOf(ExprId(I)))
        << "expr " << I;
}

//===----------------------------------------------------------------------===//
// The sweep's prefix contract
//===----------------------------------------------------------------------===//

TEST(LabelSetKernel, CompleteRunFinishesEveryComponent) {
  for (const Workload &W : prefixCorpus()) {
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << W.Name;
    const uint32_t NumSccs = B.F->condensation().numSccs();
    ASSERT_GE(NumSccs, 3 * LabelSetKernel::PollStride)
        << W.Name << " spans too few poll strides";
    LabelSetKernel K(*B.F);
    EXPECT_EQ(K.componentsCompleted(), 0u) << W.Name;
    ASSERT_TRUE(K.run().isOk()) << W.Name;
    expectPrefix(W.Name, B, K, NumSccs);
  }
}

#if STCFA_FAULT_INJECTION

TEST(LabelSetKernel, AbortAtKthPollLeavesExactlyThePrefix) {
  // The governor polls once per `PollStride` components, so letting k
  // polls pass stops the sweep after exactly k strides.
  for (const Workload &W : prefixCorpus()) {
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << W.Name;
    const uint32_t NumSccs = B.F->condensation().numSccs();
    const uint32_t Polls =
        (NumSccs + LabelSetKernel::PollStride - 1) / LabelSetKernel::PollStride;
    for (uint32_t K : {1u, Polls / 2, Polls - 1}) {
      std::string Name = W.Name + " poll " + std::to_string(K);
      LabelSetKernel Part(*B.F);
      ASSERT_TRUE(armFault(fault::KernelCancel, K));
      Status S = Part.run();
      disarmFaults();
      EXPECT_EQ(S.code(), StatusCode::Cancelled) << Name;
      EXPECT_FALSE(Part.complete()) << Name;
      const uint32_t Done = K * LabelSetKernel::PollStride;
      expectPrefix(Name, B, Part, Done);
      expectResumeKeepsPrefix(Name, B, Part, prefixRows(Part, Done));
    }
  }
}

TEST(LabelSetKernel, MidSweepAbortReportsExactlyWhatIsComplete) {
  // Stop mid-sweep, then let an expired deadline and a cancelled token
  // stop resumed runs at their first poll: each abort reports its own
  // status and leaves the prefix exactly as it was.
  for (const Workload &W : prefixCorpus()) {
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << W.Name;
    const uint32_t NumSccs = B.F->condensation().numSccs();
    const uint32_t K = NumSccs / LabelSetKernel::PollStride / 2;
    ASSERT_GT(K, 0u) << W.Name;
    const uint32_t Done = K * LabelSetKernel::PollStride;

    LabelSetKernel Part(*B.F);
    ASSERT_TRUE(armFault(fault::KernelCancel, K));
    EXPECT_EQ(Part.run().code(), StatusCode::Cancelled) << W.Name;
    disarmFaults();
    std::vector<std::vector<uint64_t>> Before = prefixRows(Part, Done);

    LabelSetKernel::Controls Late;
    Late.D = Deadline::afterMillis(-1);
    EXPECT_EQ(Part.run(Late).code(), StatusCode::DeadlineExceeded) << W.Name;
    expectPrefix(W.Name + " deadline", B, Part, Done);

    LabelSetKernel::Controls Cancelled;
    Cancelled.Token = CancellationToken::create();
    Cancelled.Token.requestCancel();
    EXPECT_EQ(Part.run(Cancelled).code(), StatusCode::Cancelled) << W.Name;
    expectPrefix(W.Name + " token", B, Part, Done);

    expectResumeKeepsPrefix(W.Name, B, Part, Before);
  }
}

#endif // STCFA_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// Governed aborts: Status + exact partial-result reporting
//===----------------------------------------------------------------------===//

TEST(LabelSetKernel, ExpiredDeadlineAbortsBeforeAnyLevel) {
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  LabelSetKernel::Controls C;
  C.D = Deadline::afterMillis(-1);
  Status S = K.run(C);
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);
  EXPECT_FALSE(K.complete());
  EXPECT_EQ(K.componentsCompleted(), 0u);
  // Nothing is servable except no-node occurrences (trivially empty).
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
    ExprId Ex(I);
    if (B.F->nodeOfExpr(Ex) != FrozenGraph::None) {
      EXPECT_FALSE(K.exprComplete(Ex)) << "expr " << I;
    }
    EXPECT_TRUE(K.labelsOf(Ex).empty()) << "expr " << I;
  }
  // The partial kernel resumes to a complete, correct closure.
  ASSERT_TRUE(K.run().isOk());
  EXPECT_TRUE(K.complete());
  Reachability R(*B.G);
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)));
}

TEST(LabelSetKernel, PreCancelledTokenAborts) {
  Built B = build({"cubic:4", makeCubicFamily(4), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  LabelSetKernel::Controls C;
  C.Token = CancellationToken::create();
  C.Token.requestCancel();
  Status S = K.run(C);
  EXPECT_EQ(S.code(), StatusCode::Cancelled);
  EXPECT_EQ(K.componentsCompleted(), 0u);
  EXPECT_FALSE(K.complete());
}

#if STCFA_FAULT_INJECTION

TEST(LabelSetKernel, InjectedAllocFailureIsOutOfMemory) {
  Built B = build({"cubic:4", makeCubicFamily(4), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  LabelSetKernel K(*B.F);
  ASSERT_TRUE(armFault(fault::KernelAlloc));
  Status S = K.run();
  disarmFaults();
  EXPECT_EQ(S.code(), StatusCode::OutOfMemory);
  EXPECT_FALSE(K.complete());
  EXPECT_EQ(K.componentsCompleted(), 0u);
  // The failed schedule build is retried on resume.
  ASSERT_TRUE(K.run().isOk());
  EXPECT_TRUE(K.complete());
}

#endif // STCFA_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// QueryEngine dispatch
//===----------------------------------------------------------------------===//

TEST(QueryEngineKernel, BatchAboveThresholdUsesKernelAndMatchesBfs) {
  Built B = build({"cubic:10", makeCubicFamily(10), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));

  QueryEngine Kern(*B.F);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F);
  Bfs.setKernelThreshold(0); // kernel disabled: pure BFS engine

  std::vector<DenseBitset> A = Kern.labelsOfBatch(Es);
  std::vector<DenseBitset> Want = Bfs.labelsOfBatch(Es);
  ASSERT_NE(Kern.kernel(), nullptr);
  EXPECT_TRUE(Kern.kernel()->complete());
  EXPECT_EQ(Bfs.kernel(), nullptr);
  for (size_t I = 0; I != Es.size(); ++I)
    ASSERT_TRUE(A[I] == Want[I]) << "expr " << I;

  // Point queries agree too (they never touch the kernel).
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    ASSERT_TRUE(Kern.labelsOf(ExprId(I)) == Want[I]) << "expr " << I;
}

TEST(QueryEngineKernel, SubThresholdBatchSkipsKernel) {
  Built B = build({"cubic:6", makeCubicFamily(6), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F);
  E.setKernelThreshold(1000000);
  std::vector<ExprId> Small{B.M->root()};
  (void)E.labelsOfBatch(Small);
  EXPECT_EQ(E.kernel(), nullptr);
}

TEST(QueryEngineKernel, MembershipReusesCompletedKernel) {
  Built B = build({"dispatch:8", makeDispatchFamily(8), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine Kern(*B.F);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F);
  Bfs.setKernelThreshold(0);

  // Prime the kernel through a big labels batch, then compare every
  // (expr, label) membership probe — one bit of the published kernel —
  // against the BFS engine's walk.
  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));
  (void)Kern.labelsOfBatch(Es);
  ASSERT_NE(Kern.publishedKernel(), nullptr);
  ASSERT_EQ(Bfs.publishedKernel(), nullptr);

  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    for (uint32_t L = 0, LE = B.M->numLabels(); L != LE; ++L)
      ASSERT_EQ(Kern.isLabelIn(ExprId(I), LabelId(L)),
                Bfs.isLabelIn(ExprId(I), LabelId(L)))
          << "expr " << I << ", label " << L;
}

TEST(QueryEngineKernel, GovernedBatchOnKernelPathReportsAllDone) {
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F);
  E.setKernelThreshold(1);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  BatchControl C;
  BatchOutcome Out;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, C, Out);
  EXPECT_TRUE(Out.S.isOk());
  EXPECT_EQ(Out.Completed, Es.size());
  ASSERT_NE(E.kernel(), nullptr);
  Reachability R(*B.G);
  for (size_t I = 0; I != Es.size(); ++I) {
    EXPECT_TRUE(Out.Done[I]);
    ASSERT_TRUE(Sets[I] == R.labelsOf(Es[I])) << "expr " << I;
  }
}

TEST(QueryEngineKernel, GovernedCancelledBatchAnswersNothing) {
  // A pre-cancelled token must stop both the kernel closure and the BFS
  // fallback: zero items answered, `Cancelled` reported.
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F);
  E.setKernelThreshold(1);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  BatchControl C;
  C.Token = CancellationToken::create();
  C.Token.requestCancel();
  BatchOutcome Out;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, C, Out);
  EXPECT_EQ(Out.S.code(), StatusCode::Cancelled);
  EXPECT_EQ(Out.Completed, 0u);
  for (size_t I = 0; I != Es.size(); ++I) {
    EXPECT_FALSE(Out.Done[I]);
    EXPECT_TRUE(Sets[I].empty());
  }
}

#if STCFA_FAULT_INJECTION

TEST(QueryEngineKernel, AbortedKernelFallsBackToBfsTransparently) {
  // With a kernel fault armed, batches above the threshold still answer
  // correctly through the BFS fallback — kernel degradation is invisible
  // to callers.
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = B.M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));

  for (std::string_view Site : {fault::KernelAlloc, fault::KernelCancel}) {
    QueryEngine E(*B.F);
    E.setKernelThreshold(1);
    ASSERT_TRUE(armFault(Site));
    std::vector<DenseBitset> Sets = E.labelsOfBatch(Es);
    disarmFaults();
    Reachability R(*B.G);
    for (size_t I = 0; I != Es.size(); ++I)
      ASSERT_TRUE(Sets[I] == R.labelsOf(Es[I]))
          << Site << " expr " << I;
  }
}

#endif // STCFA_FAULT_INJECTION

//===----------------------------------------------------------------------===//
// HybridCFA wiring
//===----------------------------------------------------------------------===//

TEST(QueryEngineKernel, HybridThreadsKernelThresholdThrough) {
  auto M = parseMaybeInfer(makeCubicFamily(8));
  ASSERT_TRUE(M);
  HybridOptions HO;
  HO.KernelThreshold = 1;
  HybridCFA H(*M, HO);
  ASSERT_TRUE(H.solve().isOk());
  ASSERT_EQ(H.engine(), HybridCFA::Engine::Subtransitive);
  QueryEngine *E = H.queryEngine();
  ASSERT_NE(E, nullptr);
  EXPECT_EQ(E->kernelThreshold(), 1u);

  std::vector<ExprId> Es;
  for (uint32_t I = 0, EN = M->numExprs(); I != EN; ++I)
    Es.push_back(ExprId(I));
  std::vector<DenseBitset> Sets = E->labelsOfBatch(Es);
  ASSERT_NE(E->kernel(), nullptr);
  // Hybrid rung 1 is standard-CFA-exact; the kernel answers must be too.
  StandardCFA Std(*M);
  Std.run();
  for (size_t I = 0; I != Es.size(); ++I)
    ASSERT_TRUE(Sets[I] == Std.labelSet(Es[I])) << "expr " << I;
}

//===----------------------------------------------------------------------===//
// Interning: the paper's §10 chain compression, inside the kernel
//===----------------------------------------------------------------------===//

namespace {

/// Every ShapeGen family (two seeds) plus the random corpus, with and
/// without refs.
std::vector<Workload> internCorpus() {
  std::vector<Workload> W;
  for (CondShape S : {CondShape::Wide, CondShape::Deep, CondShape::Diamond,
                      CondShape::Skewed})
    for (uint64_t Seed : {1ull, 5ull}) {
      ShapeSpec Spec{S, 40, Seed};
      W.push_back({shapeSpecString(Spec), makeShapeProgram(Spec), true});
    }
  for (uint64_t Seed = 1300; Seed != 1310; ++Seed) {
    RandomProgramOptions O;
    O.Seed = Seed;
    O.NumBindings = 60;
    O.UseRefs = Seed % 2 == 0;
    W.push_back({"random:" + std::to_string(Seed), makeRandomProgram(O),
                 !O.UseRefs});
  }
  return W;
}

/// The interning contract over the first \p Done components of \p K:
/// each component's pooled row equals the BFS from its nodes, row 0 is
/// empty and the pool rows are pairwise distinct, every pass-through (no
/// own label, one distinct successor component) shares its successor's
/// id, and `passThroughs()` counts exactly the label-free components
/// whose successors carry at most one distinct non-empty row.
void expectInterned(const std::string &Name, const Built &B,
                    const LabelSetKernel &K, uint32_t Done) {
  const FrozenGraph &F = *B.F;
  const Condensation &C = F.condensation();
  const LabelRowPool &Pool = K.pool();
  ASSERT_GE(Pool.size(), 1u) << Name;
  for (uint64_t Word : Pool.row(0))
    ASSERT_EQ(Word, 0u) << Name << ": row 0 is not empty";
  std::set<std::vector<uint64_t>> Rows;
  for (uint32_t Id = 0; Id != Pool.size(); ++Id)
    Rows.emplace(Pool.row(Id).begin(), Pool.row(Id).end());
  EXPECT_EQ(Rows.size(), Pool.size()) << Name << ": duplicate pool rows";

  std::vector<char> HasLabel(C.numSccs(), 0);
  std::vector<std::set<uint32_t>> Succs(C.numSccs());
  std::vector<uint32_t> Rep(C.numSccs(), FrozenGraph::None);
  for (uint32_t N = 0; N != F.numNodes(); ++N) {
    const uint32_t S = C.sccOf(N);
    Rep[S] = N;
    HasLabel[S] |= F.labelAt(N) != FrozenGraph::None;
    for (uint32_t T : F.succs(N))
      if (C.sccOf(T) != S)
        Succs[S].insert(C.sccOf(T));
  }
  Reachability Bfs(*B.G);
  uint32_t PassThroughs = 0;
  for (uint32_t S = 0; S != Done; ++S) {
    ASSERT_LT(K.rowOf(S), Pool.size()) << Name << " component " << S;
    ASSERT_TRUE(Pool.set(K.rowOf(S)) == Bfs.labelsOfNode(NodeId(Rep[S])))
        << Name << ": component " << S << " differs from BFS";
    if (HasLabel[S])
      continue;
    if (Succs[S].size() == 1) {
      EXPECT_EQ(K.rowOf(S), K.rowOf(*Succs[S].begin()))
          << Name << ": pass-through " << S << " copied its row";
    }
    std::set<uint32_t> Ids;
    for (uint32_t T : Succs[S])
      if (K.rowOf(T) != 0)
        Ids.insert(K.rowOf(T));
    PassThroughs += Ids.size() <= 1;
  }
  EXPECT_EQ(K.passThroughs(), PassThroughs) << Name;
}

} // namespace

TEST(LabelSetKernel, InternedRowsMatchBfsAndAreDistinct) {
  for (const Workload &W : internCorpus()) {
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << W.Name;
    LabelSetKernel K(*B.F);
    ASSERT_TRUE(K.run().isOk()) << W.Name;
    const uint32_t NumSccs = B.F->condensation().numSccs();
    expectInterned(W.Name, B, K, NumSccs);
    // Sharing is the point: far fewer rows than components.
    EXPECT_LT(K.pool().size(), NumSccs) << W.Name;
    EXPECT_GT(K.passThroughs(), 0u) << W.Name;
    // The per-occurrence view reads the same rows.
    InternedLabelSets Sets = K.allLabelSets();
    ASSERT_EQ(Sets.RowOf.size(), B.M->numExprs()) << W.Name;
    EXPECT_EQ(&Sets.pool(), &K.pool()) << W.Name;
    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I) {
      ASSERT_TRUE(Sets.Done.empty());
      ASSERT_TRUE(Sets.pool().set(Sets.RowOf[I]) == K.labelsOf(ExprId(I)))
          << W.Name << " expr " << I;
    }
  }
}

#if STCFA_FAULT_INJECTION

TEST(LabelSetKernel, ResumedInterningKeepsPrefixAndPoolsNoRowTwice) {
  // An abort at the k-th poll leaves exactly the prefix interned; the
  // resume keeps the intern table, so it finishes with the same ids and
  // the same pool as an uninterrupted run — no row pooled twice.
  for (const Workload &W : prefixCorpus()) {
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << W.Name;
    LabelSetKernel Whole(*B.F);
    ASSERT_TRUE(Whole.run().isOk()) << W.Name;
    const uint32_t NumSccs = B.F->condensation().numSccs();
    const uint32_t Polls =
        (NumSccs + LabelSetKernel::PollStride - 1) / LabelSetKernel::PollStride;
    for (uint32_t K : {1u, Polls / 2, Polls - 1}) {
      std::string Name = W.Name + " poll " + std::to_string(K);
      LabelSetKernel Part(*B.F);
      ASSERT_TRUE(armFault(fault::KernelCancel, K));
      EXPECT_EQ(Part.run().code(), StatusCode::Cancelled) << Name;
      disarmFaults();
      const uint32_t Done = K * LabelSetKernel::PollStride;
      expectInterned(Name, B, Part, Done);
      std::vector<uint32_t> Prefix(Part.rowIds().begin(),
                                   Part.rowIds().begin() + Done);

      ASSERT_TRUE(Part.run().isOk()) << Name;
      EXPECT_TRUE(std::equal(Prefix.begin(), Prefix.end(),
                             Part.rowIds().begin()))
          << Name << ": resume changed a final row id";
      expectInterned(Name + " resumed", B, Part, NumSccs);
      EXPECT_EQ(Part.pool().size(), Whole.pool().size()) << Name;
      EXPECT_TRUE(std::equal(Part.rowIds().begin(), Part.rowIds().end(),
                             Whole.rowIds().begin(), Whole.rowIds().end()))
          << Name;
    }
  }
}

#endif // STCFA_FAULT_INJECTION

TEST(QueryEngineKernel, AllLabelSetsAgreeOnKernelAndBfsPaths) {
  // The kernel path borrows the kernel's pool; the BFS path interns into
  // its own.  Both must answer every occurrence like `labelsOfBatch`, and
  // the BFS pool must be as distinct as the kernel's.
  for (const Workload &W : internCorpus()) {
    Built B = build(W, CongruenceMode::None);
    ASSERT_TRUE(B.M) << W.Name;
    std::vector<ExprId> Es;
    for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
      Es.push_back(ExprId(I));
    QueryEngine Kern(*B.F);
    Kern.setKernelThreshold(1);
    QueryEngine Bfs(*B.F);
    Bfs.setKernelThreshold(0);
    BatchOutcome OA, OZ;
    InternedLabelSets A = Kern.allLabelSets({}, OA);
    InternedLabelSets Z = Bfs.allLabelSets({}, OZ);
    ASSERT_NE(Kern.kernel(), nullptr) << W.Name;
    EXPECT_EQ(&A.pool(), &Kern.kernel()->pool()) << W.Name;
    EXPECT_EQ(A.pool().size(), Z.pool().size()) << W.Name;
    std::vector<DenseBitset> Want = Bfs.labelsOfBatch(Es);
    for (uint32_t I = 0; I != Es.size(); ++I) {
      ASSERT_TRUE(A.pool().set(A.RowOf[I]) == Want[I]) << W.Name << " " << I;
      ASSERT_TRUE(Z.pool().set(Z.RowOf[I]) == Want[I]) << W.Name << " " << I;
      ASSERT_EQ(A.RowOf[I] == 0, Want[I].empty()) << W.Name << " " << I;
      ASSERT_EQ(Z.RowOf[I] == 0, Want[I].empty()) << W.Name << " " << I;
    }
  }
}

TEST(QueryEngineKernel, GovernedAllLabelSetsLeavesUnansweredEmpty) {
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  for (size_t Threshold : {size_t(1), size_t(0)}) {
    QueryEngine E(*B.F);
    E.setKernelThreshold(Threshold);
    BatchControl C;
    C.Token = CancellationToken::create();
    C.Token.requestCancel();
    BatchOutcome Out;
    InternedLabelSets Sets = E.allLabelSets(C, Out);
    EXPECT_EQ(Out.S.code(), StatusCode::Cancelled);
    EXPECT_EQ(Out.Completed, 0u);
    for (uint32_t I = 0; I != B.M->numExprs(); ++I) {
      EXPECT_FALSE(Sets.Done[I]) << "expr " << I;
      EXPECT_EQ(Sets.RowOf[I], 0u) << "expr " << I;
    }
  }
}

//===----------------------------------------------------------------------===//
// Section 10's chain compression (moved from the retired CompressedGraph):
// the interned kernel against BFS over the same programs
//===----------------------------------------------------------------------===//

namespace {

/// A closed graph under the default configuration and its frozen view.
struct Closed {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

Closed closeDefault(std::unique_ptr<Module> M) {
  Closed C;
  C.M = std::move(M);
  if (!C.M)
    return C;
  C.G = std::make_unique<SubtransitiveGraph>(*C.M);
  C.G->build();
  C.G->close();
  C.F = std::make_unique<FrozenGraph>(*C.G);
  return C;
}

/// Every occurrence's interned set equals the BFS over the mutable graph.
void expectKernelMatchesBfs(const Closed &C, const LabelSetKernel &K) {
  Reachability R(*C.G);
  for (uint32_t I = 0; I != C.M->numExprs(); ++I)
    EXPECT_TRUE(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)))
        << "expr " << I;
}

} // namespace

class CompressionEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(CompressionEquivalence, SameLabelSetsFewerNodes) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 60;
  O.UseRefs = (GetParam() % 2) == 0;
  Closed C = closeDefault(parseAndInfer(makeRandomProgram(O)));
  ASSERT_TRUE(C.M);
  LabelSetKernel K(*C.F);
  ASSERT_TRUE(K.run().isOk());
  EXPECT_LT(K.pool().size(), C.F->condensation().numSccs())
      << "interning should share rows across components";
  expectKernelMatchesBfs(C, K);
  Reachability R(*C.G);
  for (uint32_t V = 0; V != C.M->numVars(); ++V) {
    uint32_t N = C.F->nodeOfVar(VarId(V));
    if (N == FrozenGraph::None)
      continue;
    uint32_t Row = K.rowOf(C.F->condensation().sccOf(N));
    EXPECT_TRUE(K.pool().set(Row) == R.labelsOfVar(VarId(V)))
        << "var " << V << " seed " << GetParam();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CompressionEquivalence,
                         ::testing::Range<uint64_t>(1300, 1320));

TEST(Compression, ChainSharesOneRow) {
  // A long let-chain: every link is a pass-through, so the whole chain
  // shares the one row of the lambda it forwards.
  std::string Src = "let a0 = fn x => x;\n";
  for (int I = 1; I <= 200; ++I)
    Src += "let a" + std::to_string(I) + " = a" + std::to_string(I - 1) +
           ";\n";
  Src += "a200";
  Closed C = closeDefault(parseAndInfer(Src));
  ASSERT_TRUE(C.M);
  LabelSetKernel K(*C.F);
  ASSERT_TRUE(K.run().isOk());
  expectKernelMatchesBfs(C, K);
  EXPECT_EQ(K.labelsOf(C.M->root()).count(), 1u);
  EXPECT_GE(K.passThroughs(), 200u);
  EXPECT_LE(K.pool().size(), 3u);
  for (uint32_t V = 0; V != C.M->numVars(); ++V) {
    uint32_t N = C.F->nodeOfVar(VarId(V));
    if (N == FrozenGraph::None)
      continue;
    uint32_t Row = K.rowOf(C.F->condensation().sccOf(N));
    if (Row != 0) {
      EXPECT_EQ(Row, K.rowOfExpr(C.M->root())) << "var " << V;
    }
  }
}

TEST(Compression, HandlesCycles) {
  // letrec loops create cycles among label-free nodes.
  Closed C = closeDefault(
      parseMaybeInfer("letrec loop = fn f => loop f in loop (fn x => x)"));
  ASSERT_TRUE(C.M);
  LabelSetKernel K(*C.F);
  ASSERT_TRUE(K.run().isOk());
  expectKernelMatchesBfs(C, K);
}

TEST(Compression, CorpusEquivalence) {
  Closed C = closeDefault(parseAndInfer(lifeProgram()));
  ASSERT_TRUE(C.M);
  LabelSetKernel K(*C.F);
  ASSERT_TRUE(K.run().isOk());
  EXPECT_LT(K.pool().size(), C.F->condensation().numSccs());
  expectKernelMatchesBfs(C, K);
}
