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
///   * `QueryEngine` dispatch: batches at/above the threshold ride the
///     kernel, point queries and sub-threshold batches do not, and an
///     aborted kernel degrades to the BFS path transparently.
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
    std::span<const uint64_t> R = K.rowSpan(S);
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
    std::span<const uint64_t> R = K.rowSpan(S);
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

  QueryEngine Kern(*B.F, 2);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F, 2);
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
  QueryEngine E(*B.F, 1);
  E.setKernelThreshold(1000000);
  std::vector<ExprId> Small{B.M->root()};
  (void)E.labelsOfBatch(Small);
  EXPECT_EQ(E.kernel(), nullptr);
}

TEST(QueryEngineKernel, OccurrencesBatchMatchesReverseBfs) {
  for (const Workload &W : corpus()) {
    Built B = build(W, CongruenceMode::ByType);
    ASSERT_TRUE(B.M) << W.Name;
    std::vector<LabelId> Ls;
    for (uint32_t L = 0, E = B.M->numLabels(); L != E; ++L)
      Ls.push_back(LabelId(L));
    if (Ls.empty())
      continue;

    QueryEngine Kern(*B.F, 2);
    Kern.setKernelThreshold(1);
    QueryEngine Bfs(*B.F, 2);
    Bfs.setKernelThreshold(0);
    std::vector<std::vector<ExprId>> A = Kern.occurrencesOfBatch(Ls);
    std::vector<std::vector<ExprId>> Want = Bfs.occurrencesOfBatch(Ls);
    ASSERT_NE(Kern.kernel(), nullptr) << W.Name;
    for (size_t I = 0; I != Ls.size(); ++I) {
      ASSERT_EQ(A[I].size(), Want[I].size()) << W.Name << " label " << I;
      for (size_t J = 0; J != A[I].size(); ++J)
        ASSERT_TRUE(A[I][J] == Want[I][J]) << W.Name << " label " << I;
    }
  }
}

TEST(QueryEngineKernel, MembershipBatchReusesCompletedKernel) {
  Built B = build({"dispatch:8", makeDispatchFamily(8), true},
                  CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine Kern(*B.F, 1);
  Kern.setKernelThreshold(1);
  QueryEngine Bfs(*B.F, 1);
  Bfs.setKernelThreshold(0);

  // Prime the kernel through a big labels batch, then compare every
  // (expr, label) membership probe against the BFS engine.
  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));
  (void)Kern.labelsOfBatch(Es);
  ASSERT_NE(Kern.kernel(), nullptr);

  std::vector<std::pair<ExprId, LabelId>> Qs;
  for (uint32_t I = 0, E = B.M->numExprs(); I != E; ++I)
    for (uint32_t L = 0, LE = B.M->numLabels(); L != LE; ++L)
      Qs.push_back({ExprId(I), LabelId(L)});
  EXPECT_EQ(Kern.isLabelInBatch(Qs), Bfs.isLabelInBatch(Qs));
}

TEST(QueryEngineKernel, GovernedBatchOnKernelPathReportsAllDone) {
  Built B = build({"cubic:8", makeCubicFamily(8), true}, CongruenceMode::None);
  ASSERT_TRUE(B.M);
  QueryEngine E(*B.F, 2);
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
  QueryEngine E(*B.F, 2);
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
    QueryEngine E(*B.F, 2);
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
  HO.Threads = 2;
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
