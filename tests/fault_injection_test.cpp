//===-- tests/fault_injection_test.cpp - Fault-injection harness ----------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
//
// Iterates every registered fault site, arms it, runs the governed
// pipeline (close -> freeze -> batched queries -> hybrid ladder), and
// asserts: no crash, the documented Status lands where the site fires,
// and every answer actually served is conservative with respect to the
// standard cubic analysis.
//
//===----------------------------------------------------------------------===//

#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "core/SubtransitiveGraph.h"
#include "delta/DeltaSession.h"
#include "gen/Generators.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "testgen/ShapeGen.h"

#include "DeltaTestUtil.h"
#include "TestUtil.h"

#include <algorithm>
#include <set>
#include <string>

using namespace stcfa;

namespace {

const char *Program = R"(
data List = Nil | Cons(Int, List);
let id = fn x => x in
let twice = fn f => fn y => f (f y) in
let pick = fn b => if b then id else twice id in
(pick true) (Cons(1, Nil))
)";

/// Disarms on scope exit so one test's armed site never leaks into the
/// next (gtest runs tests in one process).
struct ArmedSite {
  explicit ArmedSite(std::string_view Name, uint64_t SkipHits = 0) {
    EXPECT_TRUE(armFault(Name, SkipHits)) << "unregistered site " << Name;
  }
  ~ArmedSite() { disarmFaults(); }
};

/// Exact-precision subtransitive config (congruence off), so a clean run
/// matches StandardCFA label-for-label.
SubtransitiveConfig exactConfig() {
  SubtransitiveConfig C;
  C.Congruence = CongruenceMode::None;
  return C;
}

StatusCode expectedCloseCode(std::string_view Site) {
  if (Site == fault::CloseNodeBudget || Site == fault::CloseEdgeBudget)
    return StatusCode::ResourceExhausted;
  if (Site == fault::CloseDeadline)
    return StatusCode::DeadlineExceeded;
  if (Site == fault::CloseCancel)
    return StatusCode::Cancelled;
  return StatusCode::OutOfMemory; // fault::CloseAlloc
}

//===----------------------------------------------------------------------===//
// Registry
//===----------------------------------------------------------------------===//

TEST(FaultInjection, RegistryListsEverySiteOnce) {
  auto Sites = registeredFaultSites();
  EXPECT_GE(Sites.size(), 10u);
  std::set<std::string_view> Names;
  for (const FaultSite &S : Sites) {
    EXPECT_TRUE(Names.insert(S.Name).second) << "duplicate site " << S.Name;
    EXPECT_FALSE(S.Description.empty()) << S.Name;
    // Dotted stage.point naming keeps the registry greppable.
    EXPECT_NE(S.Name.find('.'), std::string_view::npos) << S.Name;
  }
}

TEST(FaultInjection, CompiledInForTier1) {
  // Tier-1 ctest runs with the gate ON (the default); production builds
  // turn it off and every check folds away.
  EXPECT_TRUE(faultInjectionEnabled());
}

TEST(FaultInjection, ArmingUnknownSiteFails) {
  EXPECT_FALSE(armFault("no.such-site"));
  disarmFaults();
}

TEST(FaultInjection, DisarmedSitesNeverFire) {
  disarmFaults();
  for (const FaultSite &S : registeredFaultSites())
    EXPECT_FALSE(faultFires(S.Name)) << S.Name;
}

TEST(FaultInjection, SkipCountDelaysFiring) {
  ArmedSite Armed(fault::CloseNodeBudget, /*SkipHits=*/3);
  EXPECT_FALSE(faultFires(fault::CloseNodeBudget));
  EXPECT_FALSE(faultFires(fault::CloseNodeBudget));
  EXPECT_FALSE(faultFires(fault::CloseNodeBudget));
  EXPECT_TRUE(faultFires(fault::CloseNodeBudget));
  EXPECT_TRUE(faultFires(fault::CloseNodeBudget));
  // Other sites stay dormant while one is armed.
  EXPECT_FALSE(faultFires(fault::CloseDeadline));
}

//===----------------------------------------------------------------------===//
// Close-phase sites
//===----------------------------------------------------------------------===//

TEST(FaultInjection, CloseSitesAbortWithDocumentedStatus) {
  for (std::string_view Site :
       {fault::CloseNodeBudget, fault::CloseEdgeBudget, fault::CloseDeadline,
        fault::CloseCancel, fault::CloseAlloc}) {
    ArmedSite Armed(Site);
    std::unique_ptr<Module> M = parseMaybeInfer(Program);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M, exactConfig());
    G.build();
    Status S = G.close(Deadline::infinite());
    EXPECT_FALSE(S.isOk()) << Site;
    EXPECT_TRUE(G.aborted()) << Site;
    EXPECT_FALSE(G.closed()) << Site;
    EXPECT_EQ(S.code(), expectedCloseCode(Site)) << Site << ": "
                                                 << S.toString();
    EXPECT_EQ(G.closeStatus().code(), S.code()) << Site;

    // Freezing the aborted graph is a reported error, not UB.
    Status FreezeStatus;
    std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FreezeStatus);
    EXPECT_EQ(F, nullptr) << Site;
    EXPECT_EQ(FreezeStatus.code(), StatusCode::FailedPrecondition) << Site;

#ifdef NDEBUG
    // Release-build API contract: queries over the aborted graph answer
    // empty — never a partial, silently-wrong set.
    Reachability Reach(G);
    EXPECT_TRUE(Reach.labelsOf(M->root()).empty()) << Site;
    EXPECT_TRUE(Reach.occurrencesOf(LabelId(0)).empty()) << Site;
    EXPECT_EQ(Reach.status().code(), StatusCode::FailedPrecondition) << Site;
#endif
  }
}

TEST(FaultInjection, MidCloseAbortViaSkipCount) {
  // Fire the node-budget site mid-close instead of on the first
  // iteration; the unwind path must be identical.
  ArmedSite Armed(fault::CloseNodeBudget, /*SkipHits=*/10);
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  Status S = G.close(Deadline::infinite());
  EXPECT_EQ(S.code(), StatusCode::ResourceExhausted);
  EXPECT_TRUE(G.aborted());
}

//===----------------------------------------------------------------------===//
// Freeze sites
//===----------------------------------------------------------------------===//

TEST(FaultInjection, FreezeSitesReportAndYieldNoSnapshot) {
  struct Case {
    std::string_view Site;
    StatusCode Expected;
  } Cases[] = {
      {fault::FreezeAlloc, StatusCode::OutOfMemory},
      {fault::FreezeDeadline, StatusCode::DeadlineExceeded},
  };
  for (const Case &C : Cases) {
    std::unique_ptr<Module> M = parseMaybeInfer(Program);
    ASSERT_TRUE(M);
    SubtransitiveGraph G(*M, exactConfig());
    G.build();
    ASSERT_TRUE(G.close(Deadline::infinite()).isOk());

    ArmedSite Armed(C.Site);
    Status S;
    std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
    EXPECT_EQ(F, nullptr) << C.Site;
    EXPECT_EQ(S.code(), C.Expected) << C.Site << ": " << S.toString();
  }
}

TEST(FaultInjection, LegacyFreezeConstructorGoesInert) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());

  ArmedSite Armed(fault::FreezeAlloc);
  // The governed constructor reports through status() and leaves an
  // empty, well-defined snapshot: every lookup answers "no node".
  FrozenGraph F(G, Deadline::infinite());
  EXPECT_EQ(F.status().code(), StatusCode::OutOfMemory);
  EXPECT_EQ(F.numNodes(), 0u);
  EXPECT_EQ(F.numEdges(), 0u);
  EXPECT_EQ(F.nodeOfExpr(M->root()), FrozenGraph::None);

  QueryEngine E(F);
  EXPECT_TRUE(E.labelsOf(M->root()).empty());
  EXPECT_TRUE(E.occurrencesOf(LabelId(0)).empty());
}

TEST(FaultInjection, MidFreezeDeadlineLeavesNoPartialSnapshot) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());

  // Skip the first checkpoint so the forward CSR is already built when
  // the deadline fires; the half-built arrays must be dropped.
  ArmedSite Armed(fault::FreezeDeadline, /*SkipHits=*/1);
  FrozenGraph F(G, Deadline::infinite());
  EXPECT_EQ(F.status().code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(F.numNodes(), 0u);
  EXPECT_EQ(F.numEdges(), 0u);
}

//===----------------------------------------------------------------------===//
// Batched-query sites
//===----------------------------------------------------------------------===//

TEST(FaultInjection, BatchDeadlineReturnsPartialResults) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  ASSERT_TRUE(S.isOk());
  QueryEngine E(*F);

  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));

  // Ungoverned reference answers.
  std::vector<DenseBitset> Reference = E.labelsOfBatch(Es);

  // Let three items through, then simulate deadline expiry.
  ArmedSite Armed(fault::QueryBatchDeadline, /*SkipHits=*/3);
  BatchControl Control;
  BatchOutcome Outcome;
  std::vector<DenseBitset> Partial = E.labelsOfBatch(Es, Control, Outcome);

  EXPECT_EQ(Outcome.S.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Outcome.Completed, 3u);
  ASSERT_EQ(Outcome.Done.size(), Es.size());
  ASSERT_EQ(Partial.size(), Es.size());
  for (size_t I = 0; I != Es.size(); ++I) {
    if (Outcome.Done[I])
      EXPECT_EQ(Partial[I], Reference[I]) << "item " << I;
    else
      EXPECT_TRUE(Partial[I].empty()) << "item " << I;
  }
  EXPECT_EQ(std::count(Outcome.Done.begin(), Outcome.Done.end(), 1), 3);
}

TEST(FaultInjection, BatchCancelStopsAllLabelSets) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  ASSERT_TRUE(S.isOk());
  QueryEngine E(*F);
  E.setKernelThreshold(0); // per-occurrence BFS: one poll per item

  ArmedSite Armed(fault::QueryBatchCancel, /*SkipHits=*/2);
  BatchControl Control;
  BatchOutcome Outcome;
  InternedLabelSets Partial = E.allLabelSets(Control, Outcome);
  EXPECT_EQ(Outcome.S.code(), StatusCode::Cancelled);
  EXPECT_EQ(Outcome.Completed, 2u);
  ASSERT_EQ(Partial.Done, Outcome.Done);
  // Unanswered slots read row 0, the empty set, never garbage.
  for (size_t I = 0; I != Partial.RowOf.size(); ++I) {
    if (!Outcome.Done[I]) {
      EXPECT_EQ(Partial.RowOf[I], 0u) << "item " << I;
    }
  }
}

TEST(FaultInjection, GovernedBatchCompletesWhenNothingFires) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  ASSERT_TRUE(S.isOk());
  QueryEngine E(*F);

  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  BatchControl Control;
  BatchOutcome Outcome;
  auto Governed = E.labelsOfBatch(Es, Control, Outcome);
  EXPECT_TRUE(Outcome.S.isOk());
  EXPECT_EQ(Outcome.Completed, Es.size());
  EXPECT_EQ(Governed, E.labelsOfBatch(Es));
}

//===----------------------------------------------------------------------===//
// Label-set kernel sites
//===----------------------------------------------------------------------===//

TEST(FaultInjection, KernelAllocFaultReportsOutOfMemory) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  ASSERT_TRUE(S.isOk());

  ArmedSite Armed(fault::KernelAlloc);
  LabelSetKernel K(*F);
  EXPECT_EQ(K.run().code(), StatusCode::OutOfMemory);
  EXPECT_FALSE(K.complete());
  EXPECT_EQ(K.componentsCompleted(), 0u);
  // Every answer is the well-defined empty set, never garbage.
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(K.labelsOf(ExprId(I)).empty()) << "expr " << I;
}

TEST(FaultInjection, KernelLevelCancelFaultReportsCancelled) {
  // A program with more components than one poll stride, so the sweep
  // polls the cancel site more than once.
  std::unique_ptr<Module> M =
      parseMaybeInfer(makeShapeProgram({CondShape::Deep, 100, 1}));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, exactConfig());
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status S;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, S);
  ASSERT_TRUE(S.isOk());
  ASSERT_GT(F->condensation().numSccs(), LabelSetKernel::PollStride);

  // Let one poll stride complete, then fire: the abort must report
  // exactly that prefix of components finished and serve only theirs.
  ArmedSite Armed(fault::KernelCancel, /*SkipHits=*/1);
  LabelSetKernel K(*F);
  EXPECT_EQ(K.run().code(), StatusCode::Cancelled);
  EXPECT_FALSE(K.complete());
  EXPECT_EQ(K.componentsCompleted(), LabelSetKernel::PollStride);
  for (uint32_t Scc = 0; Scc != F->condensation().numSccs(); ++Scc)
    EXPECT_EQ(K.sccComplete(Scc), Scc < LabelSetKernel::PollStride)
        << "component " << Scc;
  disarmFaults();

  // Resume under the same governed contract: now it completes and the
  // answers match a from-scratch closure.
  ASSERT_TRUE(K.run().isOk());
  LabelSetKernel Fresh(*F);
  ASSERT_TRUE(Fresh.run().isOk());
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_TRUE(K.labelsOf(ExprId(I)) == Fresh.labelsOf(ExprId(I)))
        << "expr " << I;
}

//===----------------------------------------------------------------------===//
// Hybrid-ladder sites
//===----------------------------------------------------------------------===//

TEST(FaultInjection, HybridBudgetFaultDegradesToStandard) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  ArmedSite Armed(fault::HybridSubtransitiveBudget);
  HybridOptions Opts;
  HybridCFA H(*M, Opts);
  Status S = H.solve();
  EXPECT_TRUE(S.isOk()); // degraded service is still service
  EXPECT_EQ(H.engine(), HybridCFA::Engine::Standard);

  const DegradationReport &R = H.report();
  EXPECT_STREQ(R.Served, "standard");
  ASSERT_GE(R.Attempts.size(), 2u);
  EXPECT_STREQ(R.Attempts[0].Rung, "subtransitive");
  EXPECT_EQ(R.Attempts[0].S.code(), StatusCode::ResourceExhausted);
  EXPECT_STREQ(R.Attempts.back().Rung, "standard");
  EXPECT_TRUE(R.Attempts.back().S.isOk());

  // The served answers are the standard algorithm's exactly.
  StandardCFA Std(*M);
  Std.run();
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    EXPECT_EQ(H.labelSet(ExprId(I)), Std.labelSet(ExprId(I))) << "expr " << I;
}

TEST(FaultInjection, HybridFreezeFaultDegradesToStandard) {
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  ArmedSite Armed(fault::HybridFreezeAlloc);
  HybridCFA H(*M, HybridOptions{});
  EXPECT_TRUE(H.solve().isOk());
  EXPECT_EQ(H.engine(), HybridCFA::Engine::Standard);
  const DegradationReport &R = H.report();
  ASSERT_GE(R.Attempts.size(), 3u);
  EXPECT_STREQ(R.Attempts[1].Rung, "freeze");
  EXPECT_EQ(R.Attempts[1].S.code(), StatusCode::OutOfMemory);
}

TEST(FaultInjection, HybridStandardFaultFallsToPartialRung) {
  // Blow rung 1 organically (BudgetFactor=0 on a cubic program), then
  // inject a deadline into rung 2; with Degrade=Partial the ladder must
  // still serve — the universal label set for every occurrence.
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(24));
  ASSERT_TRUE(M);
  ArmedSite Armed(fault::HybridStandardDeadline);
  HybridOptions Opts;
  Opts.BudgetFactor = 0; // MaxNodes floor ~1024, exceeded by cubic:24
  Opts.Degrade = DegradeMode::Partial;
  HybridCFA H(*M, Opts);
  Status S = H.solve();
  EXPECT_TRUE(S.isOk());
  EXPECT_EQ(H.engine(), HybridCFA::Engine::PartialAnswer);
  EXPECT_STREQ(H.report().Served, "partial");

  // Universal sets are trivially conservative w.r.t. the true answer.
  StandardCFA Std(*M);
  Std.run();
  DenseBitset Root = H.labelSet(M->root());
  EXPECT_EQ(Root.count(), M->numLabels());
  EXPECT_TRUE(Root.containsAll(Std.labelSet(M->root())));
}

TEST(FaultInjection, HybridStandardFaultWithoutPartialServesNothing) {
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(24));
  ASSERT_TRUE(M);
  ArmedSite Armed(fault::HybridStandardDeadline);
  HybridOptions Opts;
  Opts.BudgetFactor = 0;
  Opts.Degrade = DegradeMode::Standard;
  HybridCFA H(*M, Opts);
  Status S = H.solve();
  EXPECT_EQ(S.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(H.engine(), HybridCFA::Engine::None);
  EXPECT_STREQ(H.report().Served, "none");
  EXPECT_TRUE(H.labelSet(M->root()).empty());

  // The report is machine-readable JSON naming every attempted rung.
  std::string Json = H.report().toJson();
  EXPECT_NE(Json.find("\"served\":\"none\""), std::string::npos) << Json;
  EXPECT_NE(Json.find("\"rung\":\"subtransitive\""), std::string::npos);
  EXPECT_NE(Json.find("\"rung\":\"standard\""), std::string::npos);
  EXPECT_NE(Json.find("deadline-exceeded"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// The sweep: every registered site, one governed pipeline, no crashes,
// conservative answers.
//===----------------------------------------------------------------------===//

TEST(FaultInjection, EverySiteDegradesGracefully) {
  // Ground truth once, outside any armed site.
  std::unique_ptr<Module> M = parseMaybeInfer(Program);
  ASSERT_TRUE(M);
  StandardCFA Std(*M);
  Std.run();

  for (const FaultSite &Site : registeredFaultSites()) {
    // Corrupt-kind sites deliberately produce a *wrong* answer — they are
    // canaries for the differential fuzz suite, not degradation paths.
    if (Site.Kind == FaultKind::Corrupt)
      continue;
    SCOPED_TRACE(std::string(Site.Name));
    ArmedSite Armed(Site.Name);

    // Stage 1+2: governed close and freeze.
    SubtransitiveGraph G(*M, exactConfig());
    G.build();
    Status CloseStatus = G.close(Deadline::infinite());
    std::unique_ptr<FrozenGraph> F;
    Status FreezeStatus;
    if (CloseStatus.isOk())
      F = FrozenGraph::freeze(G, FreezeStatus);
    else
      FreezeStatus = Status::failedPrecondition("close failed");

    // Stage 3: governed batch over whatever survived.
    if (F) {
      QueryEngine E(*F);
      std::vector<ExprId> Es;
      for (uint32_t I = 0; I != M->numExprs(); ++I)
        Es.push_back(ExprId(I));
      BatchControl Control;
      BatchOutcome Outcome;
      std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, Control, Outcome);
      // Completed answers must be exact (congruence off), hence
      // conservative; unanswered slots must be empty, never garbage.
      for (size_t I = 0; I != Es.size(); ++I) {
        if (Outcome.Done[I]) {
          EXPECT_EQ(Sets[I], Std.labelSet(Es[I])) << "expr " << I;
        } else {
          EXPECT_TRUE(Sets[I].empty()) << "expr " << I;
        }
      }
      if (!Outcome.S.isOk()) {
        EXPECT_LT(Outcome.Completed, Es.size());
      }
    }

    // Stage 4: the hybrid ladder with full degradation always serves a
    // conservative answer for this site set (no cancel faults sit on the
    // hybrid path; close/freeze faults in the hybrid's own graph degrade).
    HybridOptions Opts;
    Opts.Degrade = DegradeMode::Partial;
    HybridCFA H(*M, Opts);
    Status HybridStatus = H.solve();
    if (Site.Name == fault::CloseCancel) {
      // The injected cancel reads as a caller request: no answer at all.
      EXPECT_EQ(HybridStatus.code(), StatusCode::Cancelled);
      EXPECT_EQ(H.engine(), HybridCFA::Engine::None);
      EXPECT_TRUE(H.labelSet(M->root()).empty());
    } else {
      EXPECT_TRUE(HybridStatus.isOk()) << HybridStatus.toString();
      EXPECT_NE(H.engine(), HybridCFA::Engine::None);
      for (uint32_t I = 0; I != M->numExprs(); ++I)
        EXPECT_TRUE(H.labelSet(ExprId(I)).containsAll(Std.labelSet(ExprId(I))))
            << "expr " << I << " lost labels under " << Site.Name;
    }
  }
}

//===----------------------------------------------------------------------===//
// Delta sites: every injected fault degrades into a full rebuild that
// still serves bit-exact answers — a governed abort is never a wrong
// answer (src/delta/DeltaSession.h).
//===----------------------------------------------------------------------===//

TEST(FaultInjection, DeltaSitesAreRegistered) {
  auto Sites = registeredFaultSites();
  for (std::string_view Name :
       {fault::DeltaDiffAlloc, fault::DeltaRecloseAbort,
        fault::DeltaInstallRace}) {
    EXPECT_TRUE(std::any_of(Sites.begin(), Sites.end(),
                            [&](const auto &S) { return S.Name == Name; }))
        << "missing delta site " << Name;
  }
}

TEST(FaultInjection, DeltaDiffAllocFallsBackToFullRebuildOnEveryOp) {
  ShapeSpec Spec;
  EXPECT_TRUE(parseShapeSpec("diamond:4", Spec));
  DeltaSession::Options O;
  Status CS = Status::ok();
  auto Sess = DeltaSession::create(makeShapeProgram(Spec), O, CS);
  ASSERT_TRUE(Sess != nullptr) << CS.toString();
  // A spare, unreferenced definition so the delete op below is legal.
  {
    EditRequest Spare;
    Spare.Kind = EditRequest::Op::Insert;
    Spare.Text = "let spare = fn x => m0 (x);";
    ApplyResult Res;
    ASSERT_TRUE(Sess->apply(Spare, Res).isOk());
  }

  EditRequest Replace;
  Replace.Kind = EditRequest::Op::Replace;
  Replace.Name = "l2";
  Replace.Text = "let l2 = fn x => m1 (m0 (x));";
  EditRequest Insert;
  Insert.Kind = EditRequest::Op::Insert;
  Insert.Text = "let faulted = fn x => m2 (x);";
  EditRequest Delete;
  Delete.Kind = EditRequest::Op::Delete;
  Delete.Name = "spare";
  EditRequest Rebody;
  Rebody.Kind = EditRequest::Op::ReplaceBody;
  Rebody.Text = "m4 (m3 0)";

  Counter &Fallbacks = counter("delta.fallback_full");
  for (const auto &[Label, Req] :
       {std::pair<const char *, EditRequest &>{"replace", Replace},
        {"insert", Insert},
        {"delete", Delete},
        {"replace-body", Rebody}}) {
    const uint64_t Before = Fallbacks.value();
    ApplyResult Res;
    Status S = Status::ok();
    {
      ArmedSite Armed(fault::DeltaDiffAlloc);
      S = Sess->apply(Req, Res);
    }
    ASSERT_TRUE(S.isOk()) << Label << ": " << S.toString();
    EXPECT_EQ(Res.M, ApplyResult::Mode::FullRebuild) << Label;
    EXPECT_FALSE(Res.NeedsFullPipeline) << Label;
    EXPECT_EQ(Fallbacks.value(), Before + 1)
        << Label << ": delta.fallback_full did not tick";
    EXPECT_EQ("", compareDeltaToFreshRebuild(
                      *Sess, std::string("diff-alloc ") + Label));
  }
}

TEST(FaultInjection, DeltaRecloseAbortFallsBackToFullRebuild) {
  ShapeSpec Spec;
  EXPECT_TRUE(parseShapeSpec("deep:6", Spec));
  DeltaSession::Options O;
  Status CS = Status::ok();
  auto Sess = DeltaSession::create(makeShapeProgram(Spec), O, CS);
  ASSERT_TRUE(Sess != nullptr) << CS.toString();

  Counter &Fallbacks = counter("delta.fallback_full");
  const uint64_t Before = Fallbacks.value();
  EditRequest Req;
  Req.Kind = EditRequest::Op::Replace;
  Req.Name = "f3";
  Req.Text = "let f3 = fn x => f0 (f1 (x));";
  ApplyResult Res;
  Status S = Status::ok();
  {
    ArmedSite Armed(fault::DeltaRecloseAbort);
    S = Sess->apply(Req, Res);
  }
  ASSERT_TRUE(S.isOk()) << S.toString();
  EXPECT_EQ(Res.M, ApplyResult::Mode::FullRebuild);
  EXPECT_FALSE(Res.NeedsFullPipeline);
  EXPECT_EQ(Fallbacks.value(), Before + 1);
  EXPECT_EQ("", compareDeltaToFreshRebuild(*Sess, "reclose-abort"));

  // Disarmed, the same session serves the next edit incrementally again.
  Req.Text = "let f3 = fn x => f2 (x);";
  ASSERT_TRUE(Sess->apply(Req, Res).isOk());
  EXPECT_EQ(Res.M, ApplyResult::Mode::Delta);
  EXPECT_EQ("", compareDeltaToFreshRebuild(*Sess, "reclose-recovered"));
}

} // namespace
