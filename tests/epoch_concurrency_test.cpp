//===-- tests/epoch_concurrency_test.cpp - Lock-free epoch point queries --===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Point queries on an installed epoch take no lock: every walk runs on
/// the calling thread's own scratch, and the lazily built state they read
/// — the complete label-set kernel and the occurrence index — is
/// published once.  These cases hammer one epoch from four reader threads
/// while a fifth runs `allLabels`, so the kernel's publication and the
/// occurrence index's build threshold are crossed mid-burst, and check
/// every answer against a single-threaded BFS computed beforehand.  Live,
/// mapped-snapshot (kernel adopted, complete from the start) and delta
/// epochs are all covered, and so is a degraded live epoch, which answers
/// from its label-set table (checked against `StandardCFA` instead).  The TSan preset runs this suite with the
/// `unit` label, and scripts/ci.sh repeats it there.
///
//===----------------------------------------------------------------------===//

#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/Reachability.h"
#include "core/SubtransitiveGraph.h"
#include "delta/DeltaSession.h"
#include "gen/Generators.h"
#include "parser/Parser.h"
#include "serve/Epoch.h"
#include "snapshot/Snapshot.h"
#include "support/Metrics.h"
#include "testgen/ShapeGen.h"

#include "TestUtil.h"

#include <atomic>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

using namespace stcfa;

namespace {

constexpr unsigned Readers = 4;

/// Single-threaded BFS answers over one frozen graph.
struct Expected {
  std::vector<DenseBitset> Labels;              ///< per expression
  std::vector<std::vector<ExprId>> Occurrences; ///< per label
};

Expected bfsAnswers(const FrozenGraph &F) {
  QueryEngine Bfs(F, 1);
  Bfs.setKernelThreshold(0); // never a kernel: every answer is a walk
  Expected Out;
  for (uint32_t I = 0; I != F.numExprs(); ++I)
    Out.Labels.push_back(Bfs.labelsOf(ExprId(I)));
  for (uint32_t L = 0; L != F.numLabels(); ++L)
    Out.Occurrences.push_back(Bfs.occurrencesOf(LabelId(L)));
  return Out;
}

/// Collects the first few mismatch reports from any thread.
class Failures {
public:
  void add(std::string Msg) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Msgs.size() < 8)
      Msgs.push_back(std::move(Msg));
  }
  std::string report() const {
    std::string Out;
    for (const std::string &M : Msgs)
      Out += M + "\n";
    return Out;
  }

private:
  std::mutex Mu;
  std::vector<std::string> Msgs;
};

/// Four readers cycle through `labels`, `is-label-in` and `occurrences`
/// on \p E while a fifth thread, once they are under way, runs
/// `allLabels` three times (building and publishing the kernel unless it
/// was adopted).  Each reader runs one last round after it sees the
/// fifth thread done, so every reader reads both before and after the
/// kernel is published.  Returns the mismatch reports, empty on
/// agreement.
std::string hammer(serve::Epoch &E, const Expected &Want) {
  const uint32_t NE = E.numExprs(), NL = E.numLabels();
  const Deadline D = Deadline::infinite();
  std::atomic<uint64_t> Ops{0};
  std::atomic<bool> BatchDone{false};
  Failures Fail;

  auto Reader = [&](unsigned T) {
    DenseBitset Set;
    std::vector<ExprId> Occ;
    for (unsigned Round = 0;; ++Round) {
      const bool Last = BatchDone.load();
      for (uint32_t I = T; I < NE; I += Readers) {
        const ExprId X(I);
        const LabelId L((I + Round) % NL);
        if (!E.labelsOf(X, D, Set).isOk() || !(Set == Want.Labels[I]))
          Fail.add("labels of expr " + std::to_string(I));
        bool In = false;
        if (!E.isLabelIn(X, L, D, In).isOk() ||
            In != Want.Labels[I].contains(L.index()))
          Fail.add("is-label-in expr " + std::to_string(I) + " label " +
                   std::to_string(L.index()));
        if (I % 3 == 0 && (!E.occurrencesOf(L, D, Occ).isOk() ||
                           Occ != Want.Occurrences[L.index()]))
          Fail.add("occurrences of label " + std::to_string(L.index()));
        Ops.fetch_add(1, std::memory_order_relaxed);
      }
      if (Last)
        break;
    }
  };
  auto Batch = [&] {
    while (Ops.load(std::memory_order_relaxed) < 64)
      std::this_thread::yield();
    for (int Rep = 0; Rep != 3; ++Rep) {
      InternedLabelSets Sets;
      if (!E.allLabels(D, Sets).isOk() || Sets.RowOf.size() != NE) {
        Fail.add("all-labels failed");
        continue;
      }
      for (uint32_t I = 0; I != NE; ++I)
        if (!(Sets.pool().set(Sets.RowOf[I]) == Want.Labels[I]))
          Fail.add("all-labels row of expr " + std::to_string(I));
    }
    BatchDone.store(true);
  };

  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Readers; ++T)
    Ts.emplace_back(Reader, T);
  Ts.emplace_back(Batch);
  for (std::thread &T : Ts)
    T.join();
  return Fail.report();
}

/// Parses and solves \p Src the way the daemon's `load` does.
serve::LivePipeline solved(const std::string &Src) {
  serve::LivePipeline P;
  HybridOptions HO;
  HO.Threads = 2;
  EXPECT_TRUE(P.run(Src, HO).isOk());
  return P;
}

uint64_t pointKernelAnswers() {
  return counter("query.point.kernel").value();
}

TEST(EpochConcurrency, LiveEpochPublishesItsKernelMidBurst) {
  serve::LivePipeline P = solved(makeCubicFamily(12));
  ASSERT_TRUE(P.H && P.H->frozen());
  serve::Epoch E(1, std::move(P.M), std::move(P.H));
  ASSERT_STREQ(E.engine(), "subtransitive");
  const Expected Want = bfsAnswers(*E.frozen());
  const uint64_t Before = pointKernelAnswers();
  EXPECT_EQ(hammer(E, Want), "");
  // The readers that ran after publication answered from the kernel.
  EXPECT_GT(pointKernelAnswers(), Before);
}

TEST(EpochConcurrency, MappedSnapshotEpochAnswersFromItsAdoptedKernel) {
  const std::string Src = makeCubicFamily(12);
  const std::string Path =
      testing::TempDir() + "stcfa_epoch_concurrency_test.snap";
  {
    serve::LivePipeline P = solved(Src);
    ASSERT_TRUE(P.H && P.H->frozen());
    ASSERT_TRUE(
        writeSnapshotWithKernel(Path, *P.H->frozen(), *P.M, 0).isOk());
  }
  Status S = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
  ASSERT_TRUE(Snap) << S.toString();
  ASSERT_TRUE(Snap->hasKernelRows());
  serve::Epoch E(2, std::move(Snap), Src, 2,
                 QueryEngine::DefaultKernelThreshold);
  ASSERT_STREQ(E.engine(), "snapshot");
  const Expected Want = bfsAnswers(*E.frozen());
  const uint64_t Before = pointKernelAnswers();
  EXPECT_EQ(hammer(E, Want), "");
  EXPECT_GT(pointKernelAnswers(), Before);
  std::remove(Path.c_str());
}

TEST(EpochConcurrency, DeltaEpochPublishesItsKernelMidBurst) {
  ShapeSpec Spec;
  ASSERT_TRUE(parseShapeSpec("deep:24", Spec));
  Status S = Status::ok();
  std::unique_ptr<DeltaSession> Sess =
      DeltaSession::create(makeShapeProgram(Spec), DeltaSession::Options{}, S);
  ASSERT_TRUE(Sess) << S.toString();
  EditRequest Edit;
  Edit.Kind = EditRequest::Op::Replace;
  Edit.Name = "f3";
  Edit.Text = "let f3 = fn x => f2 (f2 x);";
  ApplyResult Res;
  ASSERT_TRUE(Sess->apply(Edit, Res).isOk());
  DeltaView V;
  ASSERT_TRUE(Sess->freezeView(V).isOk());
  serve::Epoch E(3, std::move(V), Sess->currentSource(), 2,
                 QueryEngine::DefaultKernelThreshold);
  ASSERT_STREQ(E.engine(), "delta");
  const Expected Want = bfsAnswers(*E.frozen());
  const uint64_t Before = pointKernelAnswers();
  EXPECT_EQ(hammer(E, Want), "");
  EXPECT_GT(pointKernelAnswers(), Before);
}

TEST(EpochConcurrency, DegradedEpochAnswersFromItsTable) {
  // Exact datatype tracking diverges on a recursive traversal of a
  // recursive datatype, so the ladder serves from its standard rung: the
  // epoch has no graph and answers every query from its table.
  serve::LivePipeline P = solved(
      "data FList = FNil | FCons(Int -> Int, FList);\n"
      "letrec map = fn f => fn l => case l of FNil => FNil "
      "| FCons(h, t) => FCons(f h, map f t) end in "
      "map (fn g => g) (FCons(fn x => x + 1, FCons(fn y => y, FNil)))");
  ASSERT_TRUE(P.H);
  ASSERT_EQ(P.H->engine(), HybridCFA::Engine::Standard);
  StandardCFA Std(*P.M);
  ASSERT_TRUE(Std.run(Deadline::infinite()).isOk());
  Expected Want;
  for (uint32_t I = 0; I != P.M->numExprs(); ++I)
    Want.Labels.push_back(Std.labelSet(ExprId(I)));
  Want.Occurrences.resize(P.M->numLabels());
  for (uint32_t I = 0; I != P.M->numExprs(); ++I)
    Want.Labels[I].forEach(
        [&](uint32_t L) { Want.Occurrences[L].push_back(ExprId(I)); });
  serve::Epoch E(4, std::move(P.M), std::move(P.H));
  ASSERT_STREQ(E.engine(), "standard");
  ASSERT_EQ(E.frozen(), nullptr);
  EXPECT_EQ(hammer(E, Want), "");
}

/// A program built through the mutable graph, with its BFS oracle.
struct Built {
  std::unique_ptr<Module> M;
  std::unique_ptr<SubtransitiveGraph> G;
  std::unique_ptr<FrozenGraph> F;
};

Built build(const std::string &Src) {
  Built B;
  B.M = parseMaybeInfer(Src);
  EXPECT_TRUE(B.M);
  B.G = std::make_unique<SubtransitiveGraph>(*B.M);
  B.G->build();
  B.G->close();
  B.F = std::make_unique<FrozenGraph>(*B.G);
  return B;
}

TEST(EpochConcurrency, ThreadScratchMovesBetweenEnginesOfDifferentSizes) {
  // One fresh thread walks a small engine, then a larger one (its scratch
  // grows), then the small one again (stamps the larger walks left stay
  // behind), and so on: every answer must still be BFS-exact.
  Built Small = build(makeCubicFamily(3));
  Built Big = build(makeCubicFamily(20));
  ASSERT_LT(Small.F->numNodes(), Big.F->numNodes());
  std::string Report;
  std::thread([&] {
    for (int Pass = 0; Pass != 3; ++Pass)
      for (const Built *B : {&Small, &Big}) {
        QueryEngine Engine(*B->F, 1);
        Engine.setKernelThreshold(0); // walks only
        Reachability R(*B->G);
        const std::string Tag = "pass " + std::to_string(Pass) + " " +
                                std::to_string(B->F->numNodes()) + " nodes";
        for (uint32_t I = 0; I != B->M->numExprs(); ++I) {
          DenseBitset Want = R.labelsOf(ExprId(I));
          if (!(Engine.labelsOf(ExprId(I)) == Want))
            Report += Tag + ": labels of expr " + std::to_string(I) + "\n";
          LabelId L(I % B->M->numLabels());
          if (Engine.isLabelIn(ExprId(I), L) != Want.contains(L.index()))
            Report += Tag + ": is-label-in expr " + std::to_string(I) + "\n";
        }
        for (uint32_t L = 0; L != B->M->numLabels(); ++L)
          if (Engine.occurrencesOf(LabelId(L)) !=
              R.occurrencesOf(LabelId(L)))
            Report += Tag + ": occurrences of label " + std::to_string(L) +
                      "\n";
      }
  }).join();
  EXPECT_EQ(Report, "");
}

} // namespace
