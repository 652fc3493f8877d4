//===-- tests/differential_fuzz_test.cpp - Engine cross-check fuzzing -----===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Seed-driven differential fuzzing of the serving path: for each random
/// program, the full label-set table is computed three ways —
///
///   1. the standard cubic analysis (ground truth),
///   2. the governed per-query BFS batch path (kernel disabled),
///   3. the word-parallel `LabelSetKernel` (kernel forced on),
///
/// and any disagreement fails with the reproducing seed in the message.
/// Programs are pure (no refs/effects) with congruence off, so all three
/// engines must agree bit-for-bit, not merely conservatively.
///
/// The `kernel.row-corrupt` fault site is the suite's canary: arming it
/// makes the kernel silently flip one bit in a finished row, and the
/// canary test asserts the differential check actually reports it.
///
//===----------------------------------------------------------------------===//

#include "analysis/StandardCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "gen/Generators.h"
#include "support/FaultInjection.h"
#include "testgen/ShapeGen.h"

#include "TestUtil.h"

#include <string>
#include <vector>

using namespace stcfa;

namespace {

/// Runs the three engines over \p Src and returns a human-readable
/// mismatch report ("" when all agree).  Every line carries \p Tag (the
/// generator spec/seed), so a failure is reproducible from the test log
/// alone.
std::string differentialReportSource(const std::string &Tag,
                                     const std::string &Src) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Src, Diags);
  if (!M)
    return Tag + ": generated program failed to parse:\n" + Diags.render();
  DiagnosticEngine InferDiags;
  if (!inferTypes(*M, InferDiags))
    return Tag + ": generated program failed to type-check:\n" +
           InferDiags.render();

  // Ground truth: the cubic analysis.
  StandardCFA Std(*M);
  Std.run();

  // Shared preparation: exact (congruence-off) close + freeze.
  SubtransitiveConfig Config;
  Config.Congruence = CongruenceMode::None;
  SubtransitiveGraph G(*M, Config);
  G.build();
  Status CloseStatus = G.close(Deadline::infinite());
  if (!CloseStatus.isOk())
    return Tag + ": close failed: " + CloseStatus.toString();
  Status FreezeStatus;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FreezeStatus);
  if (!F)
    return Tag + ": freeze failed: " + FreezeStatus.toString();

  std::vector<ExprId> Es;
  for (uint32_t I = 0, E = M->numExprs(); I != E; ++I)
    Es.push_back(ExprId(I));

  // Engine 2: governed BFS batch — kernel disabled, infinite controls,
  // so the batch must complete every slot.
  QueryEngine Bfs(*F);
  Bfs.setKernelThreshold(0);
  BatchControl Control;
  BatchOutcome Outcome;
  std::vector<DenseBitset> BfsSets = Bfs.labelsOfBatch(Es, Control, Outcome);
  if (!Outcome.S.isOk() || Outcome.Completed != Es.size())
    return Tag + ": ungoverned-control batch stopped early: " +
           Outcome.S.toString();

  // Engine 3: the word-parallel kernel — threshold 1 forces dispatch.
  QueryEngine Kern(*F);
  Kern.setKernelThreshold(1);
  std::vector<DenseBitset> KernSets = Kern.labelsOfBatch(Es);

  std::string Report;
  unsigned Mismatches = 0;
  auto check = [&](const char *Engine, const DenseBitset &Got, uint32_t I) {
    const DenseBitset &Want = Std.labelSet(ExprId(I));
    if (Got == Want)
      return;
    ++Mismatches;
    if (Mismatches > 5) // keep the log readable; the seed reproduces all
      return;
    Report += Tag + ": " + Engine + " disagrees with standard at expr " +
              std::to_string(I) + " (got " + std::to_string(Got.count()) +
              " labels, want " + std::to_string(Want.count()) + ")\n";
  };
  for (uint32_t I = 0, E = M->numExprs(); I != E; ++I) {
    check("governed-bfs", BfsSets[I], I);
    check("kernel", KernSets[I], I);
  }
  if (Mismatches > 5)
    Report += Tag + ": ... " + std::to_string(Mismatches - 5) +
              " further mismatches suppressed\n";
  return Report;
}

std::string differentialReport(const RandomProgramOptions &O) {
  return differentialReportSource("seed " + std::to_string(O.Seed),
                                  makeRandomProgram(O));
}

class DifferentialFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzz, EnginesAgree) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 40;
  O.UseRefs = false;
  O.UseEffects = false;
  EXPECT_EQ(differentialReport(O), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzz,
                         ::testing::Range<uint64_t>(1000, 1160));

/// Larger programs push the close phase and the kernel's sweep harder
/// (more SCCs, deeper condensation DAG).
class DifferentialFuzzDense : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzzDense, EnginesAgree) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 96;
  O.UseRefs = false;
  O.UseEffects = false;
  EXPECT_EQ(differentialReport(O), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzDense,
                         ::testing::Range<uint64_t>(5000, 5040));

/// Tiny programs hit the edge cases: single-SCC condensations, rows of
/// one word, batches barely above the forced threshold.
class DifferentialFuzzTiny : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzzTiny, EnginesAgree) {
  RandomProgramOptions O;
  O.Seed = GetParam();
  O.NumBindings = 8;
  O.UseRefs = false;
  O.UseEffects = false;
  EXPECT_EQ(differentialReport(O), "");
}

INSTANTIATE_TEST_SUITE_P(Seeds, DifferentialFuzzTiny,
                         ::testing::Range<uint64_t>(9000, 9040));

/// The condensation-shape stress corpus (testgen/ShapeGen.h): each shape
/// family exercises a condensation geometry the random generator rarely
/// produces — one fat level, a skinny path, alternating widths, and
/// fat-then-skinny.
class DifferentialFuzzShapes : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DifferentialFuzzShapes, EnginesAgree) {
  uint64_t Case = GetParam();
  ShapeSpec Spec;
  Spec.Shape = static_cast<CondShape>(Case % NumCondShapes);
  Spec.N = 5 + static_cast<int>((Case * 7) % 60);
  Spec.Seed = 1 + Case;
  EXPECT_EQ(differentialReportSource(shapeSpecString(Spec),
                                     makeShapeProgram(Spec)),
            "");
}

INSTANTIATE_TEST_SUITE_P(Shapes, DifferentialFuzzShapes,
                         ::testing::Range<uint64_t>(0, 64));

//===----------------------------------------------------------------------===//
// The canary: a deliberately-broken kernel must be caught.
//===----------------------------------------------------------------------===//

TEST(DifferentialFuzzCanary, CorruptedKernelRowIsReported) {
  if (!faultInjectionEnabled())
    GTEST_SKIP() << "fault injection compiled out";

  RandomProgramOptions O;
  O.Seed = 4242;
  O.NumBindings = 40;
  O.UseRefs = false;
  O.UseEffects = false;

  // Sanity: the seed is clean without the fault.
  ASSERT_EQ(differentialReport(O), "");

  ASSERT_TRUE(armFault(fault::KernelRowCorrupt));
  std::string Report = differentialReport(O);
  disarmFaults();

  // The corrupted row must surface as a kernel-vs-standard mismatch, and
  // the report must name the reproducing seed.
  EXPECT_FALSE(Report.empty())
      << "a silently corrupted kernel row went undetected";
  EXPECT_NE(Report.find("seed 4242"), std::string::npos) << Report;
  EXPECT_NE(Report.find("kernel"), std::string::npos) << Report;
}

} // namespace
