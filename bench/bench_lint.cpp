//===-- bench/bench_lint.cpp - Lint pass scaling over program size --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-pass lint wall-clock versus program size.  Every checker consumes
/// the frozen subtransitive graph without materialising label sets, so
/// each pass should scale with the graph (nodes + edges), not with
/// labels x call sites.  The table sweeps cubic:N (the quadratic-growth
/// family); `BENCH_lint.json` records per-(program, pass) timings plus a
/// final metrics snapshot so CI can diff counters across revisions.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "lint/LintEngine.h"
#include "support/Metrics.h"
#include "support/TablePrinter.h"

using namespace stcfa;
using namespace stcfa::bench;

namespace {

void printPaperTables() {
  std::printf("== Lint pass wall-clock vs program size ==\n");
  TablePrinter Table(
      {"prog", "exprs", "nodes", "pass", "time(ms)", "findings", "partial"});
  JsonReport Report("lint");

  struct Prog {
    std::string Name;
    std::string Source;
  };
  RandomProgramOptions RO;
  RO.Seed = 13;
  RO.NumBindings = 300;
  RO.UseRefs = true;
  RO.UseEffects = true;
  const Prog Progs[] = {{"cubic:8", makeCubicFamily(8)},
                        {"cubic:32", makeCubicFamily(32)},
                        {"cubic:128", makeCubicFamily(128)},
                        {"joinpoint:64", makeJoinPointFamily(64)},
                        {"life", lifeProgram()},
                        {"random:300", makeRandomProgram(RO)}};

  for (const Prog &P : Progs) {
    auto M = mustParse(P.Source);
    GraphRun G = runGraph(*M);
    Timer FreezeTimer;
    FrozenGraph F(*G.Graph);
    double FreezeMs = FreezeTimer.millis();
    if (!F.status().isOk()) {
      std::fprintf(stderr, "freeze failed for %s: %s\n", P.Name.c_str(),
                   F.status().toString().c_str());
      continue;
    }

    LintEngine Engine(*M, F);
    for (const LintPassInfo &Info : LintEngine::passes()) {
      LintOptions LO;
      LO.Passes = {Info.Id};
      // A fresh engine run per pass so shared analyses (called-once,
      // effects) are rebuilt and their cost lands inside the timing.
      Timer T;
      LintResult R = Engine.run(LO);
      double Millis = T.millis();
      const LintPassReport &PassReport = R.Reports.front();
      uint32_t Findings =
          static_cast<uint32_t>(PassReport.Findings.size());
      Table.addRow({P.Name, TablePrinter::num(uint64_t(M->numExprs())),
                    TablePrinter::num(uint64_t(F.numNodes())), Info.Id,
                    TablePrinter::num(Millis),
                    TablePrinter::num(uint64_t(Findings)),
                    PassReport.Partial ? "yes" : "no"});
      Report.record("lint_pass")
          .add("prog", P.Name)
          .add("pass", Info.Id)
          .add("exprs", M->numExprs())
          .add("nodes", F.numNodes())
          .add("build_ms", G.BuildMs)
          .add("close_ms", G.CloseMs)
          .add("freeze_ms", FreezeMs)
          .add("lint_ms", Millis)
          .add("findings", Findings)
          .add("partial", PassReport.Partial ? 1u : 0u);
    }

    // All passes in one governed fan-out run: the engine amortises the
    // shared called-once/effects analyses across consumers.
    Timer AllTimer;
    LintResult All = Engine.run({});
    Report.record("lint_all")
        .add("prog", P.Name)
        .add("lint_ms", AllTimer.millis())
        .add("errors", All.NumErrors)
        .add("warnings", All.NumWarnings)
        .add("notes", All.NumNotes);
  }

  Report.record("metrics").addRaw("snapshot", snapshotMetrics().toJson());
  std::printf("%s\n", Table.render().c_str());
}

void BM_LintAllPasses(benchmark::State &State) {
  auto M = mustParse(makeCubicFamily(static_cast<int>(State.range(0))));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  LintEngine Engine(*M, F);
  for (auto _ : State) {
    LintResult R = Engine.run({});
    benchmark::DoNotOptimize(R.NumWarnings);
  }
}
BENCHMARK(BM_LintAllPasses)->Arg(8)->Arg(32)->Arg(128)->Unit(
    benchmark::kMillisecond);

void BM_LintSinglePass(benchmark::State &State) {
  auto M = mustParse(makeCubicFamily(64));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  LintEngine Engine(*M, F);
  const LintPassInfo &Info = LintEngine::passes()[State.range(0)];
  State.SetLabel(Info.Id);
  for (auto _ : State) {
    LintOptions LO;
    LO.Passes = {Info.Id};
    LintResult R = Engine.run(LO);
    benchmark::DoNotOptimize(R.Reports.front().Findings.size());
  }
}
BENCHMARK(BM_LintSinglePass)
    ->DenseRange(0, 5)
    ->Unit(benchmark::kMillisecond);

} // namespace

STCFA_BENCH_MAIN(printPaperTables)
