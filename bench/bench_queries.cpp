//===-- bench/bench_queries.cpp - E1/E10: the Section 2 query table -------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the Section 2 complexity table empirically: the four query
/// problems (`l ∈ L(e)?`, `L(e)`, `{e : l ∈ L(e)}`, all label sets) under
/// the standard algorithm (solve everything, then read) and the new
/// algorithm (build+close once, then graph reachability per query).
/// Also covers E10: the quadratic all-label-sets pass, answered as one
/// `labelsOfBatch` over every occurrence (the label-set kernel).
///
/// Expected shape: per-query cost for the new algorithm is roughly linear
/// in program size, while the standard algorithm pays its full
/// (superlinear) solve before the first answer.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "gen/Generators.h"
#include "support/TablePrinter.h"

using namespace stcfa;
using namespace stcfa::bench;

namespace {

std::string workload(int N) {
  RandomProgramOptions O;
  O.Seed = 7;
  O.NumBindings = N;
  return makeRandomProgram(O);
}

void printPaperTables() {
  JsonReport Report("queries");
  std::printf("== Section 2 query problems: standard vs subtransitive ==\n");
  TablePrinter Table({"bindings", "exprs", "std solve(ms)", "prep(ms)",
                      "isIn(us)", "L(e)(us)", "occurs(us)", "all(ms)"});
  for (int N : {50, 100, 200, 400, 800}) {
    auto M = mustParse(workload(N));
    StandardRun Std = runStandard(*M);
    GraphRun G = runGraph(*M);
    Reachability R(*G.Graph);

    ExprId Root = M->root();
    LabelId L0(0);

    Timer T;
    constexpr int Reps = 50;
    for (int I = 0; I != Reps; ++I)
      benchmark::DoNotOptimize(R.isLabelIn(Root, L0));
    double IsInUs = T.millis() * 1000 / Reps;

    T.reset();
    for (int I = 0; I != Reps; ++I)
      benchmark::DoNotOptimize(R.labelsOf(Root).count());
    double LabelsUs = T.millis() * 1000 / Reps;

    T.reset();
    for (int I = 0; I != Reps; ++I)
      benchmark::DoNotOptimize(R.occurrencesOf(L0).size());
    double OccursUs = T.millis() * 1000 / Reps;

    // All label sets: freeze, then one batch over every occurrence (the
    // label-set kernel above the dispatch threshold).
    T.reset();
    FrozenGraph F(*G.Graph);
    QueryEngine Engine(F);
    std::vector<ExprId> AllExprs;
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      AllExprs.push_back(ExprId(I));
    benchmark::DoNotOptimize(Engine.labelsOfBatch(AllExprs).size());
    double AllMs = T.millis();

    Table.addRow({std::to_string(N), std::to_string(M->numExprs()),
                  TablePrinter::num(Std.TotalMs),
                  TablePrinter::num(G.BuildMs + G.CloseMs),
                  TablePrinter::num(IsInUs), TablePrinter::num(LabelsUs),
                  TablePrinter::num(OccursUs), TablePrinter::num(AllMs)});
    Report.record("section2")
        .add("bindings", N)
        .add("exprs", M->numExprs())
        .add("std_solve_ms", Std.TotalMs)
        .add("prep_ms", G.BuildMs + G.CloseMs)
        .add("is_in_us", IsInUs)
        .add("labels_of_us", LabelsUs)
        .add("occurs_us", OccursUs)
        .add("all_ms", AllMs);
  }
  std::printf("%s\n", Table.render().c_str());
}

void BM_Query_IsLabelIn(benchmark::State &State) {
  auto M = mustParse(workload(static_cast<int>(State.range(0))));
  GraphRun G = runGraph(*M);
  Reachability R(*G.Graph);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.isLabelIn(M->root(), LabelId(0)));
}
BENCHMARK(BM_Query_IsLabelIn)->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);

void BM_Query_LabelsOf(benchmark::State &State) {
  auto M = mustParse(workload(static_cast<int>(State.range(0))));
  GraphRun G = runGraph(*M);
  Reachability R(*G.Graph);
  for (auto _ : State)
    benchmark::DoNotOptimize(R.labelsOf(M->root()).count());
}
BENCHMARK(BM_Query_LabelsOf)->Arg(100)->Arg(400)->Unit(benchmark::kMicrosecond);

} // namespace

STCFA_BENCH_MAIN(printPaperTables)
