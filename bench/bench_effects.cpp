//===-- bench/bench_effects.cpp - E4: linear-time effects analysis --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 8: effects analysis directly on the subtransitive graph
/// (linear) versus the pipeline the paper contrasts against — run the
/// standard analysis, materialise label sets, then run the syntactic
/// effects fixpoint (at least quadratic).
///
/// Expected shape: identical answers; the graph-based pass scales linearly
/// in the wrapper-chain length while the reference pipeline grows
/// superlinearly.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/EffectsAnalysis.h"
#include "gen/Generators.h"
#include "support/TablePrinter.h"

using namespace stcfa;
using namespace stcfa::bench;

namespace {

void printPaperTables() {
  std::printf("== Section 8: effects analysis, graph vs std pipeline ==\n");
  TablePrinter Table({"chain", "exprs", "effectful", "graph(ms)",
                      "std pipeline(ms)", "agree"});
  for (int N : {8, 32, 128, 512, 2048}) {
    auto M = mustParse(makeEffectsFamily(N));

    Timer T;
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    EffectsAnalysis Fast(*M, F);
    Fast.run();
    double FastMs = T.millis();

    T.reset();
    StandardCFA Std(*M);
    Std.run();
    EffectsAnalysisRef Ref(*M, Std);
    Ref.run();
    double RefMs = T.millis();

    bool Agree = Fast.numEffectful() == Ref.numEffectful();
    for (uint32_t I = 0; Agree && I != M->numExprs(); ++I)
      Agree = Fast.isEffectful(ExprId(I)) == Ref.isEffectful(ExprId(I));

    Table.addRow({std::to_string(N), std::to_string(M->numExprs()),
                  std::to_string(Fast.numEffectful()),
                  TablePrinter::num(FastMs), TablePrinter::num(RefMs),
                  Agree ? "yes" : "NO"});
  }
  std::printf("%s\n", Table.render().c_str());
}

void BM_Effects_Graph(benchmark::State &State) {
  auto M = mustParse(makeEffectsFamily(static_cast<int>(State.range(0))));
  for (auto _ : State) {
    SubtransitiveGraph G(*M);
    G.build();
    G.close();
    FrozenGraph F(G);
    EffectsAnalysis E(*M, F);
    E.run();
    benchmark::DoNotOptimize(E.numEffectful());
  }
}
BENCHMARK(BM_Effects_Graph)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

void BM_Effects_StdPipeline(benchmark::State &State) {
  auto M = mustParse(makeEffectsFamily(static_cast<int>(State.range(0))));
  for (auto _ : State) {
    StandardCFA Std(*M);
    Std.run();
    EffectsAnalysisRef Ref(*M, Std);
    Ref.run();
    benchmark::DoNotOptimize(Ref.numEffectful());
  }
}
BENCHMARK(BM_Effects_StdPipeline)
    ->Arg(32)
    ->Arg(128)
    ->Arg(512)
    ->Unit(benchmark::kMillisecond);

} // namespace

STCFA_BENCH_MAIN(printPaperTables)
