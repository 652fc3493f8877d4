//===-- bench/bench_klimited.cpp - E5: k-limited CFA and called-once ------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Section 9 (k-limited CFA) and the abstract's called-once analysis:
/// annotation propagation over the subtransitive graph versus computing
/// full label sets per call site with repeated reachability.
///
/// Expected shape: the k-limited pass is (near-)linear for fixed k, with
/// update counts bounded by (k+1)·edges, and is much cheaper than the
/// full-set pass on programs with large label sets.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "apps/KLimitedCFA.h"
#include "gen/Generators.h"
#include "support/TablePrinter.h"

using namespace stcfa;
using namespace stcfa::bench;

namespace {

void printPaperTables() {
  std::printf("== Section 9: k-limited CFA over the dispatch-chain family ==\n");
  TablePrinter Table({"sites", "exprs", "k", "klim(ms)", "updates",
                      "full-sets(ms)", "many call-sites"});
  for (int N : {16, 64, 256, 1024}) {
    auto M = mustParse(makeDispatchFamily(N));
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);
    for (uint32_t K : {1u, 3u}) {
      Timer T;
      KLimitedCFA KL(*M, F, K);
      KL.run();
      double KlMs = T.millis();

      uint32_t Many = 0;
      for (uint32_t I = 0; I != M->numExprs(); ++I)
        if (isa<AppExpr>(M->expr(ExprId(I))) &&
            KL.ofCallSite(ExprId(I)).isMany())
          ++Many;

      // The full-set alternative: reachability per call site.
      T.reset();
      Reachability R(*G.Graph);
      uint64_t Total = 0;
      for (uint32_t I = 0; I != M->numExprs(); ++I) {
        const auto *A = dyn_cast<AppExpr>(M->expr(ExprId(I)));
        if (A)
          Total += R.labelsOf(A->fn()).count();
      }
      double FullMs = T.millis();
      benchmark::DoNotOptimize(Total);

      Table.addRow({std::to_string(N), std::to_string(M->numExprs()),
                    std::to_string(K), TablePrinter::num(KlMs),
                    TablePrinter::num(KL.updates()),
                    TablePrinter::num(FullMs), std::to_string(Many)});
    }
  }
  std::printf("%s\n", Table.render().c_str());

  std::printf("== Called-once analysis over the called-once family ==\n");
  TablePrinter T2({"families", "labels", "once", "many", "time(ms)"});
  for (int N : {16, 64, 256, 1024}) {
    auto M = mustParse(makeCalledOnceFamily(N));
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);
    Timer T;
    CalledOnceAnalysis CO(*M, F);
    CO.run();
    double Ms = T.millis();
    uint32_t Once = static_cast<uint32_t>(CO.calledOnce().size());
    uint32_t Many = 0;
    for (uint32_t L = 0; L != M->numLabels(); ++L)
      if (CO.countOf(LabelId(L)) == CalledOnceAnalysis::CallCount::Many)
        ++Many;
    T2.addRow({std::to_string(N), std::to_string(M->numLabels()),
               std::to_string(Once), std::to_string(Many),
               TablePrinter::num(Ms)});
  }
  std::printf("%s\n", T2.render().c_str());
}

void BM_KLimited(benchmark::State &State) {
  auto M = mustParse(makeDispatchFamily(static_cast<int>(State.range(0))));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  for (auto _ : State) {
    KLimitedCFA KL(*M, F, static_cast<uint32_t>(State.range(1)));
    KL.run();
    benchmark::DoNotOptimize(KL.updates());
  }
}
BENCHMARK(BM_KLimited)
    ->Args({64, 1})
    ->Args({64, 5})
    ->Args({1024, 1})
    ->Args({1024, 5})
    ->Unit(benchmark::kMillisecond);

void BM_CalledOnce(benchmark::State &State) {
  auto M = mustParse(makeCalledOnceFamily(static_cast<int>(State.range(0))));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  for (auto _ : State) {
    CalledOnceAnalysis CO(*M, F);
    CO.run();
    benchmark::DoNotOptimize(CO.calledOnce().size());
  }
}
BENCHMARK(BM_CalledOnce)
    ->Arg(64)
    ->Arg(1024)
    ->Unit(benchmark::kMillisecond);

} // namespace

STCFA_BENCH_MAIN(printPaperTables)
