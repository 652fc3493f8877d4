//===-- bench/bench_parallel.cpp - Frozen CSR + parallel query engine -----===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The serving-path benchmark: how do batched queries over the frozen
/// CSR snapshot scale across worker lanes?
///
///   * Table 2 — batched `labelsOf` over every occurrence at 1, 2, and 4
///     lanes.  Thread counts beyond the machine's core count cannot show
///     wall-clock wins (this table reports honest numbers either way).
///   * Table 3 — the word-parallel `LabelSetKernel`: one level-scheduled
///     closure over the condensation vs one BFS per query, at 1, 2, and
///     4 lanes, plus the steady-state kernel-backed batch path.
///   * Table 5 — kernel lane scaling over the condensation-shape stress
///     corpus (wide/deep/diamond/skewed, src/testgen), with the
///     schedule geometry (levels, chunks, barrier compression) and the
///     active SIMD path per row.
///
/// Every timed cell is min-of-N after untimed warm-up reps (see
/// `bestMillis`), and every report leads with a `cpu` record (model,
/// SIMD capability, thread count), so numbers are comparable across
/// runs and machines.
///
/// Emits `BENCH_parallel.json` (Table 2) and `BENCH_kernel.json`
/// (Tables 3–5, with a `hardware_threads` field so scaling numbers can
/// be judged against the machine that produced them).
///
/// `--kernel-smoke` runs a correctness-only check (kernel vs per-query
/// BFS on cubic:100) and exits non-zero on any mismatch; CI wires it as
/// a ctest target so the bench binary itself cannot rot.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "support/Metrics.h"
#include "support/TablePrinter.h"
#include "support/ThreadPool.h"
#include "testgen/ShapeGen.h"

#include <string_view>
#include <thread>

using namespace stcfa;
using namespace stcfa::bench;

namespace {

struct Workload {
  const char *Name;
  std::string Source;
};

std::vector<Workload> workloads() {
  return {{"cubic:100", makeCubicFamily(100)},
          {"cubic:200", makeCubicFamily(200)},
          {"lexgen", makeLexgenLike()}};
}

/// Untimed warm-up repetitions before every timed cell: the first
/// passes fault the matrix pages in, populate caches and branch
/// predictors, and let the governor ramp the clock, so the timed reps
/// measure steady state.  (Without this, BENCH_kernel.json once showed
/// lexgen `lanes1_ms` > `lanes2_ms` — a 1.32 "scaling" on a 1-core box
/// that was pure cold-start noise in the first-measured cell.)
constexpr int WarmupReps = 2;

/// Best-of-\p Reps wall time of \p Fn after `WarmupReps` untimed runs,
/// in milliseconds (minimum, not mean: on a loaded machine the minimum
/// tracks the cost of the code rather than of the scheduler).
template <typename FnT> double bestMillis(int Reps, FnT Fn) {
  for (int I = 0; I != WarmupReps; ++I)
    Fn();
  double Best = 0;
  for (int I = 0; I != Reps; ++I) {
    Timer T;
    Fn();
    double Ms = T.millis();
    if (I == 0 || Ms < Best)
      Best = Ms;
  }
  return Best;
}

void printPaperTables() {
  JsonReport Report("parallel");
  std::printf("machine: %u hardware thread(s)\n\n",
              std::thread::hardware_concurrency());

  std::printf("== batched labelsOf over every occurrence: lane scaling ==\n");
  TablePrinter T2({"program", "queries", "1 lane(ms)", "2 lanes(ms)",
                   "4 lanes(ms)", "2x", "4x"});
  for (const Workload &W : workloads()) {
    auto M = mustParse(W.Source);
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);

    std::vector<ExprId> Queries;
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      Queries.push_back(ExprId(I));

    constexpr int Reps = 9;
    double Ms[3];
    unsigned LaneCounts[3] = {1, 2, 4};
    for (int I = 0; I != 3; ++I) {
      QueryEngine Engine(F, LaneCounts[I]);
      Ms[I] = bestMillis(Reps, [&] {
        benchmark::DoNotOptimize(Engine.labelsOfBatch(Queries).size());
      });
    }

    T2.addRow({W.Name, std::to_string(Queries.size()),
               TablePrinter::num(Ms[0]), TablePrinter::num(Ms[1]),
               TablePrinter::num(Ms[2]),
               TablePrinter::num(Ms[1] > 0 ? Ms[0] / Ms[1] : 0, 2),
               TablePrinter::num(Ms[2] > 0 ? Ms[0] / Ms[2] : 0, 2)});
    Report.record("batched_labels_of")
        .add("program", std::string(W.Name))
        .add("queries", uint64_t(Queries.size()))
        .add("lanes1_ms", Ms[0])
        .add("lanes2_ms", Ms[1])
        .add("lanes4_ms", Ms[2])
        .add("scaling2", Ms[1] > 0 ? Ms[0] / Ms[1] : 0)
        .add("scaling4", Ms[2] > 0 ? Ms[0] / Ms[2] : 0);
  }
  std::printf("%s\n", T2.render().c_str());

  // The per-stage accounting behind the wall-clock cells above (freeze
  // counts, close edges, dispatch decisions) rides along in the JSON.
  Report.record("metrics_snapshot")
      .addRaw("metrics", snapshotMetrics().toJson(2));
}

void printKernelTables() {
  JsonReport Report("kernel");
  const unsigned HwThreads = std::thread::hardware_concurrency();

  std::printf("== label-set kernel: level-scheduled closure vs per-query "
              "BFS ==\n");
  TablePrinter T3({"program", "exprs", "bfs(ms)", "k1(ms)", "k2(ms)",
                   "k4(ms)", "vs-bfs", "2x", "4x"});
  for (const Workload &W : workloads()) {
    auto M = mustParse(W.Source);
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);
    // Warm the cached condensation so every timed cell below measures
    // the closure, not the one-time Tarjan pass.
    F.condensation();

    std::vector<ExprId> Queries;
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      Queries.push_back(ExprId(I));

    constexpr int Reps = 9;
    // Baseline: the CSR per-query BFS (kernel dispatch disabled).
    QueryEngine Bfs(F, 1);
    Bfs.setKernelThreshold(0);
    double BfsMs = bestMillis(Reps, [&] {
      benchmark::DoNotOptimize(Bfs.labelsOfBatch(Queries).size());
    });

    double Ms[3];
    unsigned LaneCounts[3] = {1, 2, 4};
    for (int I = 0; I != 3; ++I) {
      ThreadPool Pool(LaneCounts[I]);
      Ms[I] = bestMillis(Reps, [&] {
        // A fresh kernel per rep: the cell prices schedule build plus
        // the full closure, the work a cold batched query pays once.
        LabelSetKernel K(F, LaneCounts[I] > 1 ? &Pool : nullptr,
                         LaneCounts[I]);
        if (!K.run().isOk())
          std::abort();
        benchmark::DoNotOptimize(K.levelsCompleted());
      });
    }
    double VsBfs = Ms[0] > 0 ? BfsMs / Ms[0] : 0;

    T3.addRow({W.Name, std::to_string(M->numExprs()),
               TablePrinter::num(BfsMs), TablePrinter::num(Ms[0]),
               TablePrinter::num(Ms[1]), TablePrinter::num(Ms[2]),
               TablePrinter::num(VsBfs, 2),
               TablePrinter::num(Ms[1] > 0 ? Ms[0] / Ms[1] : 0, 2),
               TablePrinter::num(Ms[2] > 0 ? Ms[0] / Ms[2] : 0, 2)});
    Report.record("kernel_all_labels")
        .add("program", std::string(W.Name))
        .add("exprs", M->numExprs())
        .add("hardware_threads", HwThreads)
        .add("bfs_ms", BfsMs)
        .add("kernel1_ms", Ms[0])
        .add("kernel2_ms", Ms[1])
        .add("kernel4_ms", Ms[2])
        .add("speedup_vs_bfs", VsBfs)
        .add("scaling2", Ms[1] > 0 ? Ms[0] / Ms[1] : 0)
        .add("scaling4", Ms[2] > 0 ? Ms[0] / Ms[2] : 0);
  }
  std::printf("%s\n", T3.render().c_str());

  std::printf("== batched labelsOf served by the kernel (steady state) "
              "==\n");
  TablePrinter T4({"program", "queries", "bfs-batch(ms)", "1 lane(ms)",
                   "2 lanes(ms)", "4 lanes(ms)", "vs-bfs", "2x", "4x"});
  for (const Workload &W : workloads()) {
    auto M = mustParse(W.Source);
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);
    F.condensation();

    std::vector<ExprId> Queries;
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      Queries.push_back(ExprId(I));

    constexpr int Reps = 9;
    QueryEngine BfsEngine(F, 1);
    BfsEngine.setKernelThreshold(0);
    double BfsMs = bestMillis(Reps, [&] {
      benchmark::DoNotOptimize(BfsEngine.labelsOfBatch(Queries).size());
    });

    double Ms[3];
    unsigned LaneCounts[3] = {1, 2, 4};
    for (int I = 0; I != 3; ++I) {
      QueryEngine Engine(F, LaneCounts[I]);
      Engine.setKernelThreshold(1);
      // First call pays the closure; the steady state below is what a
      // query-serving process sees on every later batch.
      benchmark::DoNotOptimize(Engine.labelsOfBatch(Queries).size());
      Ms[I] = bestMillis(Reps, [&] {
        benchmark::DoNotOptimize(Engine.labelsOfBatch(Queries).size());
      });
    }
    double VsBfs = Ms[0] > 0 ? BfsMs / Ms[0] : 0;

    T4.addRow({W.Name, std::to_string(Queries.size()),
               TablePrinter::num(BfsMs), TablePrinter::num(Ms[0]),
               TablePrinter::num(Ms[1]), TablePrinter::num(Ms[2]),
               TablePrinter::num(VsBfs, 2),
               TablePrinter::num(Ms[1] > 0 ? Ms[0] / Ms[1] : 0, 2),
               TablePrinter::num(Ms[2] > 0 ? Ms[0] / Ms[2] : 0, 2)});
    Report.record("kernel_batched")
        .add("program", std::string(W.Name))
        .add("queries", uint64_t(Queries.size()))
        .add("hardware_threads", HwThreads)
        .add("bfs_batch_ms", BfsMs)
        .add("lanes1_ms", Ms[0])
        .add("lanes2_ms", Ms[1])
        .add("lanes4_ms", Ms[2])
        .add("speedup_vs_bfs", VsBfs)
        .add("scaling2", Ms[1] > 0 ? Ms[0] / Ms[1] : 0)
        .add("scaling4", Ms[2] > 0 ? Ms[0] / Ms[2] : 0);
  }
  std::printf("%s\n", T4.render().c_str());

  // Table 5 — lane scaling over the condensation-shape stress corpus
  // (src/testgen): shapes the cubic/lexgen workloads never produce.
  // Alongside wall clock, each row records the schedule geometry —
  // levels, chunks, and the barrier compression the chunked scheduler
  // bought — because on a 1-core bench box the counters, not the
  // wall-clock scaling, are what prove the scheduler works.
  std::printf("== kernel lane scaling over condensation shapes ==\n");
  TablePrinter T5({"shape", "sccs", "levels", "chunks", "compress", "k1(ms)",
                   "k2(ms)", "k4(ms)", "2x", "4x"});
  const ShapeSpec ShapeSpecs[] = {
      {CondShape::Wide, 256, 1},
      {CondShape::Deep, 512, 1},
      {CondShape::Diamond, 256, 1},
      {CondShape::Skewed, 256, 1},
  };
  for (const ShapeSpec &Spec : ShapeSpecs) {
    std::string Name =
        std::string(shapeName(Spec.Shape)) + ":" + std::to_string(Spec.N);
    auto M = mustParse(makeShapeProgram(Spec));
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);
    F.condensation();

    // Schedule geometry from one un-timed closure.
    LabelSetKernel Probe(F, /*Threads=*/1);
    if (!Probe.run().isOk())
      std::abort();
    double Compression =
        Probe.numChunks() ? double(Probe.numLevels()) / Probe.numChunks() : 0;

    constexpr int Reps = 9;
    double Ms[3];
    unsigned LaneCounts[3] = {1, 2, 4};
    for (int I = 0; I != 3; ++I) {
      ThreadPool Pool(LaneCounts[I]);
      Ms[I] = bestMillis(Reps, [&] {
        LabelSetKernel K(F, LaneCounts[I] > 1 ? &Pool : nullptr,
                         LaneCounts[I]);
        if (!K.run().isOk())
          std::abort();
        benchmark::DoNotOptimize(K.levelsCompleted());
      });
    }

    T5.addRow({Name, std::to_string(F.condensation().numSccs()),
               std::to_string(Probe.numLevels()),
               std::to_string(Probe.numChunks()),
               TablePrinter::num(Compression, 1), TablePrinter::num(Ms[0]),
               TablePrinter::num(Ms[1]), TablePrinter::num(Ms[2]),
               TablePrinter::num(Ms[1] > 0 ? Ms[0] / Ms[1] : 0, 2),
               TablePrinter::num(Ms[2] > 0 ? Ms[0] / Ms[2] : 0, 2)});
    Report.record("kernel_shape_scaling")
        .add("shape", Name)
        .add("exprs", M->numExprs())
        .add("sccs", F.condensation().numSccs())
        .add("levels", Probe.numLevels())
        .add("chunks", Probe.numChunks())
        .add("barrier_compression", Compression)
        .add("simd_path", std::string(simd::activePathName()))
        .add("hardware_threads", HwThreads)
        .add("kernel1_ms", Ms[0])
        .add("kernel2_ms", Ms[1])
        .add("kernel4_ms", Ms[2])
        .add("scaling2", Ms[1] > 0 ? Ms[0] / Ms[1] : 0)
        .add("scaling4", Ms[2] > 0 ? Ms[0] / Ms[2] : 0);
  }
  std::printf("%s\n", T5.render().c_str());

  Report.record("metrics_snapshot")
      .addRaw("metrics", snapshotMetrics().toJson(2));
}

/// Correctness-only smoke for CI: the kernel and the kernel-backed batch
/// path must agree with per-query BFS on cubic:100, bit for bit.
int kernelSmoke() {
  auto M = mustParse(makeCubicFamily(100));
  GraphRun G = runGraph(*M);
  Reachability R(*G.Graph);
  FrozenGraph F(*G.Graph);

  LabelSetKernel K(F, /*Threads=*/2);
  if (!K.run().isOk()) {
    std::fprintf(stderr, "kernel smoke: run() failed: %s\n",
                 K.status().message().c_str());
    return 1;
  }
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    if (!(K.labelsOf(ExprId(I)) == R.labelsOf(ExprId(I)))) {
      std::fprintf(stderr, "kernel smoke: mismatch at expr %u\n", I);
      return 1;
    }

  QueryEngine Engine(F, 2);
  Engine.setKernelThreshold(1);
  std::vector<ExprId> Queries;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Queries.push_back(ExprId(I));
  std::vector<DenseBitset> Batch = Engine.labelsOfBatch(Queries);
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    if (!(Batch[I] == R.labelsOf(ExprId(I)))) {
      std::fprintf(stderr, "kernel smoke: batch mismatch at expr %u\n", I);
      return 1;
    }

  std::printf("kernel smoke: %u label sets match per-query BFS\n",
              M->numExprs());
  return 0;
}

void BM_LabelsOfBatch(benchmark::State &State) {
  auto M = mustParse(makeCubicFamily(200));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  QueryEngine Engine(F, static_cast<unsigned>(State.range(0)));
  std::vector<ExprId> Queries;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Queries.push_back(ExprId(I));
  for (auto _ : State)
    benchmark::DoNotOptimize(Engine.labelsOfBatch(Queries).size());
}
BENCHMARK(BM_LabelsOfBatch)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

void BM_KernelAllLabels(benchmark::State &State) {
  auto M = mustParse(makeCubicFamily(200));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  F.condensation();
  unsigned Lanes = static_cast<unsigned>(State.range(0));
  ThreadPool Pool(Lanes);
  for (auto _ : State) {
    LabelSetKernel K(F, Lanes > 1 ? &Pool : nullptr, Lanes);
    if (!K.run().isOk())
      std::abort();
    benchmark::DoNotOptimize(K.levelsCompleted());
  }
}
BENCHMARK(BM_KernelAllLabels)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Unit(benchmark::kMillisecond);

} // namespace

// Custom main (instead of STCFA_BENCH_MAIN): `--kernel-smoke` must run
// the correctness check *only* and return its verdict as the exit code,
// so ctest can gate on it without paying for the timed tables.
int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I)
    if (std::string_view(argv[I]) == "--kernel-smoke")
      return kernelSmoke();
  printPaperTables();
  printKernelTables();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
