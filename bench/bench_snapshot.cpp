//===-- bench/bench_snapshot.cpp - Persistent snapshot round trip ---------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The persistence benchmark: what does an mmap-warm start save over the
/// cold pipeline?
///
///   * Table 1 — per program: the cold path (parse + infer + build +
///     close + freeze), the one-time snapshot write (kernel closure
///     included), and the warm path (mmap + validate + first root-label
///     query), with the warm/cold speedup and the file size.
///
/// Emits `BENCH_snapshot.json`.  `--snapshot-smoke` runs a
/// correctness-only check (loaded answers must be bit-exact against the
/// in-memory engine on cubic:100) and exits non-zero on any mismatch.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "snapshot/Snapshot.h"
#include "support/TablePrinter.h"

#include <cstdio>
#include <string_view>
#include <sys/stat.h>

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

std::string snapPath(const char *Name) {
  std::string P = "bench_snapshot_";
  for (const char *C = Name; *C; ++C)
    P += (*C == ':') ? '_' : *C;
  return "/tmp/" + P + ".stcfa-snap";
}

/// The full cold path, parse through freeze; returns the frozen answer
/// count so the work cannot be optimized away.
uint64_t coldPipeline(const std::string &Source) {
  auto M = mustParse(Source);
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  QueryEngine Engine(F);
  return Engine.labelsOf(M->root()).count();
}

template <typename FnT> double bestMillis(int Reps, FnT Fn) {
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
  JsonReport Report("snapshot");

  std::printf("== persistent snapshots: cold pipeline vs mmap-warm load "
              "==\n");
  TablePrinter T1({"program", "exprs", "cold(ms)", "write(ms)", "load(ms)",
                   "speedup", "bytes"});
  for (const Workload &W : workloads()) {
    auto M = mustParse(W.Source);
    GraphRun G = runGraph(*M);
    FrozenGraph F(*G.Graph);
    LabelSetKernel Kern(F);
    if (!Kern.run().isOk())
      std::abort();

    const std::string Path = snapPath(W.Name);
    constexpr int Reps = 9;
    // Cold: everything a warm load skips. Fewer reps — it dominates.
    double ColdMs = bestMillis(3, [&] {
      benchmark::DoNotOptimize(coldPipeline(W.Source));
    });
    double WriteMs = bestMillis(Reps, [&] {
      SnapshotWriteOptions WO;
      WO.Kernel = &Kern;
      if (!writeSnapshot(Path, F, *M, WO).isOk())
        std::abort();
    });
    // Warm: mmap + validate + engine + first query, end to end.
    double LoadMs = bestMillis(Reps, [&] {
      Status S = Status::ok();
      std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
      if (!Snap)
        std::abort();
      QueryEngine Engine(Snap->frozen());
      if (auto K = Snap->adoptKernel())
        Engine.adoptKernel(std::move(K));
      benchmark::DoNotOptimize(
          Engine.labelsOf(Snap->rootExpr()).count());
    });

    struct stat St = {};
    uint64_t Bytes = ::stat(Path.c_str(), &St) == 0 ? uint64_t(St.st_size)
                                                    : 0;
    double Speedup = LoadMs > 0 ? ColdMs / LoadMs : 0;
    T1.addRow({W.Name, std::to_string(M->numExprs()),
               TablePrinter::num(ColdMs), TablePrinter::num(WriteMs),
               TablePrinter::num(LoadMs), TablePrinter::num(Speedup, 1),
               std::to_string(Bytes)});
    Report.record("snapshot_round_trip")
        .add("program", std::string(W.Name))
        .add("exprs", M->numExprs())
        .add("cold_pipeline_ms", ColdMs)
        .add("write_ms", WriteMs)
        .add("mmap_load_ms", LoadMs)
        .add("speedup", Speedup)
        .add("file_bytes", Bytes);
    std::remove(Path.c_str());
  }
  std::printf("%s\n", T1.render().c_str());
}

/// Correctness-only gate for CI: every label set served from the mapped
/// snapshot must be bit-exact against the in-memory engine.
int snapshotSmoke() {
  const std::string Source = makeCubicFamily(100);
  auto M = mustParse(Source);
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  LabelSetKernel Kern(F);
  if (!Kern.run().isOk()) {
    std::fprintf(stderr, "snapshot smoke: kernel closure failed\n");
    return 1;
  }
  const std::string Path = snapPath("smoke");
  SnapshotWriteOptions WO;
  WO.Kernel = &Kern;
  if (Status S = writeSnapshot(Path, F, *M, WO); !S.isOk()) {
    std::fprintf(stderr, "snapshot smoke: write failed: %s\n",
                 S.toString().c_str());
    return 1;
  }
  Status S = Status::ok();
  std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
  std::remove(Path.c_str());
  if (!Snap) {
    std::fprintf(stderr, "snapshot smoke: load failed: %s\n",
                 S.toString().c_str());
    return 1;
  }
  QueryEngine Mem(F);
  QueryEngine Disk(Snap->frozen());
  if (auto K = Snap->adoptKernel())
    Disk.adoptKernel(std::move(K));
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));
  std::vector<DenseBitset> DiskSets = Disk.labelsOfBatch(Es);
  for (uint32_t I = 0; I != M->numExprs(); ++I) {
    if (!(Mem.labelsOf(ExprId(I)) == DiskSets[I])) {
      std::fprintf(stderr,
                   "snapshot smoke: MISMATCH at occurrence %u\n", I);
      return 1;
    }
  }
  std::printf("snapshot smoke: %u label sets bit-exact after round "
              "trip\n",
              M->numExprs());
  return 0;
}

void BM_SnapshotLoad(benchmark::State &State) {
  auto M = mustParse(makeCubicFamily(static_cast<int>(State.range(0))));
  GraphRun G = runGraph(*M);
  FrozenGraph F(*G.Graph);
  const std::string Path = snapPath("bm");
  if (!writeSnapshot(Path, F, *M).isOk())
    std::abort();
  for (auto _ : State) {
    Status S = Status::ok();
    std::unique_ptr<LoadedSnapshot> Snap = LoadedSnapshot::load(Path, S);
    QueryEngine Engine(Snap->frozen());
    benchmark::DoNotOptimize(Engine.labelsOf(Snap->rootExpr()).count());
  }
  std::remove(Path.c_str());
}
BENCHMARK(BM_SnapshotLoad)->Arg(50)->Arg(200)->Unit(benchmark::kMillisecond);

} // namespace

// Custom main: `--snapshot-smoke` runs the correctness gate only, so
// ctest can wire it without paying for the timed tables.
int main(int argc, char **argv) {
  for (int I = 1; I != argc; ++I)
    if (std::string_view(argv[I]) == "--snapshot-smoke")
      return snapshotSmoke();
  printPaperTables();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  return 0;
}
