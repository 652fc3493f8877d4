//===-- bench/bench_scale.cpp - Front-half linearity sweep ----------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's claim is that build + close is linear for bounded-type
/// programs.  This sweep measures it layer by layer: the `wide`, `cubic`,
/// `deep` and `random` families at 10^3, 10^4, 10^5 and 10^6 exprs, each
/// row timing parse, infer, build, close, freeze and condense, and, up to
/// `MaxOutputExprs`, the label-set kernel and the `all-labels` render to
/// `/dev/null` (its output is Θ(n²): `wide:16384` alone writes 11 GB).
/// Every repetition runs in a fresh forked child, so each starts on a
/// cold heap and its peak RSS is its own; a row keeps each layer's
/// fastest repetition (3 at 10^5 exprs and up, more below).
///
/// Emits `BENCH_scale.json`: the `cpu` record, one `row` per (family,
/// size), and one `gate` per family with the ROADMAP's linearity gates
/// (10^6 over 10^4): build + close µs/expr and nodes/expr within 1.5×,
/// close-phase nodes ≤ build-phase nodes (DESIGN.md E6), and peak RSS
/// per expr not growing.  Every figure is reported as measured.
///
/// `--scale-smoke` runs each family once at 10^3 exprs and checks counts
/// only (no timing gate): the graph's phase counts add up, the render
/// writes one line per occurrence whose point-query set is non-empty,
/// and nodes per expr stay bounded.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "ast/Printer.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "gen/Generators.h"
#include "support/OutWriter.h"
#include "testgen/ShapeGen.h"

#include <algorithm>
#include <cstring>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

using namespace stcfa;

namespace {

/// Above this many exprs the kernel and the render are skipped: their
/// cost is the Θ(n²) output, not the front half.
constexpr uint32_t MaxOutputExprs = 200000;

enum class Family { Wide, Cubic, Deep, Random };
const char *familyName(Family F) {
  switch (F) {
  case Family::Wide:
    return "wide";
  case Family::Cubic:
    return "cubic";
  case Family::Deep:
    return "deep";
  case Family::Random:
    return "random";
  }
  return "?";
}

/// A program of about \p Target exprs (the families' measured exprs per
/// size step: wide 11, cubic 18, deep 5, random 9 per binding).
std::string programOf(Family F, uint32_t Target, uint32_t &Param) {
  switch (F) {
  case Family::Wide:
    Param = std::max(1u, Target / 11);
    return makeShapeProgram({CondShape::Wide, int(Param), 1});
  case Family::Cubic:
    Param = std::max(1u, Target / 18);
    return makeCubicFamily(int(Param));
  case Family::Deep:
    Param = std::max(1u, Target / 5);
    return makeShapeProgram({CondShape::Deep, int(Param), 1});
  case Family::Random: {
    Param = std::max(1u, Target / 9);
    RandomProgramOptions O;
    O.Seed = 1;
    O.NumBindings = int(Param);
    return makeRandomProgram(O);
  }
  }
  return "";
}

/// One row's figures; plain data, so a child hands it back through a
/// pipe.  Times are µs per expr.
struct Row {
  uint32_t Param = 0, Exprs = 0, Reps = 0;
  double Parse = 0, Infer = 0, Build = 0, Close = 0, Freeze = 0,
         Condense = 0, Kernel = -1, Render = -1;
  uint64_t BuildNodes = 0, BuildEdges = 0, CloseNodes = 0, CloseEdges = 0;
  uint64_t RenderBytes = 0;
  /// Peak RSS (KiB) once the front half is done, and at the row's end.
  long FrontRssKb = 0, PeakRssKb = 0;
  /// Empty when the smoke checks held.
  char Error[160] = {};
};

long maxRssKb() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  return U.ru_maxrss;
}

void fail(Row &R, const std::string &Why) {
  if (R.Error[0] == 0)
    std::snprintf(R.Error, sizeof R.Error, "%s", Why.c_str());
}

/// Runs every layer once over \p Source, filling \p R.
void runOnce(const std::string &Source, Row &R, bool Smoke) {
  auto keepMin = [&R](double &Slot, double Us) {
    Slot = Us / (R.Exprs ? R.Exprs : 1);
  };
  Timer T;
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M)
    return fail(R, "parse failed");
  R.Exprs = M->numExprs();
  keepMin(R.Parse, T.millis() * 1e3);

  T.reset();
  if (!inferTypes(*M, Diags))
    return fail(R, "inference failed");
  keepMin(R.Infer, T.millis() * 1e3);

  T.reset();
  SubtransitiveGraph G(*M);
  G.build();
  keepMin(R.Build, T.millis() * 1e3);
  T.reset();
  if (!G.close(Deadline::infinite()).isOk())
    return fail(R, "close aborted");
  keepMin(R.Close, T.millis() * 1e3);
  const GraphStats &S = G.stats();
  R.BuildNodes = S.BuildNodes;
  R.BuildEdges = S.BuildEdges;
  R.CloseNodes = S.CloseNodes;
  R.CloseEdges = S.CloseEdges;

  T.reset();
  Status FS = Status::ok();
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FS);
  if (!F)
    return fail(R, "freeze failed: " + FS.toString());
  keepMin(R.Freeze, T.millis() * 1e3);
  T.reset();
  (void)F->condensation();
  keepMin(R.Condense, T.millis() * 1e3);
  R.FrontRssKb = maxRssKb();

  if (Smoke) {
    if (S.totalNodes() != G.numNodes() || S.totalEdges() > G.edgePoolSize() ||
        F->numNodes() != G.numNodes())
      return fail(R, "phase counts do not add up to the graph");
    const double NodesPerExpr = double(G.numNodes()) / R.Exprs;
    if (NodesPerExpr < 1 || NodesPerExpr > 8)
      return fail(R, "nodes per expr outside [1, 8]");
  }
  if (R.Exprs > MaxOutputExprs)
    return;

  T.reset();
  QueryEngine QE(*F);
  QE.setKernelThreshold(1);
  BatchOutcome Outcome;
  InternedLabelSets Sets = QE.allLabelSets({}, Outcome);
  if (!Outcome.S.isOk())
    return fail(R, "kernel failed: " + Outcome.S.toString());
  keepMin(R.Kernel, T.millis() * 1e3);

  // The driver's `all-labels` tail: each distinct row's text rendered
  // once, one padded line per occurrence with a non-empty set.
  T.reset();
  std::FILE *Null = std::fopen("/dev/null", "w");
  if (!Null)
    return fail(R, "cannot open /dev/null");
  uint64_t Lines = 0;
  {
    OutWriter Out(Null);
    std::vector<std::string> LabelNames(M->numLabels());
    auto LabelName = [&](uint32_t L) -> std::string_view {
      if (LabelNames[L].empty())
        LabelNames[L] = describeLabel(*M, LabelId(L));
      return LabelNames[L];
    };
    RenderOnce Rows(Sets.pool().size());
    for (uint32_t I = 0; I != R.Exprs; ++I) {
      const uint32_t Id = Sets.RowOf[I];
      if (Id == 0)
        continue;
      writeLabelSetLine(Out, describeExpr(*M, ExprId(I)),
                        Rows.text(Id, [&](OutWriter &W) {
                          writeLabelSet(W, Sets.pool().set(Id), LabelName);
                          W.put('\n');
                        }));
      ++Lines;
    }
    if (!Out.finish())
      fail(R, "render write failed");
    R.RenderBytes = Out.bytes();
  }
  std::fclose(Null);
  keepMin(R.Render, T.millis() * 1e3);
  if (!Smoke)
    return;
  // One line per occurrence whose set a point query finds non-empty.
  uint64_t NonEmpty = 0;
  for (uint32_t I = 0; I != R.Exprs; ++I)
    NonEmpty += !QE.labelsOf(ExprId(I)).empty();
  if (Lines != NonEmpty || Lines == 0)
    fail(R, "render lines differ from the non-empty point-query sets");
}

/// Runs one repetition of \p Source in a forked child and returns its
/// row; the child's own peak RSS comes back through `wait4`.
Row runChild(const std::string &Source, bool Smoke) {
  Row R;
  int Fds[2];
  if (pipe(Fds) != 0) {
    fail(R, "pipe failed");
    return R;
  }
  std::fflush(nullptr);
  pid_t Pid = fork();
  if (Pid == 0) {
    close(Fds[0]);
    runOnce(Source, R, Smoke);
    R.PeakRssKb = maxRssKb();
    ssize_t W = write(Fds[1], &R, sizeof R);
    _exit(W == ssize_t(sizeof R) ? 0 : 1);
  }
  close(Fds[1]);
  ssize_t Got = read(Fds[0], &R, sizeof R);
  close(Fds[0]);
  int Status = 0;
  rusage U{};
  wait4(Pid, &Status, 0, &U);
  if (Got != ssize_t(sizeof R) || !WIFEXITED(Status) ||
      WEXITSTATUS(Status) != 0) {
    R = Row();
    fail(R, "row child failed");
  }
  R.PeakRssKb = std::max(R.PeakRssKb, long(U.ru_maxrss));
  return R;
}

/// Measures \p F at \p Target: each layer's fastest repetition, the
/// largest peak RSS.
Row measure(Family F, uint32_t Target, bool Smoke) {
  uint32_t Param = 0;
  const std::string Source = programOf(F, Target, Param);
  const unsigned Reps =
      Smoke ? 1 : std::clamp(100000u / std::max(Target, 1u), 3u, 20u);
  Row Best;
  for (unsigned I = 0; I != Reps; ++I) {
    Row R = runChild(Source, Smoke);
    if (R.Error[0] != 0)
      return R;
    if (I != 0)
      for (auto Slot : {&Row::Parse, &Row::Infer, &Row::Build, &Row::Close,
                        &Row::Freeze, &Row::Condense, &Row::Kernel,
                        &Row::Render})
        R.*Slot = std::min(R.*Slot, Best.*Slot);
    R.FrontRssKb = std::max(R.FrontRssKb, Best.FrontRssKb);
    R.PeakRssKb = std::max(R.PeakRssKb, Best.PeakRssKb);
    Best = R;
  }
  Best.Param = Param;
  Best.Reps = Reps;
  return Best;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    Smoke |= std::strcmp(argv[I], "--scale-smoke") == 0;
  const Family Families[] = {Family::Wide, Family::Cubic, Family::Deep,
                             Family::Random};
  std::vector<uint32_t> Targets = {1000};
  if (!Smoke)
    Targets = {1000, 10000, 100000, 1000000};

  if (Smoke) {
    int Failures = 0;
    for (Family F : Families) {
      Row R = measure(F, Targets[0], /*Smoke=*/true);
      std::printf("scale smoke: %-6s %u exprs, %llu+%llu nodes, %llu+%llu "
                  "edges, %llu render bytes%s%s\n",
                  familyName(F), R.Exprs, (unsigned long long)R.BuildNodes,
                  (unsigned long long)R.CloseNodes,
                  (unsigned long long)R.BuildEdges,
                  (unsigned long long)R.CloseEdges,
                  (unsigned long long)R.RenderBytes, R.Error[0] ? ": " : "",
                  R.Error);
      Failures += R.Error[0] != 0;
    }
    std::printf("scale smoke: %s\n", Failures ? "FAILED" : "ok");
    return Failures ? 1 : 0;
  }

  bench::JsonReport Report("scale");
  std::printf("%-7s %8s %7s | %6s %6s %6s %6s %6s %6s %6s %6s | %5s %5s "
              "%6s %7s\n",
              "family", "exprs", "reps", "parse", "infer", "build", "close",
              "freeze", "cond", "kernel", "render", "n/e", "e/e", "cl/bd",
              "rss MB");
  for (Family F : Families) {
    // Gate inputs: the 10^4 and 10^6 rows.
    double BcSmall = 0, BcLarge = 0, NpeSmall = 0, NpeLarge = 0;
    double RssSmall = 0, RssLarge = 0;
    bool E6 = true;
    for (uint32_t Target : Targets) {
      Row R = measure(F, Target, /*Smoke=*/false);
      if (R.Error[0]) {
        std::fprintf(stderr, "%s at %u: %s\n", familyName(F), Target,
                     R.Error);
        return 1;
      }
      const double N = R.Exprs;
      const double NodesPerExpr = (R.BuildNodes + R.CloseNodes) / N;
      const double EdgesPerExpr = (R.BuildEdges + R.CloseEdges) / N;
      const double CloseOverBuild =
          R.BuildNodes ? double(R.CloseNodes) / R.BuildNodes : 0;
      const double RssPerExpr = R.FrontRssKb * 1024.0 / N;
      std::printf("%-7s %8u %7u | %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f %6.3f "
                  "%6.3f | %5.2f %5.2f %6.3f %7.1f\n",
                  familyName(F), R.Exprs, R.Reps, R.Parse, R.Infer, R.Build,
                  R.Close, R.Freeze, R.Condense, R.Kernel, R.Render,
                  NodesPerExpr, EdgesPerExpr, CloseOverBuild,
                  R.PeakRssKb / 1024.0);
      auto &Rec = Report.record("row")
                      .add("family", std::string(familyName(F)))
                      .add("param", R.Param)
                      .add("exprs", R.Exprs)
                      .add("reps", R.Reps)
                      .add("parse_us_per_expr", R.Parse)
                      .add("infer_us_per_expr", R.Infer)
                      .add("build_us_per_expr", R.Build)
                      .add("close_us_per_expr", R.Close)
                      .add("build_close_us_per_expr", R.Build + R.Close)
                      .add("freeze_us_per_expr", R.Freeze)
                      .add("condense_us_per_expr", R.Condense);
      if (R.Kernel >= 0)
        Rec.add("kernel_us_per_expr", R.Kernel)
            .add("render_us_per_expr", R.Render)
            .add("render_bytes", R.RenderBytes);
      Rec.add("nodes_per_expr", NodesPerExpr)
          .add("edges_per_expr", EdgesPerExpr)
          .add("build_nodes", R.BuildNodes)
          .add("close_nodes", R.CloseNodes)
          .add("close_over_build_nodes", CloseOverBuild)
          .add("front_rss_mb", R.FrontRssKb / 1024.0)
          .add("front_rss_bytes_per_expr", RssPerExpr)
          .add("peak_rss_mb", R.PeakRssKb / 1024.0);
      E6 &= R.CloseNodes <= R.BuildNodes;
      if (Target == 10000) {
        BcSmall = R.Build + R.Close;
        NpeSmall = NodesPerExpr;
        RssSmall = RssPerExpr;
      } else if (Target == 1000000) {
        BcLarge = R.Build + R.Close;
        NpeLarge = NodesPerExpr;
        RssLarge = RssPerExpr;
      }
    }
    const double BcRatio = BcLarge / BcSmall, NpeRatio = NpeLarge / NpeSmall,
                 RssRatio = RssLarge / RssSmall;
    std::printf("%-7s gate: build+close 10^6/10^4 = %.2f (%s), nodes/expr "
                "%.2f (%s), rss/expr %.2f, close<=build nodes: %s\n",
                familyName(F), BcRatio, BcRatio <= 1.5 ? "pass" : "FAIL",
                NpeRatio, NpeRatio <= 1.5 ? "pass" : "FAIL", RssRatio,
                E6 ? "yes" : "NO");
    Report.record("gate")
        .add("family", std::string(familyName(F)))
        .add("build_close_ratio_1e6_over_1e4", BcRatio)
        .add("build_close_within_1_5x", unsigned(BcRatio <= 1.5))
        .add("nodes_per_expr_ratio_1e6_over_1e4", NpeRatio)
        .add("nodes_per_expr_within_1_5x", unsigned(NpeRatio <= 1.5))
        .add("front_rss_per_expr_ratio_1e6_over_1e4", RssRatio)
        .add("close_nodes_le_build_nodes_every_size", unsigned(E6));
  }
  return 0;
}
