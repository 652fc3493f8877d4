//===-- perfbench/CliExport.cpp - The cli_export workload -----------------===//
///
/// \file
/// One client runs `stcfa <file> --query=all-labels` once per program and
/// reads the output back through a pipe: the paper's task of writing out
/// full CFA, as a user types it.  Programs run in whole seeded rounds so
/// every program contributes the same number of samples.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Check.h"
#include "Gen.h"

#include "core/Condensation.h"
#include "core/FrozenGraph.h"
#include "core/LabelSetKernel.h"
#include "core/Reachability.h"
#include "core/SubtransitiveGraph.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "support/Diagnostics.h"

#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <functional>
#include <numeric>
#include <string_view>

using namespace perfbench;
using namespace stcfa;

namespace {

struct Invocation {
  double WallMs = 0;
  double FirstByteMs = 0;
  int WStatus = 0;
  long MaxRssKb = 0;
  std::string Out;
};

/// One driver run, timed from spawn until its output is drained and the
/// process is reaped.
Invocation invoke(const Options &O, const std::string &File,
                  size_t ExpectBytes) {
  Invocation I;
  I.Out.reserve(ExpectBytes);
  const int64_t T0 = nowNs();
  Child C = spawnChild({O.Stcfa, File, "--query=all-labels"}, false, true);
  char Buf[1 << 16];
  for (;;) {
    ssize_t N = ::read(C.Out, Buf, sizeof(Buf));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      break;
    if (I.Out.empty())
      I.FirstByteMs = msSince(T0);
    I.Out.append(Buf, size_t(N));
  }
  I.WStatus = reapChild(C, &I.MaxRssKb);
  I.WallMs = msSince(T0);
  return I;
}

bool exitedOk(int WStatus) {
  return WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0;
}

/// The in-process replay of one driver run: the calls `stcfa <file>
/// --query=all-labels` makes, each under a span, then the freeze /
/// condense / kernel path as probes beside the op (today's driver does
/// not freeze; a port of its sweep to FrozenGraph would call these).
struct ReplayCounts {
  uint64_t Exprs = 0, BuildNodes = 0, BuildEdges = 0, CloseNodes = 0,
           CloseEdges = 0, Programs = 0, E6Violations = 0;
  uint64_t Answers = 0; ///< labels found; keeps the swept work observable
};

void replay(Tracer &T, const std::string &Source, ReplayCounts &C) {
  T.beginOp();
  Tracer::Scope Op(T, "op");
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M;
  {
    Tracer::Scope S(T, "parser");
    M = parseProgram(Source, Diags);
  }
  {
    Tracer::Scope S(T, "sema");
    DiagnosticEngine InferDiags;
    (void)inferTypes(*M, InferDiags);
  }
  SubtransitiveGraph G(*M);
  {
    Tracer::Scope S(T, "core.build");
    G.build();
  }
  {
    Tracer::Scope S(T, "core.close");
    G.close();
  }
  {
    Tracer::Scope S(T, "core.label_sweep");
    Reachability R(G);
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      C.Answers += R.labelsOf(ExprId(I)).count();
  }
  Op.close();

  {
    Tracer::Scope S(T, "core.freeze");
    FrozenGraph F(G);
    S.close();
    {
      Tracer::Scope S2(T, "core.condense");
      C.Answers += F.condensation().numSccs();
    }
    Tracer::Scope S3(T, "core.kernel");
    LabelSetKernel K(F, 1);
    C.Answers += K.run().isOk();
  }
  const GraphStats &GS = G.stats();
  C.Exprs += M->numExprs();
  C.BuildNodes += GS.BuildNodes;
  C.BuildEdges += GS.BuildEdges;
  C.CloseNodes += GS.CloseNodes;
  C.CloseEdges += GS.CloseEdges;
  C.E6Violations += GS.CloseNodes > GS.BuildNodes;
  ++C.Programs;
}

} // namespace

Result perfbench::runCliExport(const Options &O) {
  Result R;

  // Set-up: generate and write the inputs, then one warm-up run so the
  // driver binary is paged in.  Repeated; the median is `setup_s`.
  std::vector<CliProgram> Ps;
  std::vector<std::string> Files;
  std::vector<double> SetupS;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    const int64_t T0 = nowNs();
    Ps = cliPrograms(O.Seed);
    Files.clear();
    for (size_t I = 0; I != Ps.size(); ++I) {
      Files.push_back(O.WorkDir + "/cli-" + std::to_string(I) + ".stml");
      writeFile(Files.back(), Ps[I].Source);
    }
    Invocation W = invoke(O, Files.back(), 0);
    if (!exitedOk(W.WStatus)) {
      std::fprintf(stderr, "perfbench: warm-up driver run failed\n");
      std::exit(2);
    }
    SetupS.push_back(msSince(T0) / 1e3);
  }

  // Oracles, outside set-up and outside the timed loop.
  std::vector<Truth> Truths(Ps.size());
  uint64_t TotalExprs = 0;
  for (size_t I = 0; I != Ps.size(); ++I) {
    if (!Truths[I].compute(Ps[I].Source)) {
      std::fprintf(stderr, "perfbench: generated program %s does not parse\n",
                   Ps[I].Spec.c_str());
      std::exit(2);
    }
    TotalExprs += Truths[I].numExprs();
  }

  std::mt19937_64 Rng = rngFor(O.Seed, 1);
  std::vector<size_t> Order(Ps.size());
  for (size_t I = 0; I != Order.size(); ++I)
    Order[I] = I;

  if (O.Trace) {
    // Same programs, same order: the real driver for the end-to-end op
    // time and first byte, the in-process replay for the layers.  Whole
    // passes until the time is up; every count is per program, so it
    // repeats exactly whatever the pass count.
    Tracer T;
    ReplayCounts C;
    std::vector<double> Wall, FirstByte, OutMb;
    const int64_t T0 = nowNs();
    do {
      std::shuffle(Order.begin(), Order.end(), Rng);
      for (size_t P : Order) {
        Invocation I = invoke(O, Files[P], 0);
        ++R.Attempted;
        if (!exitedOk(I.WStatus) ||
            !checkAllLabelsText(I.Out, Truths[P]).empty())
          ++R.Failed;
        Wall.push_back(I.WallMs);
        FirstByte.push_back(I.FirstByteMs);
        OutMb.push_back(I.Out.size() / 1e6);
        replay(T, Ps[P].Source, C);
      }
    } while (msSince(T0) < O.Seconds * 1e3);

    std::map<std::string, Tracer::Agg> A = T.aggregate();
    const double Ops = double(C.Programs);
    auto perOp = [&](const char *Span) { return A[Span].SelfMs / Ops; };
    std::map<std::string, double> V;
    V["parser.ms"] = perOp("parser");
    V["parser.exprs"] = double(C.Exprs) / Ops;
    V["sema.ms"] = perOp("sema");
    V["core.build_ms"] = perOp("core.build");
    V["core.close_ms"] = perOp("core.close");
    V["core.build_nodes_per_expr"] = double(C.BuildNodes) / C.Exprs;
    V["core.build_edges_per_expr"] = double(C.BuildEdges) / C.Exprs;
    V["core.close_nodes_per_expr"] = double(C.CloseNodes) / C.Exprs;
    V["core.close_edges_per_expr"] = double(C.CloseEdges) / C.Exprs;
    V["core.close_over_build_nodes"] = double(C.CloseNodes) / C.BuildNodes;
    V["core.label_sweep_ms"] = perOp("core.label_sweep");
    V["core.freeze_ms"] = perOp("core.freeze");
    V["core.condense_ms"] = perOp("core.condense");
    V["core.kernel_ms"] = perOp("core.kernel");
    V["driver.first_byte_ms"] = mean(FirstByte);
    V["driver.out_mb"] = mean(OutMb);
    reportSpans(R, T, O, mean(Wall), C.Programs, V);
    // Everything the driver does beyond the replayed layer calls: process
    // start, formatting and writing the O(n^2) text.
    V["driver.render_ms"] = V["trace.unattributed_ms"];
    R.note("E6 (close-phase nodes <= build-phase nodes) fails on " +
           std::to_string(C.E6Violations / (C.Programs / Ps.size())) +
           " of " + std::to_string(Ps.size()) + " programs");
    addLayerMetrics(R, V);
    return R;
  }

  // The timed loop: whole rounds, each in a fresh seeded order.
  // A round (every program once) is the window of the quiet-quartile
  // estimators: rounds cost the same whatever their order.
  std::vector<std::vector<double>> WallOf(Ps.size());
  std::vector<double> All, RoundRate, RoundP50, RoundP90, RoundRssMb;
  std::vector<size_t> Hash(Ps.size(), 0);
  std::vector<double> BytesOf(Ps.size(), 0);
  const int64_t T0 = nowNs();
  while (msSince(T0) < O.Seconds * 1e3) {
    std::shuffle(Order.begin(), Order.end(), Rng);
    std::vector<double> Round;
    long MaxRssKb = 0;
    for (size_t P : Order) {
      Invocation I = invoke(O, Files[P], size_t(BytesOf[P]));
      ++R.Attempted;
      WallOf[P].push_back(I.WallMs);
      All.push_back(I.WallMs);
      Round.push_back(I.WallMs);
      MaxRssKb = std::max(MaxRssKb, I.MaxRssKb);
      // Check outside the timed region: the first output of each program
      // set-for-set against the oracle, later ones by hash against it.
      size_t H = std::hash<std::string_view>()(I.Out);
      bool Ok = exitedOk(I.WStatus);
      if (Ok && H != Hash[P]) {
        std::string Why = checkAllLabelsText(I.Out, Truths[P]);
        if (!Why.empty()) {
          R.note("MISMATCH " + Ps[P].Spec + ": " + Why);
          Ok = false;
        } else {
          Hash[P] = H;
        }
      }
      R.Failed += !Ok;
      BytesOf[P] = double(I.Out.size());
    }
    RoundRate.push_back(Round.size() / (std::accumulate(Round.begin(),
                                                        Round.end(), 0.0) /
                                        1e3));
    RoundP50.push_back(quantile(Round, 0.5));
    RoundP90.push_back(quantile(Round, 0.9));
    RoundRssMb.push_back(MaxRssKb / 1024.0);
  }

  double SumMedianMs = 0;
  char Buf[256];
  R.note("cli_export: stcfa <file> --query=all-labels, per program:");
  for (size_t P = 0; P != Ps.size(); ++P) {
    SumMedianMs += median(WallOf[P]);
    std::snprintf(Buf, sizeof(Buf), "  %-22s %6u exprs %9.2f MB  %s",
                  Ps[P].Spec.c_str(), Truths[P].numExprs(), BytesOf[P] / 1e6,
                  describeLatency(WallOf[P]).c_str());
    R.note(Buf);
  }
  const double ExprsPerS = double(TotalExprs) / (SumMedianMs / 1e3);
  std::snprintf(Buf, sizeof(Buf),
                "exprs_per_s %.1f 1/s (%llu exprs over the summed median "
                "walls of %zu programs)",
                ExprsPerS, (unsigned long long)TotalExprs, Ps.size());
  R.note(Buf);
  R.note("driver wall per invocation: " + describeLatency(All));

  R.add("setup_s", median(SetupS), "s");
  // One op is one driver invocation; over a fixed program mix this is
  // exprs_per_s divided by the mix's expression count.
  R.add("ops_per_s", quietRate(RoundRate), "1/s");
  R.add("op_ms_p50", quietLatency(RoundP50), "ms");
  R.add("op_ms_p90", quietLatency(RoundP90), "ms");
  // Per round the largest driver RSS; the median over rounds, since
  // transparent huge pages move single readings by megabytes.
  R.add("peak_rss_mb", median(RoundRssMb), "MB");
  return R;
}
