//===-- lint/LintEngine.cpp - Governed lint pass manager ------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "lint/LintEngine.h"

#include "support/Metrics.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cassert>

using namespace stcfa;

LintEngine::LintEngine(const Module &M, const FrozenGraph &F) : M(M), F(F) {
  assert(M.numExprs() == F.numExprs() && "module/snapshot shape mismatch");
}

LintResult LintEngine::run(const LintOptions &Opts) {
  Span RunSpan("lint.run");
  static Counter &Runs = counter("lint.runs");
  static Counter &TotalFindings = counter("lint.findings");
  static Counter &PartialPasses = counter("lint.partial_passes");
  static Histogram &PassMillis =
      histogram("lint.pass_millis", latencyBucketsMillis());
  Runs.inc();

  // Selection in registry order keeps report order deterministic however
  // the pool interleaves execution.
  std::vector<const LintPassInfo *> Selected;
  for (const LintPassInfo &P : passes()) {
    if (Opts.Passes.empty()) {
      Selected.push_back(&P);
      continue;
    }
    for (const std::string &Id : Opts.Passes)
      if (Id == P.Id) {
        Selected.push_back(&P);
        break;
      }
  }

  LintResult Result;
  Result.Reports.resize(Selected.size());
  if (Selected.empty())
    return Result;

  LintContext Ctx(M, F, Opts.D, Opts.Token);
  unsigned Width = Opts.Threads ? Opts.Threads : 1;
  if (Width > Selected.size())
    Width = static_cast<unsigned>(Selected.size());
  ThreadPool Pool(Width);
  Pool.parallelFor(Selected.size(), [&](unsigned, size_t I) {
    const LintPassInfo *Info = Selected[I];
    Span PassSpan(Info->SpanName);
    Timer T;
    LintPassReport &R = Result.Reports[I];
    R.Info = Info;
    R.PassStatus = Info->Run(Ctx, R.Findings);
    R.Partial = !R.PassStatus.isOk();
    R.Millis = T.millis();
    PassSpan.arg("findings", R.Findings.size());
    PassSpan.arg("partial", R.Partial ? 1 : 0);
    if (R.Partial)
      PassSpan.arg("cause", statusCodeName(R.PassStatus.code()));
    counter(std::string("lint.") + Info->Id + ".findings")
        .add(R.Findings.size());
    TotalFindings.add(R.Findings.size());
    if (R.Partial)
      PartialPasses.inc();
    PassMillis.observe(static_cast<uint64_t>(R.Millis));
  });

  for (const LintPassReport &R : Result.Reports)
    for (const LintDiagnostic &Diag : R.Findings)
      switch (Diag.Severity) {
      case LintSeverity::Error:
        ++Result.NumErrors;
        break;
      case LintSeverity::Warning:
        ++Result.NumWarnings;
        break;
      case LintSeverity::Note:
        ++Result.NumNotes;
        break;
      }
  RunSpan.arg("passes", Result.Reports.size());
  RunSpan.arg("errors", Result.NumErrors);
  RunSpan.arg("warnings", Result.NumWarnings);
  return Result;
}
