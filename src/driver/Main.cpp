//===-- driver/Main.cpp - The stcfa command-line tool ---------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `stcfa`: parse a mini-ML program, run an analysis, answer queries.
///
/// \code
///   stcfa program.stml --query=all-labels
///   stcfa --corpus=cubic:8 --analysis=standard --stats
///   echo 'let id = fn x => x in id id' | stcfa - --query=labels
///   stcfa program.stml --run
/// \endcode
///
//===----------------------------------------------------------------------===//

#include "analysis/DeadCodeAwareCFA.h"
#include "analysis/HybridCFA.h"
#include "analysis/StandardCFA.h"
#include "apps/CallGraph.h"
#include "apps/EffectsAnalysis.h"
#include "apps/KLimitedCFA.h"
#include "ast/Printer.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "gen/Corpus.h"
#include "gen/Generators.h"
#include "testgen/ShapeGen.h"
#include "interp/Interpreter.h"
#include "lint/LintEngine.h"
#include "lint/Render.h"
#include "slice/DeadCode.h"
#include "slice/Export.h"
#include "slice/Slicer.h"
#include "parser/Parser.h"
#include "poly/Polyvariant.h"
#include "sema/Infer.h"
#include "serve/Server.h"
#include "snapshot/Snapshot.h"
#include "support/Metrics.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "unify/UnificationCFA.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream> // the one tool entry point reads stdin
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

using namespace stcfa;

namespace {

struct Options {
  std::string InputFile;
  std::string Corpus;
  std::string Analysis = "subtransitive";
  std::string Query = "labels";
  /// K of `--query=klimited:K`, checked while parsing flags.
  uint32_t KLimit = 0;
  std::string Congruence = "bytype";
  std::string Policy = "paper";
  unsigned Threads = 1;
  /// Batch size above which batched queries dispatch to the label-set
  /// kernel; -1 = flag not given (engine default), 0 = kernel disabled.
  int64_t KernelThreshold = -1;
  /// `--gen-shape=<family>:<N>[:<seed>]`: print the generated stress
  /// program and exit.
  std::string GenShape;
  /// Wall-clock budget for the whole analysis+query pipeline; -1 = none.
  int64_t TimeoutMs = -1;
  /// Node budget for the subtransitive close phase; 0 = unlimited.
  uint64_t CloseBudget = 0;
  /// Degradation mode for --analysis=hybrid; empty = flag not given.
  std::string Degrade;
  /// Chrome-tracing span export path; empty = tracing stays disabled.
  std::string TraceJson;
  /// Metrics snapshot export path; empty = no export.
  std::string MetricsJson;
  bool Stats = false;
  bool Run = false;
  bool Print = false;
  bool DumpGraph = false;
  /// `--lint[=pass,...]`: run the checker passes instead of a query.
  bool Lint = false;
  /// Selected pass ids; empty = all registered passes.
  std::vector<std::string> LintPasses;
  std::string LintFormat = "text";
  /// Tracks whether the flag was given explicitly, for conflict checks.
  bool LintFormatGiven = false;
  /// `--slice=expr@<line>:<col>[,back|fwd]`: raw spec; parsed fields
  /// below once flags are validated.
  std::string Slice;
  uint32_t SliceLine = 0;
  uint32_t SliceCol = 0;
  std::string SliceDir = "back";
  /// `--dce`: emit the residual program with dead bindings removed.
  bool Dce = false;
  /// `--export-deps=dot|json`: serialise the dependence graph.
  std::string ExportDeps;
  /// True when any of the slice-subsystem batch modes was requested.
  bool sliceMode() const {
    return !Slice.empty() || Dce || !ExportDeps.empty();
  }
  bool QueryGiven = false;
  bool CongruenceGiven = false;
  bool PolicyGiven = false;
  bool AnalysisGiven = false;
  /// `--save-snapshot=<file>`: persist the frozen graph after analysis.
  std::string SaveSnapshot;
  /// `--load-snapshot=<file>`: serve queries from a persisted snapshot,
  /// skipping parse/close/freeze entirely.
  std::string LoadSnapshot;
  /// `--snapshot-cache[=<dir>]`: content-addressed snapshot reuse.
  bool SnapshotCache = false;
  std::string SnapshotDir;
  /// `--snapshot-cache-max-mb=<n>`: cache size cap, LRU-by-mtime
  /// eviction after each fill; 0 = uncapped.
  uint64_t SnapshotCacheMaxMb = 512;
  /// `--serve`: the long-running analysis daemon (docs/SERVE.md).
  bool Serve = false;
  /// Admission soft budget in governor node units.
  uint64_t ServeMaxCost = 4u << 20;
  /// Longest accepted request line, in MiB.
  uint64_t ServeMaxRequestMb = 32;

  /// True when any resource-governor flag was given: only then do the
  /// degradation exit codes (3-6) apply, so ungoverned invocations keep
  /// the historical 0/1/2 behaviour.
  bool governed() const {
    return TimeoutMs >= 0 || CloseBudget > 0 || !Degrade.empty();
  }
};

int usage(const char *Argv0) {
  std::fprintf(
      stderr,
      "usage: %s [<file>|-] [options]\n"
      "  --corpus=<name>        life | lexgen[:states] | cubic:N |\n"
      "                         joinpoint:N | random:SEED |\n"
      "                         wide:N | deep:N | diamond:N | skewed:N\n"
      "                         (condensation-shape stress programs;\n"
      "                         optional :seed suffix)\n"
      "  --gen-shape=<spec>     print the wide/deep/diamond/skewed:N\n"
      "                         stress program to stdout and exit\n"
      "  --analysis=<name>      subtransitive (default) | standard |\n"
      "                         unify | poly | hybrid\n"
      "  --query=<q>            labels (root label set, default) |\n"
      "                         all-labels | effects | called-once |\n"
      "                         klimited:K | callgraph | dead-code\n"
      "  --lint[=p1,p2,...]     run the checker passes (docs/LINT.md)\n"
      "                         instead of a query; default all of:\n"
      "                         dead-function, unused-binding,\n"
      "                         applied-non-function, called-once,\n"
      "                         impure-in-pure, escaping-function\n"
      "  --lint-format=<f>      text (default) | json | sarif\n"
      "  --slice=expr@L:C[,d]   demand-driven slice of the innermost\n"
      "                         expression at line L column C over the\n"
      "                         dependence graph; d = back (default,\n"
      "                         what influences it) | fwd (what it\n"
      "                         influences); members print with witness\n"
      "                         chains (docs/SLICE.md)\n"
      "  --dce                  emit the residual program to stdout with\n"
      "                         dead bindings removed (docs/SLICE.md)\n"
      "  --export-deps=<f>      print the typed dependence graph as\n"
      "                         dot | json\n"
      "  --congruence=<c>       none | bytype (default) | bybase\n"
      "  --policy=<p>           paper (default) | nodeexists | undemanded\n"
      "  --threads=<n>          query-engine worker lanes\n"
      "  --kernel-threshold=<n> batch size above which batched queries use\n"
      "                         the word-parallel label-set kernel\n"
      "                         (0 disables the kernel; default 16)\n"
      "  --timeout-ms=<n>       wall-clock deadline over analysis + queries\n"
      "  --close-budget=<n>     node budget for the subtransitive close\n"
      "                         (subtransitive/poly analyses only)\n"
      "  --degrade=<m>          off | standard (default) | partial —\n"
      "                         hybrid degradation ladder (hybrid only;\n"
      "                         'off' conflicts with --timeout-ms)\n"
      "  --save-snapshot=<file> persist the frozen graph (plus name tables\n"
      "                         and the label-set kernel matrix) to an\n"
      "                         mmap-able snapshot\n"
      "  --load-snapshot=<file> serve --query=labels|all-labels straight\n"
      "                         from a snapshot: no parse, no close, no\n"
      "                         freeze (docs/SNAPSHOT.md)\n"
      "  --snapshot-cache[=<d>] content-addressed snapshot reuse keyed on\n"
      "                         source + configuration; default directory\n"
      "                         $STCFA_SNAPSHOT_DIR or ~/.cache/stcfa\n"
      "  --snapshot-cache-max-mb=<n>\n"
      "                         cache size cap, enforced after each fill by\n"
      "                         LRU-by-mtime eviction (0 = uncapped;\n"
      "                         default 512)\n"
      "  --serve                long-running daemon: newline-delimited JSON\n"
      "                         requests on stdin, one reply line each;\n"
      "                         programs arrive via 'load' requests\n"
      "                         (docs/SERVE.md)\n"
      "  --serve-max-cost=<n>   admission soft budget in graph node units:\n"
      "                         above it queries degrade to universal sets,\n"
      "                         above twice it requests are shed\n"
      "                         (default 4194304)\n"
      "  --serve-max-request-mb=<n>\n"
      "                         longest accepted request line (default 32)\n"
      "  --trace-json=<file>    write stage spans as a Chrome-tracing /\n"
      "                         Perfetto JSON array (docs/OBSERVABILITY.md)\n"
      "  --metrics-json=<file>  write the process metrics snapshot\n"
      "  --stats                print program/type/graph statistics\n"
      "  --print                pretty-print the parsed program\n"
      "  --dump-graph           print every subtransitive edge\n"
      "  --run                  interpret the program\n"
      "exit codes (3-6 only under --timeout-ms/--close-budget/--degrade):\n"
      "  0  success             1  input error        2  usage/flag error\n"
      "  3  deadline/cancelled  4  served by standard-cubic fallback\n"
      "  5  served by bounded partial answer\n"
      "  6  budget exhausted with no degradation permitted\n"
      "  7  lint findings at error severity (--lint only)\n",
      Argv0);
  return 2;
}

bool startsWith(const std::string &S, const char *Prefix) {
  return S.rfind(Prefix, 0) == 0;
}

/// Prints `error: <Message>` and then the usage text; returns 2, the
/// exit status of every usage error.
int usageError(const char *Argv0, const std::string &Message) {
  std::fprintf(stderr, "error: %s\n", Message.c_str());
  return usage(Argv0);
}

/// True iff \p V is one of the `|`-separated words of \p Allowed.
bool oneOf(std::string_view V, std::string_view Allowed) {
  for (size_t Pos = 0; Pos <= Allowed.size();) {
    size_t Bar = std::min(Allowed.find('|', Pos), Allowed.size());
    if (Allowed.substr(Pos, Bar - Pos) == V)
      return true;
    Pos = Bar + 1;
  }
  return false;
}

/// Checks the value of the enumerated flag \p Flag against \p Allowed
/// (`a|b|c`); on a mismatch reports it through `usageError` and returns
/// false.
bool enumFlag(const char *Argv0, const char *Flag, const std::string &V,
              const char *Allowed) {
  if (oneOf(V, Allowed))
    return true;
  usageError(Argv0, std::string(Flag) + " expects " + Allowed + ", got '" +
                        V + "'");
  return false;
}

/// Reads the value of the numeric flag \p Arg (`--<name>=<n>`) into
/// \p Out through the checked parser, requiring `Min <= n <= Max`.  On a
/// malformed or out-of-range value prints the error and returns false;
/// the caller exits 2, like every flag error.
template <typename T>
bool numericFlag(const std::string &Arg, T &Out, T Min = 0,
                 T Max = std::numeric_limits<T>::max()) {
  size_t Eq = Arg.find('=');
  T V{};
  if (parseDecimal(std::string_view(Arg).substr(Eq + 1), V, Max) && V >= Min) {
    Out = V;
    return true;
  }
  std::fprintf(stderr, "error: %s expects a number from %llu to %llu, got "
                       "'%s'\n",
               Arg.substr(0, Eq).c_str(), (unsigned long long)Min,
               (unsigned long long)Max, Arg.substr(Eq + 1).c_str());
  return false;
}

std::string loadInput(const Options &Opts, bool &Ok) {
  Ok = true;
  if (!Opts.Corpus.empty()) {
    if (Opts.Corpus == "life")
      return lifeProgram();
    if (Opts.Corpus == "lexgen")
      return makeLexgenLike();
    // A malformed numeric suffix falls through to "unknown corpus".
    std::string_view Corpus = Opts.Corpus;
    int N = 0;
    if (startsWith(Opts.Corpus, "lexgen:") && parseDecimal(Corpus.substr(7), N))
      return makeLexgenLike(N);
    if (startsWith(Opts.Corpus, "cubic:") && parseDecimal(Corpus.substr(6), N))
      return makeCubicFamily(N);
    if (startsWith(Opts.Corpus, "joinpoint:") &&
        parseDecimal(Corpus.substr(10), N))
      return makeJoinPointFamily(N);
    if (RandomProgramOptions R; startsWith(Opts.Corpus, "random:") &&
                                parseDecimal(Corpus.substr(7), R.Seed)) {
      R.UseRefs = true;
      R.UseEffects = true;
      return makeRandomProgram(R);
    }
    if (ShapeSpec Spec; parseShapeSpec(Opts.Corpus, Spec))
      return makeShapeProgram(Spec);
    std::fprintf(stderr, "error: unknown corpus '%s'\n", Opts.Corpus.c_str());
    Ok = false;
    return "";
  }
  if (Opts.InputFile.empty() || Opts.InputFile == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    return Buf.str();
  }
  std::ifstream In(Opts.InputFile);
  if (!In) {
    std::fprintf(stderr, "error: cannot open '%s'\n", Opts.InputFile.c_str());
    Ok = false;
    return "";
  }
  return std::string(std::istreambuf_iterator<char>(In),
                     std::istreambuf_iterator<char>());
}

/// How query output names an occurrence and a label: through the live
/// `Module`, or through a loaded snapshot's persisted name tables.
struct Names {
  std::function<std::string(ExprId)> Expr;
  std::function<std::string(uint32_t)> Label;
};

Names moduleNames(const Module &M) {
  return {[&M](ExprId E) { return describeExpr(M, E); },
          [&M](uint32_t L) { return describeLabel(M, LabelId(L)); }};
}

Names snapshotNames(const LoadedSnapshot &Snap) {
  return {[&Snap](ExprId E) { return std::string(Snap.exprName(E.index())); },
          [&Snap](uint32_t L) { return std::string(Snap.labelName(L)); }};
}

std::string renderSet(const Names &N, const DenseBitset &Set) {
  std::string Out = "{";
  bool First = true;
  Set.forEach([&](uint32_t L) {
    if (!First)
      Out += ", ";
    First = false;
    Out += N.Label(L);
  });
  return Out + "}";
}

/// Uniform label-set access across the analyses.
struct AnalysisResult {
  std::unique_ptr<StandardCFA> Std;
  std::unique_ptr<UnificationCFA> Uni;
  std::unique_ptr<SubtransitiveGraph> Graph;
  std::unique_ptr<PolyvariantCFA> Poly;
  std::unique_ptr<HybridCFA> Hybrid;
  std::unique_ptr<FrozenGraph> Snapshot;
  std::unique_ptr<QueryEngine> Engine;
  double AnalysisMs = 0;

  /// The label set of \p E under the graph-free analyses (standard,
  /// unify, and the hybrid's fallback rungs); graph analyses answer
  /// through `engine()` instead.
  DenseBitset labels(ExprId E) {
    if (Std)
      return Std->labelSet(E);
    if (Uni)
      return Uni->labelSet(E);
    return Hybrid->labelSet(E);
  }
  const SubtransitiveGraph *graph() const {
    if (Graph)
      return Graph.get();
    if (Poly)
      return &Poly->graph();
    if (Hybrid)
      return Hybrid->graph();
    return nullptr;
  }
  /// The frozen snapshot every graph analysis answers through (the
  /// hybrid analysis freezes internally on subtransitive success).
  const FrozenGraph *frozen() const {
    if (Snapshot)
      return Snapshot.get();
    if (Hybrid)
      return Hybrid->frozen();
    return nullptr;
  }
  QueryEngine *engine() {
    if (Engine)
      return Engine.get();
    if (Hybrid)
      return Hybrid->queryEngine();
    return nullptr;
  }
};

/// The canonical configuration string hashed into the snapshot cache key:
/// every option that shapes the frozen tables, nothing that doesn't.
std::string snapshotConfigString(const Options &O) {
  return "analysis=" + O.Analysis + ";congruence=" + O.Congruence +
         ";policy=" + O.Policy;
}

/// `--query=labels|all-labels`, shared by the live pipeline and the
/// snapshot paths.  `labels` prints the root's set; `all-labels` answers
/// every occurrence in one batch — through \p Engine, governed by \p D,
/// or, when there is no engine (the graph-free analyses), through
/// \p LabelSet — and prints the non-empty sets.  Returns 3 when the
/// batch stopped early, else 0.
int printLabelQuery(const Options &Opts, const Names &N, uint32_t NumExprs,
                    ExprId Root, QueryEngine *Engine,
                    const std::function<DenseBitset(ExprId)> &LabelSet,
                    Deadline D) {
  if (Opts.Query == "labels") {
    DenseBitset Set = Engine ? Engine->labelsOf(Root) : LabelSet(Root);
    std::printf("L(root) = %s\n", renderSet(N, Set).c_str());
    return 0;
  }
  std::vector<DenseBitset> Sets;
  BatchOutcome Outcome;
  if (Engine) {
    std::vector<ExprId> Es;
    Es.reserve(NumExprs);
    for (uint32_t I = 0; I != NumExprs; ++I)
      Es.push_back(ExprId(I));
    BatchControl BC;
    BC.D = D;
    Sets = Engine->labelsOfBatch(Es, BC, Outcome);
  } else {
    Sets.reserve(NumExprs);
    for (uint32_t I = 0; I != NumExprs; ++I)
      Sets.push_back(LabelSet(ExprId(I)));
    Outcome.Done.assign(NumExprs, 1);
  }
  for (uint32_t I = 0; I != NumExprs; ++I) {
    if (!Outcome.Done[I] || Sets[I].empty())
      continue;
    std::printf("%-18s %s\n", N.Expr(ExprId(I)).c_str(),
                renderSet(N, Sets[I]).c_str());
  }
  if (Outcome.S.isOk())
    return 0;
  std::fprintf(stderr, "note: batch stopped early: %s (%llu of %u answered)\n",
               Outcome.S.toString().c_str(),
               (unsigned long long)Outcome.Completed, NumExprs);
  return 3;
}

/// Serves `--query=labels|all-labels` straight from a loaded snapshot:
/// zero-copy query engine over the mapping, persisted kernel rows adopted
/// as the batch backend, output byte-identical to the in-memory path.
int serveFromSnapshot(const Options &Opts, const LoadedSnapshot &Snap) {
  const FrozenGraph &F = Snap.frozen();
  QueryEngine Engine(F, Opts.Threads);
  if (Opts.KernelThreshold >= 0)
    Engine.setKernelThreshold(static_cast<size_t>(Opts.KernelThreshold));
  bool KernelAdopted = false;
  if (auto Kern = Snap.adoptKernel()) {
    Engine.adoptKernel(std::move(Kern));
    KernelAdopted = true;
  }
  if (Opts.Stats)
    std::printf("snapshot: %u nodes / %llu edges served zero-copy, %u "
                "query lane(s), kernel rows %s\n",
                F.numNodes(), (unsigned long long)F.numEdges(),
                Engine.threads(), KernelAdopted ? "adopted" : "absent");

  Deadline D = Opts.TimeoutMs >= 0 ? Deadline::afterMillis(Opts.TimeoutMs)
                                   : Deadline::infinite();
  Timer QueryTimer;
  int ExitCode = printLabelQuery(Opts, snapshotNames(Snap), F.numExprs(),
                                 Snap.rootExpr(), &Engine, nullptr, D);
  if (Opts.Stats)
    std::printf("queries: %.3f ms\n", QueryTimer.millis());
  return ExitCode;
}

/// The `--lint` tail, shared by the live pipeline and `--load-snapshot`
/// (which differ only in how \p Lint was built): run the passes, render
/// the report, and map it to an exit code.
int runLint(const Options &Opts, LintEngine &Lint, Deadline D,
            const char *Over) {
  LintOptions LO;
  LO.Passes = Opts.LintPasses;
  LO.D = D;
  LO.Threads = Opts.Threads;
  Timer LintTimer;
  LintResult LR = Lint.run(LO);
  std::string InputName =
      !Opts.InputFile.empty() && Opts.InputFile != "-" ? Opts.InputFile
      : !Opts.Corpus.empty() ? "corpus:" + Opts.Corpus
                             : "stdin";
  std::string Rendered = Opts.LintFormat == "json"
                             ? renderLintJson(LR, InputName)
                         : Opts.LintFormat == "sarif"
                             ? renderLintSarif(LR, InputName)
                             : renderLintText(LR, InputName);
  std::fputs(Rendered.c_str(), stdout);
  if (Opts.Stats)
    std::printf("lint: %u pass(es)%s in %.3f ms\n",
                (unsigned)LR.Reports.size(), Over, LintTimer.millis());
  // Error-severity findings outrank the governed partial-result code.
  if (LR.NumErrors > 0)
    return 7;
  if (LR.anyPartial() && Opts.governed())
    return 3;
  return 0;
}

/// The AST behind a `--load-snapshot` lint or slice: the frozen tables
/// come from the mapping, the AST from reparsing the named input (already
/// hash-verified against the snapshot header, so the two line up).  Null,
/// with the error printed, when the input does not parse or its shape
/// does not match the snapshot.
std::unique_ptr<Module> reparseForSnapshot(const Options &Opts,
                                           const FrozenGraph &F,
                                           const std::string &Source) {
  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return nullptr;
  }
  DiagnosticEngine InferDiags;
  (void)inferTypes(*M, InferDiags);
  if (M->numExprs() != F.numExprs()) {
    std::fprintf(stderr,
                 "error: snapshot '%s' does not match the given input "
                 "(%u vs %u occurrences)\n",
                 Opts.LoadSnapshot.c_str(), F.numExprs(), M->numExprs());
    return nullptr;
  }
  return M;
}

/// Resolves `--slice=expr@L:C` to the innermost occurrence at exactly
/// that location: preorder visits parents before children, so the last
/// exact match wins.
bool resolveExprAt(const Module &M, uint32_t Line, uint32_t Col,
                   ExprId &Out) {
  bool Found = false;
  forEachExprPreorder(M, M.root(), [&](ExprId Id, const Expr *E) {
    if (E->loc().isValid() && E->loc().Line == Line && E->loc().Col == Col) {
      Out = Id;
      Found = true;
    }
  });
  return Found;
}

/// The `--slice` / `--dce` / `--export-deps` batch modes (mutually
/// exclusive, validated up front).  Shared by the live pipeline and the
/// `--load-snapshot` path, which differ only in where \p F comes from.
int runSliceModes(const Options &Opts, const Module &M, const FrozenGraph &F,
                  Deadline D, int ExitCode) {
  DependenceGraph::Options DO;
  DO.D = D;
  Status BuildStatus = Status::ok();
  std::unique_ptr<DependenceGraph> DG =
      DependenceGraph::build(M, F, BuildStatus, DO);
  if (!DG) {
    std::fprintf(stderr, "error: dependence-graph build failed: %s\n",
                 BuildStatus.toString().c_str());
    return Opts.governed() &&
                   (BuildStatus == StatusCode::DeadlineExceeded ||
                    BuildStatus == StatusCode::Cancelled)
               ? 3
               : 1;
  }
  if (Opts.Stats)
    std::printf("deps: %u entities / %llu edges in %.3f ms\n",
                DG->numDepNodes(), (unsigned long long)DG->numEdges(),
                DG->buildMillis());

  if (!Opts.ExportDeps.empty()) {
    std::fputs((Opts.ExportDeps == "dot" ? exportDepsDot(*DG)
                                         : exportDepsJson(*DG))
                   .c_str(),
               stdout);
    return ExitCode;
  }

  if (Opts.Dce) {
    DceOptions DCO;
    DCO.D = D;
    Timer DceTimer;
    DceResult DR = runDce(M, F, *DG, DCO);
    if (!DR.S.isOk()) {
      // Unlike slicing, a partial liveness answer would *remove live
      // code*, so DCE refuses instead of emitting (docs/SLICE.md).
      std::fprintf(stderr, "error: dce emitted nothing: %s\n",
                   DR.S.toString().c_str());
      return Opts.governed() ? 3 : 1;
    }
    std::fputs(DR.Residual.c_str(), stdout);
    if (Opts.Stats)
      std::printf("dce: removed %u of %u binding(s), %u of %u reachable "
                  "occurrence(s) live, in %.3f ms\n",
                  DR.Plan.RemovedBindings,
                  DR.Plan.RemovedBindings + DR.Plan.KeptBindings,
                  DR.Plan.LiveExprs, DR.Plan.ReachableExprs,
                  DceTimer.millis());
    return ExitCode;
  }

  // `--slice`: resolve the target, run the traversal, and print each
  // member as its full witness chain (long chains elide the middle).
  ExprId Target = M.root();
  if (!resolveExprAt(M, Opts.SliceLine, Opts.SliceCol, Target)) {
    std::fprintf(stderr, "error: no expression at %u:%u\n", Opts.SliceLine,
                 Opts.SliceCol);
    return 1;
  }
  SliceOptions SO;
  SO.Dir = Opts.SliceDir == "fwd" ? SliceDirection::Forward
                                  : SliceDirection::Backward;
  SO.D = D;
  Slicer S(*DG);
  Timer SliceTimer;
  SliceResult SR = S.sliceFrom(Target, SO);
  if (!SR.S.isOk() && !SR.Partial) {
    std::fprintf(stderr, "error: slice failed: %s\n",
                 SR.S.toString().c_str());
    return 1;
  }
  std::printf("slice %s from %s: %u occurrence(s)%s\n",
              sliceDirectionName(SR.Dir), describeExpr(M, Target).c_str(),
              (unsigned)SR.Exprs.size(), SR.Partial ? " (partial)" : "");
  for (ExprId Member : SR.Exprs) {
    std::vector<WitnessStep> Steps;
    Status WS = S.witnessFor(SR, Member, Steps);
    if (!WS.isOk()) {
      std::fprintf(stderr, "error: witness for %s invalid: %s\n",
                   describeExpr(M, Member).c_str(), WS.toString().c_str());
      return 1;
    }
    std::string Line;
    if (Steps.size() <= 12) {
      Line = S.renderWitness(Steps);
    } else {
      std::vector<WitnessStep> Head(Steps.begin(), Steps.begin() + 3);
      std::vector<WitnessStep> Tail(Steps.end() - 3, Steps.end());
      Line = S.renderWitness(Head) + " ..(" +
             std::to_string(Steps.size() - 6) + " hops).. " +
             S.renderWitness(Tail);
    }
    std::printf("  %s\n", Line.c_str());
  }
  if (Opts.Stats)
    std::printf("slice: %.3f ms\n", SliceTimer.millis());
  if (SR.Partial) {
    std::fprintf(stderr,
                 "note: slice stopped early: %s (members are an "
                 "under-approximation)\n",
                 SR.S.toString().c_str());
    if (Opts.governed())
      return 3;
  }
  return ExitCode;
}

} // namespace

int main(int Argc, char **Argv) {
  Options Opts;
  for (int I = 1; I != Argc; ++I) {
    std::string A = Argv[I];
    if (startsWith(A, "--corpus="))
      Opts.Corpus = A.substr(9);
    else if (startsWith(A, "--analysis=")) {
      Opts.Analysis = A.substr(11);
      Opts.AnalysisGiven = true;
      if (!enumFlag(Argv[0], "--analysis", Opts.Analysis,
                    "subtransitive|standard|unify|poly|hybrid"))
        return 2;
    } else if (startsWith(A, "--query=")) {
      Opts.Query = A.substr(8);
      Opts.QueryGiven = true;
      if (startsWith(Opts.Query, "klimited:")) {
        if (!parseDecimal(std::string_view(Opts.Query).substr(9),
                          Opts.KLimit)) {
          std::fprintf(stderr,
                       "error: --query=klimited:K expects a number K, got "
                       "'%s'\n",
                       Opts.Query.c_str() + 9);
          return 2;
        }
      } else if (!enumFlag(Argv[0], "--query", Opts.Query,
                           "labels|all-labels|effects|called-once|"
                           "klimited:K|callgraph|dead-code")) {
        return 2;
      }
    } else if (A == "--lint")
      Opts.Lint = true;
    else if (startsWith(A, "--lint=")) {
      Opts.Lint = true;
      std::string List = A.substr(7);
      for (size_t Pos = 0; Pos <= List.size();) {
        size_t Comma = List.find(',', Pos);
        if (Comma == std::string::npos)
          Comma = List.size();
        if (Comma > Pos)
          Opts.LintPasses.push_back(List.substr(Pos, Comma - Pos));
        Pos = Comma + 1;
      }
      if (Opts.LintPasses.empty()) {
        std::fprintf(stderr, "error: --lint= expects a pass list; plain "
                             "--lint runs every pass\n");
        return 2;
      }
    } else if (startsWith(A, "--lint-format=")) {
      Opts.LintFormat = A.substr(14);
      Opts.LintFormatGiven = true;
    } else if (startsWith(A, "--slice=")) {
      Opts.Slice = A.substr(8);
      if (Opts.Slice.empty()) {
        std::fprintf(stderr,
                     "error: --slice expects expr@<line>:<col>[,back|fwd]\n");
        return 2;
      }
    } else if (A == "--dce") {
      Opts.Dce = true;
    } else if (startsWith(A, "--export-deps=")) {
      Opts.ExportDeps = A.substr(14);
    }
    else if (startsWith(A, "--congruence=")) {
      Opts.Congruence = A.substr(13);
      Opts.CongruenceGiven = true;
      if (!enumFlag(Argv[0], "--congruence", Opts.Congruence,
                    "none|bytype|bybase"))
        return 2;
    } else if (startsWith(A, "--policy=")) {
      Opts.Policy = A.substr(9);
      Opts.PolicyGiven = true;
      if (!enumFlag(Argv[0], "--policy", Opts.Policy,
                    "paper|nodeexists|undemanded"))
        return 2;
    } else if (startsWith(A, "--save-snapshot=")) {
      Opts.SaveSnapshot = A.substr(16);
      if (Opts.SaveSnapshot.empty()) {
        std::fprintf(stderr, "error: --save-snapshot expects a file path\n");
        return 2;
      }
    } else if (startsWith(A, "--load-snapshot=")) {
      Opts.LoadSnapshot = A.substr(16);
      if (Opts.LoadSnapshot.empty()) {
        std::fprintf(stderr, "error: --load-snapshot expects a file path\n");
        return 2;
      }
    } else if (A == "--snapshot-cache") {
      Opts.SnapshotCache = true;
    } else if (startsWith(A, "--snapshot-cache=")) {
      Opts.SnapshotCache = true;
      Opts.SnapshotDir = A.substr(17);
      if (Opts.SnapshotDir.empty()) {
        std::fprintf(stderr,
                     "error: --snapshot-cache= expects a directory; plain "
                     "--snapshot-cache uses the default cache\n");
        return 2;
      }
    } else if (startsWith(A, "--snapshot-cache-max-mb=")) {
      // Applied in bytes (MiB << 20), so the shift must not overflow.
      if (!numericFlag<uint64_t>(A, Opts.SnapshotCacheMaxMb, 0,
                                 UINT64_MAX >> 20))
        return 2;
    } else if (A == "--serve") {
      Opts.Serve = true;
    } else if (startsWith(A, "--serve-max-cost=")) {
      if (!numericFlag<uint64_t>(A, Opts.ServeMaxCost, 1))
        return 2;
    } else if (startsWith(A, "--serve-max-request-mb=")) {
      if (!numericFlag<uint64_t>(A, Opts.ServeMaxRequestMb, 1,
                                 UINT64_MAX >> 20))
        return 2;
    } else if (startsWith(A, "--threads=")) {
      if (!numericFlag(A, Opts.Threads))
        return 2;
      if (Opts.Threads == 0)
        Opts.Threads = 1;
    } else if (startsWith(A, "--kernel-threshold=")) {
      if (!numericFlag<int64_t>(A, Opts.KernelThreshold))
        return 2;
    } else if (startsWith(A, "--gen-shape=")) {
      Opts.GenShape = A.substr(12);
      if (Opts.GenShape.empty()) {
        std::fprintf(stderr, "error: --gen-shape expects "
                             "wide|deep|diamond|skewed:N[:seed]\n");
        return 2;
      }
    } else if (startsWith(A, "--timeout-ms=")) {
      // Bounded so `now + timeout` stays inside the steady clock's
      // nanosecond range (about 146 years).
      if (!numericFlag<int64_t>(A, Opts.TimeoutMs, 0,
                                INT64_MAX / 2'000'000))
        return 2;
    } else if (startsWith(A, "--close-budget=")) {
      if (!numericFlag<uint64_t>(A, Opts.CloseBudget, 1))
        return 2;
    } else if (startsWith(A, "--degrade=")) {
      Opts.Degrade = A.substr(10);
    } else if (startsWith(A, "--trace-json=")) {
      Opts.TraceJson = A.substr(13);
      if (Opts.TraceJson.empty()) {
        std::fprintf(stderr, "error: --trace-json expects a file path\n");
        return 2;
      }
    } else if (startsWith(A, "--metrics-json=")) {
      Opts.MetricsJson = A.substr(15);
      if (Opts.MetricsJson.empty()) {
        std::fprintf(stderr, "error: --metrics-json expects a file path\n");
        return 2;
      }
    } else if (A == "--stats")
      Opts.Stats = true;
    else if (A == "--run")
      Opts.Run = true;
    else if (A == "--print")
      Opts.Print = true;
    else if (A == "--dump-graph")
      Opts.DumpGraph = true;
    else if (A == "--help" || A == "-h")
      return usage(Argv[0]);
    else if (startsWith(A, "--"))
      return usageError(Argv[0], "unknown option '" + A + "'");
    else if (!Opts.InputFile.empty())
      return usageError(Argv[0], "more than one input: '" + Opts.InputFile +
                                     "' and '" + A + "'");
    else
      Opts.InputFile = A;
  }

  // `--gen-shape` is a pure generator invocation: print the stress
  // program (the same source `--corpus=<spec>` would analyze) and exit.
  if (!Opts.GenShape.empty()) {
    ShapeSpec Spec;
    if (!parseShapeSpec(Opts.GenShape, Spec)) {
      std::fprintf(stderr,
                   "error: --gen-shape expects wide|deep|diamond|skewed:"
                   "N[:seed], got '%s'\n",
                   Opts.GenShape.c_str());
      return 2;
    }
    std::fputs(makeShapeProgram(Spec).c_str(), stdout);
    return 0;
  }

  // Reject mutually inconsistent flag combinations up front, before any
  // work: a clear message and exit 2 beat a silently-ignored flag.
  if (!Opts.Degrade.empty() && Opts.Degrade != "off" &&
      Opts.Degrade != "standard" && Opts.Degrade != "partial") {
    std::fprintf(stderr,
                 "error: --degrade expects off|standard|partial, got '%s'\n",
                 Opts.Degrade.c_str());
    return 2;
  }
  if (!Opts.Degrade.empty() && Opts.Analysis != "hybrid" && !Opts.Serve) {
    std::fprintf(stderr,
                 "error: --degrade only applies to --analysis=hybrid or "
                 "--serve (got --analysis=%s)\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  if (Opts.Serve) {
    // The daemon owns the whole pipeline per 'load' request; every flag
    // that names an input or picks a batch output mode conflicts.
    const char *Conflict = nullptr;
    if (!Opts.InputFile.empty() || !Opts.Corpus.empty())
      Conflict = "an input argument (programs arrive via 'load' requests)";
    else if (Opts.QueryGiven)
      Conflict = "--query (queries arrive as 'query' requests)";
    else if (Opts.Lint)
      Conflict = "--lint (lint arrives as 'lint' requests)";
    else if (Opts.sliceMode())
      Conflict = "--slice/--dce/--export-deps (slices arrive as 'slice' "
                 "requests)";
    else if (Opts.Run)
      Conflict = "--run";
    else if (Opts.Print)
      Conflict = "--print";
    else if (Opts.DumpGraph)
      Conflict = "--dump-graph";
    else if (!Opts.SaveSnapshot.empty())
      Conflict = "--save-snapshot (use --snapshot-cache for warm restarts)";
    else if (!Opts.LoadSnapshot.empty())
      Conflict = "--load-snapshot (use --snapshot-cache for warm restarts)";
    else if (Opts.AnalysisGiven)
      Conflict = "--analysis (the daemon always runs the hybrid ladder)";
    else if (Opts.CongruenceGiven || Opts.PolicyGiven)
      Conflict = "--congruence/--policy (the daemon's snapshot keys pin "
                 "the default configuration)";
    else if (Opts.CloseBudget > 0)
      Conflict = "--close-budget (use --serve-max-cost for admission)";
    if (Conflict) {
      std::fprintf(stderr, "error: --serve conflicts with %s\n", Conflict);
      return 2;
    }
  }
  if (Opts.Degrade == "off" && Opts.TimeoutMs >= 0) {
    std::fprintf(stderr,
                 "error: --degrade=off conflicts with --timeout-ms: a "
                 "deadline needs a degradation rung to fall to; drop one "
                 "of the flags\n");
    return 2;
  }
  if (Opts.CloseBudget > 0 && Opts.Analysis != "subtransitive" &&
      Opts.Analysis != "poly") {
    std::fprintf(stderr,
                 "error: --close-budget applies to the subtransitive close "
                 "(--analysis=subtransitive|poly); --analysis=%s has no "
                 "close phase it could bound\n",
                 Opts.Analysis.c_str());
    return 2;
  }
  if (Opts.LintFormatGiven && !Opts.Lint) {
    std::fprintf(stderr,
                 "error: --lint-format has no effect without --lint\n");
    return 2;
  }
  if (Opts.Lint) {
    if (Opts.QueryGiven) {
      std::fprintf(stderr, "error: --lint replaces the query path; drop "
                           "--query or --lint\n");
      return 2;
    }
    if (Opts.Analysis != "subtransitive" && Opts.Analysis != "poly") {
      std::fprintf(stderr,
                   "error: --lint consumes the frozen subtransitive graph "
                   "(--analysis=subtransitive|poly); --analysis=%s builds "
                   "none\n",
                   Opts.Analysis.c_str());
      return 2;
    }
    if (Opts.LintFormat != "text" && Opts.LintFormat != "json" &&
        Opts.LintFormat != "sarif") {
      std::fprintf(stderr,
                   "error: --lint-format expects text|json|sarif, got '%s'\n",
                   Opts.LintFormat.c_str());
      return 2;
    }
    for (const std::string &Id : Opts.LintPasses)
      if (!LintEngine::findPass(Id)) {
        std::string Known;
        for (const LintPassInfo &P : LintEngine::passes())
          Known += (Known.empty() ? "" : ", ") + std::string(P.Id);
        std::fprintf(stderr, "error: unknown lint pass '%s' (known: %s)\n",
                     Id.c_str(), Known.c_str());
        return 2;
      }
  }
  if (Opts.sliceMode()) {
    // The three slice-subsystem modes each own stdout, so they are
    // mutually exclusive, and they replace the query path like --lint.
    int NumModes = (!Opts.Slice.empty() ? 1 : 0) + (Opts.Dce ? 1 : 0) +
                   (!Opts.ExportDeps.empty() ? 1 : 0);
    if (NumModes > 1) {
      std::fprintf(stderr, "error: --slice, --dce and --export-deps are "
                           "mutually exclusive; pick one per invocation\n");
      return 2;
    }
    const char *Conflict = nullptr;
    if (Opts.Lint)
      Conflict = "--lint";
    else if (Opts.QueryGiven)
      Conflict = "--query";
    else if (Opts.Run)
      Conflict = "--run (interpret the original and the residual in "
                 "separate invocations)";
    else if (Opts.Print)
      Conflict = "--print";
    else if (Opts.DumpGraph)
      Conflict = "--dump-graph";
    if (Conflict) {
      std::fprintf(stderr, "error: --slice/--dce/--export-deps conflicts "
                           "with %s\n",
                   Conflict);
      return 2;
    }
    if (Opts.Analysis != "subtransitive" && Opts.Analysis != "poly") {
      std::fprintf(stderr,
                   "error: --slice/--dce/--export-deps consume the frozen "
                   "subtransitive graph (--analysis=subtransitive|poly); "
                   "--analysis=%s builds none\n",
                   Opts.Analysis.c_str());
      return 2;
    }
    if (!Opts.ExportDeps.empty() && Opts.ExportDeps != "dot" &&
        Opts.ExportDeps != "json") {
      std::fprintf(stderr, "error: --export-deps expects dot|json, got "
                           "'%s'\n",
                   Opts.ExportDeps.c_str());
      return 2;
    }
    if (!Opts.Slice.empty()) {
      // `expr@<line>:<col>[,back|fwd]`
      std::string Spec = Opts.Slice;
      size_t Comma = Spec.find(',');
      if (Comma != std::string::npos) {
        Opts.SliceDir = Spec.substr(Comma + 1);
        Spec.resize(Comma);
      }
      bool SpecOk = startsWith(Spec, "expr@");
      if (SpecOk) {
        std::string_view Pos = std::string_view(Spec).substr(5);
        size_t Colon = Pos.find(':');
        SpecOk = Colon != std::string_view::npos &&
                 parseDecimal(Pos.substr(0, Colon), Opts.SliceLine) &&
                 parseDecimal(Pos.substr(Colon + 1), Opts.SliceCol);
      }
      if (!SpecOk || (Opts.SliceDir != "back" && Opts.SliceDir != "fwd")) {
        std::fprintf(stderr,
                     "error: --slice expects expr@<line>:<col>[,back|fwd], "
                     "got '%s'\n",
                     Opts.Slice.c_str());
        return 2;
      }
    }
  }
  if (!Opts.LoadSnapshot.empty() || Opts.SnapshotCache) {
    // A served snapshot has no Module and no live graph, so everything
    // that rebuilds or walks one conflicts; a snapshot built under a
    // different close budget or degradation ladder would silently answer
    // for the wrong configuration, so those flags fail fast too.
    const char *Mode =
        !Opts.LoadSnapshot.empty() ? "--load-snapshot" : "--snapshot-cache";
    const char *Conflict = nullptr;
    if (Opts.CloseBudget > 0)
      Conflict = "--close-budget";
    else if (!Opts.Degrade.empty())
      Conflict = "--degrade";
    else if (Opts.Lint && Opts.LoadSnapshot.empty())
      Conflict = "--lint"; // lint-over-snapshot works for --load-snapshot
                           // only: it reparses the named input
    else if (Opts.sliceMode() && Opts.LoadSnapshot.empty())
      Conflict = "--slice/--dce/--export-deps"; // same reparse-the-input
                                                // rule as --lint
    else if (Opts.Run)
      Conflict = "--run";
    else if (Opts.Print)
      Conflict = "--print";
    else if (Opts.DumpGraph)
      Conflict = "--dump-graph";
    else if (Opts.AnalysisGiven && Opts.Analysis != "subtransitive" &&
             Opts.Analysis != "poly")
      Conflict = "--analysis";
    if (Conflict) {
      std::fprintf(stderr,
                   "error: %s conflicts with %s: the flag needs a rebuilt "
                   "(or live) pipeline, but snapshots are served as-is; "
                   "drop the flag or rebuild without the snapshot\n",
                   Mode, Conflict);
      return 2;
    }
    if (!Opts.Lint && !Opts.sliceMode() && Opts.Query != "labels" &&
        Opts.Query != "all-labels") {
      std::fprintf(stderr,
                   "error: %s serves label-set queries only "
                   "(--query=labels|all-labels), got --query=%s\n",
                   Mode, Opts.Query.c_str());
      return 2;
    }
  }
  if (!Opts.LoadSnapshot.empty() && (Opts.Lint || Opts.sliceMode()) &&
      Opts.Corpus.empty() &&
      (Opts.InputFile.empty() || Opts.InputFile == "-")) {
    std::fprintf(stderr,
                 "error: --load-snapshot %s needs the source named too "
                 "(a file or --corpus): the pass walks the AST, "
                 "which the snapshot does not persist\n",
                 Opts.Lint ? "--lint" : "--slice/--dce/--export-deps");
    return 2;
  }
  if (!Opts.LoadSnapshot.empty()) {
    if (!Opts.SaveSnapshot.empty() || Opts.SnapshotCache) {
      std::fprintf(stderr,
                   "error: --load-snapshot conflicts with %s: loading "
                   "skips the pipeline that would produce the snapshot\n",
                   !Opts.SaveSnapshot.empty() ? "--save-snapshot"
                                              : "--snapshot-cache");
      return 2;
    }
    if (Opts.CongruenceGiven || Opts.PolicyGiven) {
      std::fprintf(stderr,
                   "error: --load-snapshot ignores %s: the snapshot was "
                   "built under its own configuration; rebuild with "
                   "--save-snapshot to change it\n",
                   Opts.CongruenceGiven ? "--congruence" : "--policy");
      return 2;
    }
  }
  if (!Opts.SaveSnapshot.empty() && Opts.SnapshotCache) {
    std::fprintf(stderr, "error: --save-snapshot conflicts with "
                         "--snapshot-cache: pick one destination\n");
    return 2;
  }
  if (!Opts.SaveSnapshot.empty() && Opts.Analysis != "subtransitive" &&
      Opts.Analysis != "poly") {
    std::fprintf(stderr,
                 "error: --save-snapshot persists the frozen subtransitive "
                 "graph (--analysis=subtransitive|poly); --analysis=%s "
                 "builds none\n",
                 Opts.Analysis.c_str());
    return 2;
  }

  // Exporter lives on main's stack so every later return path — governed
  // aborts included — still writes the requested trace/metrics files.
  struct ObservabilityExport {
    const Options &Opts;
    ~ObservabilityExport() {
      if (!Opts.TraceJson.empty() && !writeChromeTrace(Opts.TraceJson))
        std::fprintf(stderr, "warning: cannot write trace to '%s'\n",
                     Opts.TraceJson.c_str());
      if (!Opts.MetricsJson.empty()) {
        std::ofstream Out(Opts.MetricsJson);
        if (Out)
          Out << snapshotMetrics().toJson() << "\n";
        if (!Out.good())
          std::fprintf(stderr, "warning: cannot write metrics to '%s'\n",
                       Opts.MetricsJson.c_str());
      }
    }
  } Exporter{Opts};
  if (!Opts.TraceJson.empty()) {
    setTracingEnabled(true);
    if (!tracingCompiledIn())
      std::fprintf(stderr, "warning: tracing compiled out "
                           "(-DSTCFA_TRACING=OFF); '%s' will hold an "
                           "empty trace\n",
                   Opts.TraceJson.c_str());
  }

  // `--serve`: hand stdin/stdout to the daemon; everything else in this
  // file is the batch pipeline, which the daemon re-runs per 'load'.
  if (Opts.Serve) {
    serve::ServeOptions SO;
    SO.Threads = Opts.Threads;
    SO.KernelThreshold = Opts.KernelThreshold;
    SO.DefaultDeadlineMs = Opts.TimeoutMs;
    SO.MaxInflightCost = Opts.ServeMaxCost;
    SO.MaxRequestBytes = Opts.ServeMaxRequestMb << 20;
    SO.SnapshotCache = Opts.SnapshotCache;
    SO.SnapshotDir = Opts.SnapshotDir;
    SO.SnapshotCacheMaxBytes = Opts.SnapshotCacheMaxMb << 20;
    if (!Opts.Degrade.empty())
      SO.Degrade = Opts.Degrade;
    SO.Stats = Opts.Stats;
    serve::Server Daemon(0, 1, SO);
    return Daemon.run();
  }

  // `--load-snapshot`: the whole front half of the pipeline — read,
  // parse, infer, build, close, freeze — is replaced by one mmap.
  if (!Opts.LoadSnapshot.empty()) {
    Status LoadStatus = Status::ok();
    std::unique_ptr<LoadedSnapshot> Snap =
        LoadedSnapshot::load(Opts.LoadSnapshot, LoadStatus);
    if (!Snap) {
      std::fprintf(stderr, "error: %s\n", LoadStatus.toString().c_str());
      return 1;
    }
    // When an input was named alongside the snapshot, verify the header's
    // content hash against it — a stale snapshot must never silently
    // answer for edited source.  (Stdin is not drained for this.)
    std::string VerifiedSource;
    if (!Opts.Corpus.empty() ||
        (!Opts.InputFile.empty() && Opts.InputFile != "-")) {
      bool Ok = true;
      VerifiedSource = loadInput(Opts, Ok);
      if (!Ok)
        return 1;
      uint64_t Key =
          snapshotCacheKey(VerifiedSource, snapshotConfigString(Opts));
      if (Snap->contentHash() != 0 && Snap->contentHash() != Key) {
        std::fprintf(stderr,
                     "error: snapshot '%s' was built from different source "
                     "or configuration than the given input; rebuild it "
                     "with --save-snapshot\n",
                     Opts.LoadSnapshot.c_str());
        return 1;
      }
    }
    if (!Opts.Lint && !Opts.sliceMode())
      return serveFromSnapshot(Opts, *Snap);
    // Lint and the slice modes walk the AST: flag validation guaranteed an
    // input was named, so VerifiedSource holds the (hash-checked) program
    // text; the frozen tables stay zero-copy.
    const FrozenGraph &F = Snap->frozen();
    std::unique_ptr<Module> M = reparseForSnapshot(Opts, F, VerifiedSource);
    if (!M)
      return 1;
    Deadline D = Opts.TimeoutMs >= 0 ? Deadline::afterMillis(Opts.TimeoutMs)
                                     : Deadline::infinite();
    if (Opts.Lint) {
      LintEngine Lint(*M, F);
      return runLint(Opts, Lint, D, " over snapshot");
    }
    return runSliceModes(Opts, *M, F, D, 0);
  }

  bool Ok = true;
  std::string Source = loadInput(Opts, Ok);
  if (!Ok)
    return 1;

  // `--snapshot-cache`: content-addressed reuse.  A hit serves straight
  // from the mapped file (no parse below this line); a miss runs the
  // normal pipeline and fills the cache after the freeze.
  uint64_t CacheKey = 0;
  std::string CachePath;
  if (Opts.SnapshotCache) {
    CacheKey = snapshotCacheKey(Source, snapshotConfigString(Opts));
    CachePath =
        snapshotCachePath(snapshotCacheDir(Opts.SnapshotDir), CacheKey);
    Status CacheStatus = Status::ok();
    if (std::unique_ptr<LoadedSnapshot> Snap =
            LoadedSnapshot::load(CachePath, CacheStatus)) {
      if (Snap->contentHash() == CacheKey) {
        counter("snapshot.cache-hits").inc();
        touchSnapshotEntry(CachePath); // a hit refreshes the LRU order
        traceInstant("snapshot.cache-hit");
        if (Opts.Stats)
          std::printf("snapshot cache: hit %s\n", CachePath.c_str());
        return serveFromSnapshot(Opts, *Snap);
      }
      // A key collision with a different content hash: fall through and
      // rebuild rather than serve the wrong program's answers.
      Snap.reset();
    }
    counter("snapshot.cache-misses").inc();
    traceInstant("snapshot.cache-miss");
    if (Opts.Stats)
      std::printf("snapshot cache: miss (%s)\n", CachePath.c_str());
  }

  DiagnosticEngine Diags;
  std::unique_ptr<Module> M = parseProgram(Source, Diags);
  if (!M) {
    std::fprintf(stderr, "%s", Diags.render().c_str());
    return 1;
  }

  DiagnosticEngine InferDiags;
  bool Typed = inferTypes(*M, InferDiags);
  if (!Typed)
    std::fprintf(stderr, "note: type inference failed (%s); "
                         "continuing untyped — termination is not "
                         "guaranteed by the paper, widening applies\n",
                 InferDiags.diagnostics().empty()
                     ? "?"
                     : InferDiags.diagnostics().front().Message.c_str());

  if (Opts.Print)
    std::printf("%s", printProgram(*M).c_str());

  if (Opts.Stats) {
    std::printf("program: %u exprs, %u binders, %u abstractions, %u "
                "constructors\n",
                M->numExprs(), M->numVars(), M->numLabels(), M->numCons());
    if (Typed) {
      TypeMetrics TM = computeTypeMetrics(*M);
      std::printf("types: max size %u, avg size %.2f (k_avg), max order "
                  "%u, max arity %u\n",
                  TM.MaxTypeSize, TM.AvgTypeSize, TM.MaxOrder, TM.MaxArity);
    }
  }

  // Flag parsing admitted only the listed values.
  SubtransitiveConfig GC;
  if (Opts.Congruence == "none")
    GC.Congruence = CongruenceMode::None;
  else if (Opts.Congruence == "bytype")
    GC.Congruence = CongruenceMode::ByType;
  else
    GC.Congruence = CongruenceMode::ByBaseAndType;
  if (Opts.Policy == "paper")
    GC.Policy = ClosurePolicy::PaperExact;
  else if (Opts.Policy == "nodeexists")
    GC.Policy = ClosurePolicy::NodeExists;
  else
    GC.Policy = ClosurePolicy::Undemanded;

  // One absolute deadline covers the whole pipeline (analysis, freeze,
  // queries): later stages see only whatever wall-clock remains.
  GC.MaxNodes = Opts.CloseBudget;
  Deadline D = Opts.TimeoutMs >= 0 ? Deadline::afterMillis(Opts.TimeoutMs)
                                   : Deadline::infinite();
  int ExitCode = 0;

  AnalysisResult R;
  Timer T;
  if (Opts.Analysis == "standard") {
    R.Std = std::make_unique<StandardCFA>(*M);
    Status S = R.Std->run(D);
    if (!S.isOk()) {
      std::fprintf(stderr, "error: standard analysis aborted: %s\n",
                   S.toString().c_str());
      return 3;
    }
  } else if (Opts.Analysis == "unify") {
    R.Uni = std::make_unique<UnificationCFA>(*M);
    R.Uni->run();
  } else if (Opts.Analysis == "poly") {
    R.Poly = std::make_unique<PolyvariantCFA>(*M, GC);
    R.Poly->run();
    if (R.Poly->graph().aborted()) {
      std::fprintf(stderr, "error: close aborted: %s\n",
                   R.Poly->graph().closeStatus().toString().c_str());
      return R.Poly->graph().closeStatus() == StatusCode::ResourceExhausted
                 ? 6
                 : 3;
    }
  } else if (Opts.Analysis == "hybrid") {
    HybridOptions HO;
    HO.BudgetFactor = 8;
    HO.Threads = Opts.Threads;
    HO.D = D;
    HO.Degrade = degradeModeNamed(Opts.Degrade);
    if (Opts.KernelThreshold >= 0)
      HO.KernelThreshold = static_cast<size_t>(Opts.KernelThreshold);
    R.Hybrid = std::make_unique<HybridCFA>(*M, HO);
    Status S = R.Hybrid->solve();
    if (Opts.Stats) {
      std::printf("hybrid engine: %s\n", engineName(R.Hybrid->engine()));
      std::printf("degradation report: %s\n",
                  R.Hybrid->report().toJson().c_str());
    }
    if (!S.isOk()) {
      std::fprintf(stderr, "error: hybrid analysis served no answer: %s\n",
                   S.toString().c_str());
      return S == StatusCode::ResourceExhausted ? 6 : 3;
    }
    if (Opts.governed()) {
      if (R.Hybrid->engine() == HybridCFA::Engine::Standard)
        ExitCode = 4;
      else if (R.Hybrid->engine() == HybridCFA::Engine::PartialAnswer)
        ExitCode = 5;
    }
  } else { // subtransitive
    R.Graph = std::make_unique<SubtransitiveGraph>(*M, GC);
    R.Graph->build();
    Status S = R.Graph->close(D);
    if (!S.isOk()) {
      std::fprintf(stderr, "error: close aborted: %s\n",
                   S.toString().c_str());
      return S == StatusCode::ResourceExhausted ? 6 : 3;
    }
  }
  R.AnalysisMs = T.millis();

  // Every graph analysis answers through a frozen CSR snapshot and the
  // (optionally parallel) query engine over it; the close above finished
  // cleanly, so the freeze cannot fail.  The hybrid analysis freezes
  // internally on subtransitive success.
  if (R.graph() && !R.Hybrid) {
    R.Snapshot = std::make_unique<FrozenGraph>(*R.graph());
    R.Engine = std::make_unique<QueryEngine>(*R.Snapshot, Opts.Threads);
    if (Opts.KernelThreshold >= 0)
      R.Engine->setKernelThreshold(static_cast<size_t>(Opts.KernelThreshold));
  }

  // `--save-snapshot` / the `--snapshot-cache` miss fill: persist the
  // fresh frozen graph (and its complete kernel matrix) for later warm
  // loads.  Flag validation admits both only for subtransitive/poly, so
  // R.Snapshot is set.
  if (!Opts.SaveSnapshot.empty() || (Opts.SnapshotCache && !CachePath.empty())) {
    const std::string &Dest =
        !Opts.SaveSnapshot.empty() ? Opts.SaveSnapshot : CachePath;
    uint64_t Key = Opts.SnapshotCache
                       ? CacheKey
                       : snapshotCacheKey(Source, snapshotConfigString(Opts));
    Status WS = Status::ok();
    if (Opts.SnapshotCache)
      WS = ensureSnapshotDir(snapshotCacheDir(Opts.SnapshotDir));
    if (WS.isOk())
      WS = writeSnapshotWithKernel(Dest, *R.Snapshot, *M, Key);
    if (!WS.isOk()) {
      std::fprintf(stderr, "error: %s\n", WS.toString().c_str());
      return 1;
    }
    if (Opts.SnapshotCache && Opts.SnapshotCacheMaxMb != 0) {
      size_t Evicted = enforceSnapshotCacheBudget(
          snapshotCacheDir(Opts.SnapshotDir),
          Opts.SnapshotCacheMaxMb << 20);
      if (Evicted != 0 && Opts.Stats)
        std::printf("snapshot cache: evicted %zu entr%s (cap %llu MiB)\n",
                    Evicted, Evicted == 1 ? "y" : "ies",
                    (unsigned long long)Opts.SnapshotCacheMaxMb);
    }
    if (Opts.Stats)
      std::printf("snapshot: wrote %s\n", Dest.c_str());
  }

  if (Opts.Stats) {
    std::printf("analysis: %s in %.3f ms\n", Opts.Analysis.c_str(),
                R.AnalysisMs);
    if (const SubtransitiveGraph *G = R.graph()) {
      const GraphStats &S = G->stats();
      std::printf("graph: build %llu nodes / %llu edges, close +%llu nodes "
                  "/ +%llu edges, %llu rule firings, %llu widenings\n",
                  (unsigned long long)S.BuildNodes,
                  (unsigned long long)S.BuildEdges,
                  (unsigned long long)S.CloseNodes,
                  (unsigned long long)S.CloseEdges,
                  (unsigned long long)S.CloseRuleFirings,
                  (unsigned long long)S.Widenings);
    }
    if (const FrozenGraph *F = R.frozen())
      std::printf("frozen: %u nodes / %llu edges compacted in %.3f ms, "
                  "%u query lane(s)\n",
                  F->numNodes(), (unsigned long long)F->numEdges(),
                  F->freezeMillis(),
                  R.engine() ? R.engine()->threads() : 1);
    if (R.Std)
      std::printf("standard: %llu propagations, %llu insertions, %llu "
                  "edges\n",
                  (unsigned long long)R.Std->stats().Propagations,
                  (unsigned long long)R.Std->stats().SetInsertions,
                  (unsigned long long)R.Std->stats().Edges);
    if (R.Uni)
      std::printf("unify: %llu unions, %u classes\n",
                  (unsigned long long)R.Uni->unions(), R.Uni->numClasses());
  }

  if (Opts.DumpGraph) {
    if (const SubtransitiveGraph *G = R.graph()) {
      for (uint32_t N = 0; N != G->numNodes(); ++N)
        for (NodeId S : G->succs(NodeId(N)))
          std::printf("%s -> %s\n", G->describe(NodeId(N)).c_str(),
                      G->describe(S).c_str());
    } else {
      std::fprintf(stderr, "error: --dump-graph requires a graph analysis\n");
      return 1;
    }
  }

  // `--lint`: run the checker passes over the frozen graph and render;
  // replaces the query path entirely (validated above).
  if (Opts.Lint) {
    LintEngine Lint(*M, *R.frozen());
    return runLint(Opts, Lint, D, "");
  }

  // `--slice` / `--dce` / `--export-deps`: the slice subsystem consumes
  // the frozen graph exactly like --lint, replacing the query path.
  if (Opts.sliceMode())
    return runSliceModes(Opts, *M, *R.frozen(), D, ExitCode);

  Timer QueryTimer;
  if (Opts.Query == "labels" || Opts.Query == "all-labels") {
    if (int RC = printLabelQuery(
            Opts, moduleNames(*M), M->numExprs(), M->root(), R.engine(),
            [&R](ExprId E) { return R.labels(E); }, D))
      ExitCode = RC;
  } else if (Opts.Query == "effects") {
    const FrozenGraph *F = R.frozen();
    if (!F) {
      std::fprintf(stderr, "error: effects needs a graph analysis\n");
      return 1;
    }
    EffectsAnalysis Eff(*M, *F);
    Eff.run();
    std::printf("%u side-effecting occurrences\n", Eff.numEffectful());
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      if (Eff.isEffectful(ExprId(I)))
        std::printf("  %s\n", describeExpr(*M, ExprId(I)).c_str());
  } else if (Opts.Query == "called-once") {
    const FrozenGraph *F = R.frozen();
    if (!F) {
      std::fprintf(stderr, "error: called-once needs a graph analysis\n");
      return 1;
    }
    CalledOnceAnalysis CO(*M, *F);
    CO.run();
    for (LabelId L : CO.calledOnce())
      std::printf("called once: %s at %s\n", describeLabel(*M, L).c_str(),
                  describeExpr(*M, CO.uniqueCallSite(L)).c_str());
  } else if (Opts.Query == "callgraph") {
    QueryEngine *E = R.engine();
    if (!E) {
      std::fprintf(stderr, "error: callgraph needs a graph analysis\n");
      return 1;
    }
    CallGraph CG(*M, *E);
    CG.run();
    for (uint32_t Caller = 0; Caller != CG.numCallers(); ++Caller) {
      if (CG.calleesOf(Caller).empty())
        continue;
      std::string Name = Caller == CG.rootIndex()
                             ? "<top-level>"
                             : describeLabel(*M, LabelId(Caller));
      std::printf("%s calls:", Name.c_str());
      CG.calleesOf(Caller).forEach([&](uint32_t L) {
        std::printf(" %s", describeLabel(*M, LabelId(L)).c_str());
      });
      std::printf("\n");
    }
    for (LabelId Dead : CG.deadFunctions())
      std::printf("dead: %s\n", describeLabel(*M, Dead).c_str());
  } else if (Opts.Query == "dead-code") {
    DeadCodeAwareCFA Dc(*M);
    Dc.run();
    uint32_t DeadExprs = 0;
    for (uint32_t I = 0; I != M->numExprs(); ++I)
      DeadExprs += !Dc.isLive(ExprId(I));
    std::printf("%u of %u occurrences are dead code\n", DeadExprs,
                M->numExprs());
    for (LabelId Dead : Dc.deadFunctions())
      std::printf("never called: %s\n", describeLabel(*M, Dead).c_str());
    // Cross-check against the frozen engine of a graph analysis: a
    // function the (over-approximating) subtransitive flow never calls must
    // also be dead under the liveness-gated analysis.
    if (QueryEngine *E = R.engine()) {
      CallGraph CG(*M, *E);
      CG.run();
      uint32_t Agree = 0, Mismatch = 0;
      for (LabelId L : CG.deadFunctions()) {
        bool Dead = false;
        for (LabelId D : Dc.deadFunctions())
          Dead |= D == L;
        (Dead ? Agree : Mismatch) += 1;
      }
      if (Mismatch)
        std::printf("engine cross-check: %u never-called function(s) NOT "
                    "dead-code-aware dead (unexpected)\n",
                    Mismatch);
      else
        std::printf("engine cross-check: %u never-called function(s) "
                    "confirmed dead\n",
                    Agree);
    }
  } else { // klimited:K
    const FrozenGraph *F = R.frozen();
    if (!F) {
      std::fprintf(stderr, "error: klimited needs a graph analysis\n");
      return 1;
    }
    KLimitedCFA KL(*M, *F, Opts.KLimit);
    KL.run();
    for (uint32_t I = 0; I != M->numExprs(); ++I) {
      const auto *A = dyn_cast<AppExpr>(M->expr(ExprId(I)));
      if (!A)
        continue;
      const LimitedSet &S = KL.ofCallSite(ExprId(I));
      std::string Callees;
      if (S.isMany()) {
        Callees = "many";
      } else {
        for (uint32_t L : S.ids())
          Callees += (Callees.empty() ? "" : ", ") +
                     describeLabel(*M, LabelId(L));
        if (Callees.empty())
          Callees = "none";
      }
      std::printf("%-18s calls: %s\n", describeExpr(*M, ExprId(I)).c_str(),
                  Callees.c_str());
    }
  }
  if (Opts.Stats)
    std::printf("queries: %.3f ms\n", QueryTimer.millis());

  if (Opts.Run) {
    InterpreterResult Run = interpret(*M, 50000000);
    for (const std::string &Line : Run.Output)
      std::printf("output: %s\n", Line.c_str());
    if (Run.Completed)
      std::printf("result: %s (in %llu steps)\n", Run.FinalValue.c_str(),
                  (unsigned long long)Run.Steps);
    else
      std::printf("aborted: %s\n", Run.Abort.c_str());
  }

  return ExitCode;
}
