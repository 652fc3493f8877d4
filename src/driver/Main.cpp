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
#include "serve/Epoch.h"
#include "serve/Server.h"
#include "snapshot/Snapshot.h"
#include "support/Metrics.h"
#include "support/OutWriter.h"
#include "support/ParseNumber.h"
#include "support/Timer.h"
#include "support/Trace.h"
#include "unify/UnificationCFA.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream> // the one tool entry point reads stdin
#include <iterator>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>

using namespace stcfa;

namespace {

/// Largest `--threads` value: the daemon spawns one worker per thread up
/// front, so the flag must not be able to ask for thousands.
constexpr unsigned MaxServeThreads = 256;

struct Options {
  std::string InputFile;
  std::string Corpus;
  std::string Analysis = "subtransitive";
  std::string Query = "labels";
  /// K of `--query=klimited:K`, checked while parsing flags.
  uint32_t KLimit = 0;
  std::string Congruence = "bytype";
  std::string Policy = "paper";
  /// `--threads=<n>`: the `--serve` worker count (rejected without it).
  unsigned Threads = 1;
  bool ThreadsGiven = false;
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
      "                         and the label-set kernel's rows) to an\n"
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
      "  --threads=<n>          --serve worker threads (at most 256;\n"
      "                         default 1); every query and lint run\n"
      "                         stays on the thread that asks for it\n"
      "  --trace-json=<file>    write stage spans as a Chrome-tracing /\n"
      "                         Perfetto JSON array (docs/OBSERVABILITY.md)\n"
      "  --metrics-json=<file>  write the process metrics snapshot\n"
      "  --stats                print program/type/graph statistics\n"
      "  --print                pretty-print the parsed program\n"
      "  --dump-graph           print every subtransitive edge\n"
      "  --run                  interpret the program\n"
      "exit codes (3-6 only under --timeout-ms/--close-budget/--degrade):\n"
      "  0  success             1  input or output error\n"
      "  2  usage/flag error\n"
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

/// How query output names occurrences and labels: through the live
/// `Module`, where each label goes through `describeLabel` once per run,
/// on first use, or through a loaded snapshot's persisted name tables.
class Names {
public:
  explicit Names(const Module &M) : M(&M), LabelNames(M.numLabels()) {}
  explicit Names(const LoadedSnapshot &Snap) : Snap(&Snap) {}

  std::string_view label(uint32_t L) {
    if (Snap)
      return Snap->labelName(L);
    std::string &Name = LabelNames[L]; // never empty once rendered
    if (Name.empty())
      Name = describeLabel(*M, LabelId(L));
    return Name;
  }
  std::string_view label(LabelId L) { return label(L.index()); }
  /// Valid until the next call.
  std::string_view expr(ExprId E) {
    if (Snap)
      return Snap->exprName(E.index());
    ExprName = describeExpr(*M, E);
    return ExprName;
  }

private:
  const Module *M = nullptr;
  const LoadedSnapshot *Snap = nullptr;
  std::vector<std::string> LabelNames;
  std::string ExprName;
};

/// The canonical configuration string hashed into the snapshot cache key:
/// every option that shapes the frozen tables, nothing that doesn't.
std::string snapshotConfigString(const Options &O) {
  return "analysis=" + O.Analysis + ";congruence=" + O.Congruence +
         ";policy=" + O.Policy;
}

/// The query engines' kernel threshold the flags ask for.
size_t kernelThreshold(const Options &Opts) {
  return Opts.KernelThreshold >= 0 ? static_cast<size_t>(Opts.KernelThreshold)
                                   : QueryEngine::DefaultKernelThreshold;
}

/// `--query=labels|all-labels`, answered by \p E on every path.  `labels`
/// writes the root's set; `all-labels` answers every occurrence as one
/// interned batch, governed by \p D, and writes the non-empty sets to
/// \p Out, each distinct set's text rendered once.  Returns 3 when the
/// batch stopped early, else 0.
int printLabelQuery(const Options &Opts, Names &N, OutWriter &Out,
                    serve::Epoch &E, Deadline D) {
  const bool RootOnly = Opts.Query == "labels";
  const uint32_t NumExprs = E.numExprs();
  InternedLabelSets Sets(E.numLabels(), 1);
  Status S = Status::ok();
  if (RootOnly) {
    DenseBitset Root; // a point query: the deadline governs batches only
    (void)E.labelsOf(E.root(), Deadline::infinite(), Root);
    Sets.set(0, Root);
  } else {
    S = E.allLabels(D, Sets);
  }
  {
    Span RenderSpan("render");
    auto LabelName = [&N](uint32_t L) { return N.label(L); };
    const LabelRowPool &Pool = Sets.pool();
    RenderOnce Rows(Pool.size());
    auto SetLine = [&](uint32_t Id) {
      return Rows.text(Id, [&](OutWriter &T) {
        writeLabelSet(T, Pool.set(Id), LabelName);
        T.put('\n');
      });
    };
    uint64_t Lines = 0;
    if (RootOnly) {
      Out.put("L(root) = ");
      Out.put(SetLine(Sets.RowOf[0]));
      Lines = 1;
    }
    for (uint32_t I = 0; !RootOnly && I != NumExprs; ++I) {
      if (const uint32_t Id = Sets.RowOf[I]; Id != 0) {
        writeLabelSetLine(Out, N.expr(ExprId(I)), SetLine(Id));
        ++Lines;
      } // row 0: empty, or left unanswered by the governor
    }
    Out.flush();
    RenderSpan.arg("bytes", Out.bytes());
    RenderSpan.arg("lines", Lines);
    RenderSpan.arg("distinct_rows", Rows.rendered());
  }
  if (S.isOk())
    return 0;
  std::fprintf(stderr, "note: batch stopped early: %s (%llu of %u answered)\n",
               S.toString().c_str(),
               (unsigned long long)std::count(Sets.Done.begin(),
                                              Sets.Done.end(), 1),
               NumExprs);
  return 3;
}

/// Ends the driver's query tail: \p Out's last bytes and stdout's own
/// buffer go to the file.  A failed write anywhere in the tail — the
/// writer's or a `printf`'s — wins over every other outcome: exit 1.
int finishOutput(OutWriter &Out, int ExitCode) {
  if (Out.finish())
    return ExitCode;
  std::fprintf(stderr, "error: writing output: %s\n",
               std::strerror(Out.error()));
  return 1;
}

/// The `--lint` tail: run the passes over \p E, render the report, and
/// map it to an exit code.
int runLint(const Options &Opts, serve::Epoch &E, Deadline D,
            const char *Over) {
  Timer LintTimer;
  LintResult LR;
  if (Status S = E.lint(Opts.LintPasses, D, LR); !S.isOk()) {
    std::fprintf(stderr, "error: %s\n", S.toString().c_str());
    return 1;
  }
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
/// exclusive, validated up front), over \p E's dependence graph.
int runSliceModes(const Options &Opts, serve::Epoch &E, Deadline D,
                  int ExitCode) {
  const DependenceGraph *DG = nullptr;
  if (Status BuildStatus = E.dependenceGraph(D, DG); !BuildStatus.isOk()) {
    std::fprintf(stderr, "error: dependence-graph build failed: %s\n",
                 BuildStatus.toString().c_str());
    return Opts.governed() &&
                   (BuildStatus == StatusCode::DeadlineExceeded ||
                    BuildStatus == StatusCode::Cancelled)
               ? 3
               : 1;
  }
  const Module &M = DG->module();
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
    DceResult DR = runDce(M, DG->frozen(), *DG, DCO);
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
  const SliceDirection Dir = Opts.SliceDir == "fwd" ? SliceDirection::Forward
                                                    : SliceDirection::Backward;
  Timer SliceTimer;
  serve::Epoch::SliceReply SR;
  if (Status S = E.slice(Target, Dir, /*Witness=*/true, D, SR); !S.isOk()) {
    std::fprintf(stderr, "error: slice failed: %s\n", S.toString().c_str());
    return 1;
  }
  std::printf("slice %s from %s: %u occurrence(s)%s\n",
              sliceDirectionName(Dir), describeExpr(M, Target).c_str(),
              (unsigned)SR.Members.size(), SR.Partial ? " (partial)" : "");
  const Slicer S(*DG);
  for (const std::vector<WitnessStep> &Steps : SR.Witnesses) {
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
                 SR.Stop.toString().c_str());
    if (Opts.governed())
      return 3;
  }
  return ExitCode;
}

/// The deadline of a run's work after its front half: `--timeout-ms`
/// from now, or none.
Deadline runDeadline(const Options &Opts) {
  return Opts.TimeoutMs >= 0 ? Deadline::afterMillis(Opts.TimeoutMs)
                             : Deadline::infinite();
}

/// The live pipeline behind a run with no snapshot to serve: parse,
/// infer and analyse \p Source, then build the run's epoch over what the
/// analysis left — a frozen graph, or the graph-free analyses' table.
/// `--print`, `--stats`, `--save-snapshot`, the fill of \p CacheSlot and
/// `--dump-graph` happen on the way, and \p D starts before the
/// analysis.  Returns the exit status so far, with the epoch in \p Out,
/// or (\p Out left null) the status of a run that ends here.
int runLivePipeline(const Options &Opts, const std::string &Source,
                    const SnapshotCacheSlot &CacheSlot, Deadline &D,
                    std::unique_ptr<serve::Epoch> &Out) {
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
  D = runDeadline(Opts);
  int ExitCode = 0;

  // The analysis that ran; `--stats` and `--dump-graph` report on it.
  std::unique_ptr<StandardCFA> Std;
  std::unique_ptr<UnificationCFA> Uni;
  std::unique_ptr<SubtransitiveGraph> Sub;
  std::unique_ptr<PolyvariantCFA> Poly;
  std::unique_ptr<HybridCFA> Hybrid;
  Timer T;
  if (Opts.Analysis == "standard") {
    Std = std::make_unique<StandardCFA>(*M);
    Status S = Std->run(D);
    if (!S.isOk()) {
      std::fprintf(stderr, "error: standard analysis aborted: %s\n",
                   S.toString().c_str());
      return 3;
    }
  } else if (Opts.Analysis == "unify") {
    Uni = std::make_unique<UnificationCFA>(*M);
    Uni->run();
  } else if (Opts.Analysis == "poly") {
    Poly = std::make_unique<PolyvariantCFA>(*M, GC);
    Poly->run();
    if (Poly->graph().aborted()) {
      std::fprintf(stderr, "error: close aborted: %s\n",
                   Poly->graph().closeStatus().toString().c_str());
      return Poly->graph().closeStatus() == StatusCode::ResourceExhausted
                 ? 6
                 : 3;
    }
  } else if (Opts.Analysis == "hybrid") {
    HybridOptions HO;
    HO.BudgetFactor = 8;
    HO.D = D;
    HO.Degrade = degradeModeNamed(Opts.Degrade);
    HO.KernelThreshold = kernelThreshold(Opts);
    Hybrid = std::make_unique<HybridCFA>(*M, HO);
    Status S = Hybrid->solve();
    if (Opts.Stats) {
      std::printf("hybrid engine: %s\n", engineName(Hybrid->engine()));
      std::printf("degradation report: %s\n",
                  Hybrid->report().toJson().c_str());
    }
    if (!S.isOk()) {
      std::fprintf(stderr, "error: hybrid analysis served no answer: %s\n",
                   S.toString().c_str());
      return S == StatusCode::ResourceExhausted ? 6 : 3;
    }
    if (Opts.governed()) {
      if (Hybrid->engine() == HybridCFA::Engine::Standard)
        ExitCode = 4;
      else if (Hybrid->engine() == HybridCFA::Engine::PartialAnswer)
        ExitCode = 5;
    }
  } else { // subtransitive
    Sub = std::make_unique<SubtransitiveGraph>(*M, GC);
    Sub->build();
    Status S = Sub->close(D);
    if (!S.isOk()) {
      std::fprintf(stderr, "error: close aborted: %s\n",
                   S.toString().c_str());
      return S == StatusCode::ResourceExhausted ? 6 : 3;
    }
  }
  const double AnalysisMs = T.millis();

  // The run's epoch: a graph analysis hands over its frozen CSR snapshot
  // (the close above finished cleanly, so the freeze cannot fail; the
  // hybrid froze internally), the graph-free ones fill its table.  A
  // hybrid epoch keeps its ladder, and so `Graph`, when it has a graph.
  const SubtransitiveGraph *Graph = Sub    ? Sub.get()
                                    : Poly   ? &Poly->graph()
                                    : Hybrid ? Hybrid->graph()
                                             : nullptr;
  std::unique_ptr<serve::Epoch> E;
  if (Hybrid)
    E = std::make_unique<serve::Epoch>(1, std::move(M), std::move(Hybrid));
  else if (Graph)
    E = std::make_unique<serve::Epoch>(1, std::move(M),
                                       std::make_unique<FrozenGraph>(*Graph),
                                       kernelThreshold(Opts));
  else if (Std)
    E = std::make_unique<serve::Epoch>(
        1, std::move(M), "standard",
        [&Std](ExprId X) { return Std->labelSet(X); });
  else
    E = std::make_unique<serve::Epoch>(
        1, std::move(M), "unify",
        [&Uni](ExprId X) { return Uni->labelSet(X); });
  const FrozenGraph *Frozen = E->frozen();

  // `--save-snapshot` / the `--snapshot-cache` miss fill: persist the
  // fresh frozen graph (and its complete kernel's rows) for later warm
  // loads.  Flag validation admits both only for subtransitive/poly, so
  // the epoch is frozen.
  if (!Opts.SaveSnapshot.empty() || Opts.SnapshotCache) {
    Status WS = Status::ok();
    size_t Evicted = 0;
    if (Opts.SnapshotCache)
      WS = fillSnapshotCache(CacheSlot, *Frozen, E->module(),
                             Opts.SnapshotCacheMaxMb << 20, Evicted);
    else
      WS = writeSnapshotWithKernel(
          Opts.SaveSnapshot, *Frozen, E->module(),
          snapshotCacheKey(Source, snapshotConfigString(Opts)));
    if (!WS.isOk()) {
      std::fprintf(stderr, "error: %s\n", WS.toString().c_str());
      return 1;
    }
    if (Evicted != 0 && Opts.Stats)
      std::printf("snapshot cache: evicted %zu entr%s (cap %llu MiB)\n",
                  Evicted, Evicted == 1 ? "y" : "ies",
                  (unsigned long long)Opts.SnapshotCacheMaxMb);
    if (Opts.Stats)
      std::printf("snapshot: wrote %s\n", Opts.SnapshotCache
                                              ? CacheSlot.Path.c_str()
                                              : Opts.SaveSnapshot.c_str());
  }

  if (Opts.Stats) {
    std::printf("analysis: %s in %.3f ms\n", Opts.Analysis.c_str(),
                AnalysisMs);
    if (Graph) {
      const GraphStats &S = Graph->stats();
      std::printf("graph: build %llu nodes / %llu edges, close +%llu nodes "
                  "/ +%llu edges, %llu rule firings, %llu widenings\n",
                  (unsigned long long)S.BuildNodes,
                  (unsigned long long)S.BuildEdges,
                  (unsigned long long)S.CloseNodes,
                  (unsigned long long)S.CloseEdges,
                  (unsigned long long)S.CloseRuleFirings,
                  (unsigned long long)S.Widenings);
    }
    if (Frozen)
      std::printf("frozen: %u nodes / %llu edges compacted in %.3f ms\n",
                  Frozen->numNodes(), (unsigned long long)Frozen->numEdges(),
                  Frozen->freezeMillis());
    if (Std)
      std::printf("standard: %llu propagations, %llu insertions, %llu "
                  "edges\n",
                  (unsigned long long)Std->stats().Propagations,
                  (unsigned long long)Std->stats().SetInsertions,
                  (unsigned long long)Std->stats().Edges);
    if (Uni)
      std::printf("unify: %llu unions, %u classes\n",
                  (unsigned long long)Uni->unions(), Uni->numClasses());
  }

  if (Opts.DumpGraph) {
    if (Graph) {
      for (uint32_t N = 0; N != Graph->numNodes(); ++N)
        for (NodeId S : Graph->succs(NodeId(N)))
          std::printf("%s -> %s\n", Graph->describe(NodeId(N)).c_str(),
                      Graph->describe(S).c_str());
    } else {
      std::fprintf(stderr, "error: --dump-graph requires a graph analysis\n");
      return 1;
    }
  }

  Out = std::move(E);
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
      if (!numericFlag(A, Opts.Threads, 0u, MaxServeThreads))
        return 2;
      Opts.ThreadsGiven = true;
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
      if (!numericFlag<int64_t>(A, Opts.TimeoutMs, 0, Deadline::MaxMillis))
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
  if (Opts.ThreadsGiven && !Opts.Serve) {
    std::fprintf(stderr, "error: --threads sizes the --serve worker pool; "
                         "without --serve every query and lint run on the "
                         "calling thread\n");
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

  // One epoch answers the run: mapped from `--load-snapshot` or a cache
  // hit (named through the snapshot's own tables), or built by the live
  // pipeline.
  std::unique_ptr<serve::Epoch> E;
  // ...and is never freed: the process is about to exit, and tearing the
  // module, frozen graph and kernel down node by node buys nothing.  The
  // static keeps the epoch reachable, so leak checkers stay quiet.
  struct KeepAtExit {
    std::unique_ptr<serve::Epoch> &E;
    ~KeepAtExit() {
      [[maybe_unused]] static serve::Epoch *volatile Kept;
      Kept = E.release();
    }
  } Keep{E};
  const LoadedSnapshot *Tables = nullptr;
  Deadline D;
  int ExitCode = 0;
  if (!Opts.LoadSnapshot.empty()) {
    // The whole front half of the pipeline — read, parse, infer, build,
    // close, freeze — is replaced by one mmap.
    Status LoadStatus = Status::ok();
    std::unique_ptr<LoadedSnapshot> Snap =
        LoadedSnapshot::load(Opts.LoadSnapshot, LoadStatus);
    if (!Snap) {
      std::fprintf(stderr, "error: %s\n", LoadStatus.toString().c_str());
      return 1;
    }
    // When an input was named alongside the snapshot, verify the header's
    // content hash against it — a stale snapshot must never silently
    // answer for edited source.  (Stdin is not drained for this.)  Lint
    // and the slice modes parse that verified text: flag validation
    // guaranteed an input was named for them.
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
    Tables = Snap.get();
    E = std::make_unique<serve::Epoch>(1, std::move(Snap),
                                       std::move(VerifiedSource),
                                       kernelThreshold(Opts));
  } else {
    bool Ok = true;
    std::string Source = loadInput(Opts, Ok);
    if (!Ok)
      return 1;
    // `--snapshot-cache`: content-addressed reuse.  A hit serves straight
    // from the mapped file (no parse); a miss runs the live pipeline,
    // which fills the cache after the freeze.
    SnapshotCacheSlot CacheSlot;
    if (Opts.SnapshotCache) {
      if (std::unique_ptr<LoadedSnapshot> Snap = lookupSnapshotCache(
              Opts.SnapshotDir, Source, snapshotConfigString(Opts),
              CacheSlot)) {
        if (Opts.Stats)
          std::printf("snapshot cache: hit %s\n", CacheSlot.Path.c_str());
        Tables = Snap.get();
        E = std::make_unique<serve::Epoch>(1, std::move(Snap),
                                           std::move(Source),
                                           kernelThreshold(Opts));
      } else if (Opts.Stats) {
        std::printf("snapshot cache: miss (%s)\n", CacheSlot.Path.c_str());
      }
    }
    if (!E) {
      ExitCode = runLivePipeline(Opts, Source, CacheSlot, D, E);
      if (!E)
        return ExitCode;
    }
  }
  if (Tables)
    D = runDeadline(Opts);

  // `--lint` and `--slice` / `--dce` / `--export-deps` replace the query
  // path entirely (validated above).
  if (Opts.Lint)
    return runLint(Opts, *E, D, Tables ? " over snapshot" : "");
  if (Opts.sliceMode())
    return runSliceModes(Opts, *E, D, ExitCode);
  if (Tables && Opts.Stats)
    std::printf("snapshot: %u nodes / %llu edges served zero-copy, kernel "
                "rows %s\n",
                E->frozen()->numNodes(),
                (unsigned long long)E->frozen()->numEdges(),
                Tables->hasKernelRows() ? "adopted" : "absent");

  // The query tail writes through one writer and one name table; the
  // stats and --run lines below follow it on the same stdout.  Flag
  // validation admits only the label queries over a snapshot; the
  // driver-only verbs read the live epoch's module and frozen graph.
  const FrozenGraph *Frozen = E->frozen();
  if (!Frozen && Opts.Query != "labels" && Opts.Query != "all-labels" &&
      Opts.Query != "dead-code") {
    std::fprintf(stderr, "error: %s needs a graph analysis\n",
                 Opts.Query.substr(0, Opts.Query.find(':')).c_str());
    return 1;
  }
  Timer QueryTimer;
  Names N = Tables ? Names(*Tables) : Names(E->module());
  OutWriter Out(stdout);
  if (Opts.Query == "labels" || Opts.Query == "all-labels") {
    if (int RC = printLabelQuery(Opts, N, Out, *E, D))
      ExitCode = RC;
  } else if (Opts.Query == "effects") {
    EffectsAnalysis Eff(E->module(), *Frozen);
    Eff.run();
    Out.write(Eff.numEffectful(), " side-effecting occurrences\n");
    for (uint32_t I = 0; I != E->module().numExprs(); ++I)
      if (Eff.isEffectful(ExprId(I)))
        Out.write("  ", N.expr(ExprId(I)), '\n');
  } else if (Opts.Query == "called-once") {
    CalledOnceAnalysis CO(E->module(), *Frozen);
    CO.run();
    for (LabelId L : CO.calledOnce())
      Out.write("called once: ", N.label(L), " at ",
                N.expr(CO.uniqueCallSite(L)), '\n');
  } else if (Opts.Query == "callgraph") {
    QueryEngine QE(*Frozen);
    QE.setKernelThreshold(kernelThreshold(Opts));
    CallGraph CG(E->module(), QE);
    CG.run();
    for (uint32_t Caller = 0; Caller != CG.numCallers(); ++Caller) {
      if (CG.calleesOf(Caller).empty())
        continue;
      Out.write(Caller == CG.rootIndex() ? std::string_view("<top-level>")
                                         : N.label(Caller),
                " calls:");
      CG.calleesOf(Caller).forEach(
          [&](uint32_t L) { Out.write(' ', N.label(L)); });
      Out.put('\n');
    }
    for (LabelId Dead : CG.deadFunctions())
      Out.write("dead: ", N.label(Dead), '\n');
  } else if (Opts.Query == "dead-code") {
    DeadCodeAwareCFA Dc(E->module());
    Dc.run();
    uint32_t DeadExprs = 0;
    for (uint32_t I = 0; I != E->module().numExprs(); ++I)
      DeadExprs += !Dc.isLive(ExprId(I));
    Out.write(DeadExprs, " of ", E->module().numExprs(),
              " occurrences are dead code\n");
    for (LabelId Dead : Dc.deadFunctions())
      Out.write("never called: ", N.label(Dead), '\n');
    // Cross-check against the frozen graph of a graph analysis: a
    // function the (over-approximating) subtransitive flow never calls must
    // also be dead under the liveness-gated analysis.
    if (Frozen) {
      QueryEngine QE(*Frozen);
      QE.setKernelThreshold(kernelThreshold(Opts));
      CallGraph CG(E->module(), QE);
      CG.run();
      uint32_t Agree = 0, Mismatch = 0;
      for (LabelId L : CG.deadFunctions()) {
        bool Dead = false;
        for (LabelId D : Dc.deadFunctions())
          Dead |= D == L;
        (Dead ? Agree : Mismatch) += 1;
      }
      if (Mismatch)
        Out.write("engine cross-check: ", Mismatch,
                  " never-called function(s) NOT dead-code-aware dead "
                  "(unexpected)\n");
      else
        Out.write("engine cross-check: ", Agree,
                  " never-called function(s) confirmed dead\n");
    }
  } else { // klimited:K
    KLimitedCFA KL(E->module(), *Frozen, Opts.KLimit);
    KL.run();
    for (uint32_t I = 0; I != E->module().numExprs(); ++I) {
      const auto *A = dyn_cast<AppExpr>(E->module().expr(ExprId(I)));
      if (!A)
        continue;
      const LimitedSet &S = KL.ofCallSite(ExprId(I));
      Out.putPadded(N.expr(ExprId(I)), 18);
      Out.put(" calls: ");
      if (S.isMany())
        Out.put("many");
      else if (S.ids().empty())
        Out.put("none");
      else
        for (size_t J = 0; J != S.ids().size(); ++J)
          Out.write(J != 0 ? ", " : "", N.label(S.ids()[J]));
      Out.put('\n');
    }
  }
  Out.flush();
  if (Opts.Stats)
    std::printf("queries: %.3f ms\n", QueryTimer.millis());

  if (Opts.Run) {
    InterpreterResult Run = interpret(E->module(), 50000000);
    for (const std::string &Line : Run.Output)
      std::printf("output: %s\n", Line.c_str());
    if (Run.Completed)
      std::printf("result: %s (in %llu steps)\n", Run.FinalValue.c_str(),
                  (unsigned long long)Run.Steps);
    else
      std::printf("aborted: %s\n", Run.Abort.c_str());
  }

  return finishOutput(Out, ExitCode);
}
