//===-- perfbench/ServeEdit.cpp - The serve_edit workload -----------------===//
///
/// \file
/// Writes beside reads on one daemon: one client with one request
/// outstanding repeats a seeded cycle of one type-preserving `edit`
/// (mostly `replace`, some `insert`/`delete`/`rename`), three point
/// queries, one `lint` and one `slice`.  Every edit publishes a delta
/// epoch, so each cycle's `lint`/`slice` pays the lazy full pipeline and
/// the dependence-graph build.
///
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Gen.h"
#include "Serve.h"

#include "delta/DeltaSession.h"
#include "lint/LintEngine.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "serve/Protocol.h"
#include "slice/DependenceGraph.h"
#include "slice/Slicer.h"
#include "support/Diagnostics.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <thread>

using namespace perfbench;
using namespace stcfa;
using serve::JsonValue;

namespace {

constexpr int Defs = 700;
constexpr int QueriesPerCycle = 3;
/// Cycles per round.  Edit latency grows with the edits one session has
/// applied, so each round reloads the program (untimed) and replays the
/// same seeded cycles: every round does the same work, whatever the
/// number of rounds a run fits.  A round (about 2 s today) is the window
/// of the quiet-quartile estimators.
constexpr size_t RoundCycles = 100;
/// A traced run replays its cycles in-process afterwards; one short
/// round keeps that within the run's time.
constexpr size_t TracedCycles = 60;
// One request is outstanding, so a second worker could never run; the
// daemon's default single worker (no thread pools) serves the cycle.
constexpr unsigned DaemonThreads = 1;

/// One cycle's requests and what came back.
struct Cycle {
  std::string Source; ///< the model's spliced source after the edit
  std::string EditReply;
  double EditMs = 0;
  std::vector<QueryOp> Queries;
  std::vector<std::string> QueryReplies;
  std::vector<double> QueryMs;
  std::string LintReply, SliceReply;
  double LintMs = 0, SliceMs = 0;
  uint32_t SliceTarget = 0;
};

/// The request stream: the model, its edits and the per-cycle reads all
/// come from one seeded generator, so a replay regenerates it exactly.
class Stream {
public:
  explicit Stream(uint64_t Seed) : Model(Seed, Defs), R(rngFor(Seed, 4)) {}

  std::string initialSource() const { return Model.source(); }

  /// The next `edit` request line; the model now holds the edited text.
  std::string nextEdit(std::string &Op) {
    std::string Params = Model.randomEdit(R, Op);
    return "{\"id\":" + std::to_string(++Id) +
           ",\"verb\":\"edit\",\"params\":" + Params + "}";
  }
  std::string source() const { return Model.source(); }
  QueryOp nextQuery(uint32_t Exprs, uint32_t Labels) {
    return randomPointQuery(R, Exprs, Labels);
  }
  uint32_t nextSliceTarget(uint32_t Exprs) { return uint32_t(R() % Exprs); }
  uint64_t nextId() { return ++Id; }

private:
  WebProgram Model;
  std::mt19937_64 R;
  uint64_t Id = 100;
};

std::string lintRequest(uint64_t Id) {
  return "{\"id\":" + std::to_string(Id) + ",\"verb\":\"lint\"}";
}
std::string sliceRequest(uint64_t Id, uint32_t Target) {
  return "{\"id\":" + std::to_string(Id) +
         ",\"verb\":\"slice\",\"params\":{\"expr\":" + std::to_string(Target) +
         ",\"dir\":\"back\"}}";
}

double timedCall(Daemon &D, const std::string &Line, std::string &Reply) {
  const int64_t T0 = nowNs();
  if (!D.call(Line, Reply))
    Reply.clear();
  return msSince(T0);
}

/// Loads the program afresh and sends the first edit, which builds the
/// daemon's edit session (a one-time lazy cost per load); \p S restarts.
/// Returns false if either reply is not a success.
bool loadAndWarm(Daemon &D, std::unique_ptr<Stream> &S, const Options &O) {
  S = std::make_unique<Stream>(O.Seed);
  std::string LoadReply, WarmReply, Op;
  if (!D.call(loadRequest(1, S->initialSource()), LoadReply) ||
      !D.call(S->nextEdit(Op), WarmReply))
    LoadReply.clear();
  if (resultInt(LoadReply, "exprs") > 0 && resultInt(WarmReply, "exprs") > 0)
    return true;
  std::fprintf(stderr, "perfbench: load or first edit failed: %.200s\n",
               (LoadReply + WarmReply).c_str());
  return false;
}

/// Runs \p N cycles; \p WallS is the time they took.
std::vector<Cycle> runCycles(Daemon &D, Stream &S, size_t N, double &WallS,
                             std::map<std::string, int> &OpMix) {
  std::vector<Cycle> Out;
  const int64_t T0 = nowNs();
  while (Out.size() < N) {
    Cycle C;
    std::string Op;
    const std::string EditLine = S.nextEdit(Op);
    ++OpMix[Op];
    C.EditMs = timedCall(D, EditLine, C.EditReply);
    C.Source = S.source();
    const int64_t Exprs = resultInt(C.EditReply, "exprs");
    const int64_t Labels = resultInt(C.EditReply, "labels");
    if (Exprs > 0 && Labels > 0) {
      for (int Q = 0; Q != QueriesPerCycle; ++Q) {
        C.Queries.push_back(S.nextQuery(uint32_t(Exprs), uint32_t(Labels)));
        std::string Reply;
        C.QueryMs.push_back(
            timedCall(D, queryRequest(S.nextId(), C.Queries.back()), Reply));
        C.QueryReplies.push_back(std::move(Reply));
      }
      C.LintMs = timedCall(D, lintRequest(S.nextId()), C.LintReply);
      C.SliceTarget = S.nextSliceTarget(uint32_t(Exprs));
      C.SliceMs = timedCall(D, sliceRequest(S.nextId(), C.SliceTarget),
                            C.SliceReply);
    }
    Out.push_back(std::move(C));
  }
  WallS = msSince(T0) / 1e3;
  return Out;
}

/// Checks every reply of one cycle; returns the number of failed ops and
/// the first reason in \p Why.
uint64_t checkCycle(const Cycle &C, std::string &Why) {
  uint64_t Failed = 0;
  auto fail = [&](const std::string &Reason) {
    if (Failed++ == 0)
      Why = Reason;
  };
  JsonValue Doc;
  std::string Err;
  const JsonValue *Res = nullptr;
  if (serve::parseJson(C.EditReply, Doc).isOk())
    Res = okResult(Doc, Err);
  Truth T;
  if (!Res || !T.compute(C.Source) ||
      resultInt(C.EditReply, "exprs") != T.numExprs()) {
    fail("edit: " + (Err.empty() ? C.EditReply.substr(0, 200) : Err));
    // Every op the cycle sent fails with its edit.
    return Failed + C.Queries.size() + (C.Queries.empty() ? 0 : 2);
  }
  for (size_t Q = 0; Q != C.Queries.size(); ++Q) {
    JsonValue QD;
    const JsonValue *QR = nullptr;
    Err = "unparsable query reply";
    if (serve::parseJson(C.QueryReplies[Q], QD).isOk())
      QR = okResult(QD, Err);
    if (QR)
      Err = checkQueryReply(*QR, C.Queries[Q].Kind, C.Queries[Q].Expr,
                            C.Queries[Q].Label, T);
    if (!QR || !Err.empty())
      fail("query " + C.Queries[Q].Kind + ": " + Err);
  }
  if (C.Queries.empty())
    return Failed;
  FreshLoad F;
  if (!F.compute(C.Source)) {
    fail("fresh load of the spliced source failed");
    return Failed + 1;
  }
  JsonValue LD, SD;
  const JsonValue *LR = nullptr, *SR = nullptr;
  Err = "unparsable lint reply";
  if (serve::parseJson(C.LintReply, LD).isOk())
    LR = okResult(LD, Err);
  if (!LR || lintRowsOfReply(*LR) != F.lintRows())
    fail("lint: " + (LR ? std::string("findings differ") : Err));
  Err = "unparsable slice reply";
  if (serve::parseJson(C.SliceReply, SD).isOk())
    SR = okResult(SD, Err);
  std::vector<uint32_t> Members;
  if (SR)
    if (const JsonValue *Es = SR->field("exprs"); Es && Es->isArray())
      for (const JsonValue &X : Es->items())
        Members.push_back(uint32_t(X.asInt()));
  if (!SR || Members != F.sliceMembers(C.SliceTarget))
    fail("slice: " + (SR ? std::string("members differ") : Err));
  return Failed;
}

/// Checks every cycle, spread over the machine's cores (the daemon has
/// exited by then); returns the number of failed ops.
uint64_t checkCycles(const std::vector<Cycle> &Cs, Result &R) {
  std::vector<uint64_t> Failed(Cs.size(), 0);
  std::vector<std::string> Why(Cs.size());
  std::atomic<size_t> Next{0};
  std::vector<std::thread> Pool;
  const unsigned N = std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  for (unsigned I = 0; I != N; ++I)
    Pool.emplace_back([&] {
      for (size_t C = Next++; C < Cs.size(); C = Next++)
        Failed[C] = checkCycle(Cs[C], Why[C]);
    });
  for (std::thread &T : Pool)
    T.join();
  uint64_t Total = 0;
  for (size_t C = 0; C != Cs.size(); ++C) {
    if (Failed[C] && Total < 5)
      R.note("MISMATCH cycle " + std::to_string(C) + ": " + Why[C]);
    Total += Failed[C];
  }
  return Total;
}

EditRequest editOf(const JsonValue &Params) {
  auto str = [&](const char *K) {
    const JsonValue *V = Params.field(K);
    return V && V->isString() ? V->asString() : std::string();
  };
  EditRequest E;
  const std::string Op = str("op");
  E.Kind = Op == "insert"   ? EditRequest::Op::Insert
           : Op == "delete" ? EditRequest::Op::Delete
           : Op == "rename" ? EditRequest::Op::Rename
                            : EditRequest::Op::Replace;
  E.Name = str("name");
  E.Text = str("text");
  E.Before = str("before");
  E.NewName = str("new_name");
  return E;
}

/// The pipeline a full load (or a delta epoch's lazy lint/slice
/// substrate) runs, each layer under a span.
struct Pipeline {
  std::unique_ptr<Module> M;
  std::unique_ptr<HybridCFA> H;
};
Pipeline runPipeline(Tracer &T, const std::string &Source) {
  Pipeline P;
  {
    Tracer::Scope S(T, "parser");
    DiagnosticEngine Diags;
    P.M = parseProgram(Source, Diags);
  }
  {
    Tracer::Scope S(T, "sema");
    DiagnosticEngine Diags;
    (void)inferTypes(*P.M, Diags);
  }
  HybridOptions HO;
  HO.Threads = DaemonThreads;
  P.H = std::make_unique<HybridCFA>(*P.M, HO);
  Tracer::Scope S(T, "analysis.solve");
  (void)P.H->solve();
  return P;
}

serve::ServeRequest parseRequest(Tracer &T, const std::string &Line) {
  Tracer::Scope S(T, "serve.request_parse");
  JsonValue Doc;
  serve::ServeRequest Req;
  if (!serve::parseJson(Line, Doc).isOk() ||
      !serve::validateRequest(std::move(Doc), Req).isOk())
    std::abort(); // the benchmark generated it
  return Req;
}

/// Traced replay of the cycles the daemon served, through the calls the
/// daemon makes, plus the lazy-pipeline probe on the real `Epoch`.
void replayCycles(const Options &O, const std::vector<Cycle> &Cs,
                  const std::vector<double> &AllMs, Result &R) {
  Tracer T;
  Stream S(O.Seed);
  DeltaSession::Options DO;
  DO.Threads = DaemonThreads;
  Status CS = Status::ok();
  std::unique_ptr<DeltaSession> Sess;
  {
    Tracer::Scope Sp(T, "delta.session_create");
    Sess = DeltaSession::create(S.initialSource(), DO, CS);
  }
  uint64_t Edits = 0, Incremental = 0, Dirty = 0, Findings = 0, Members = 0,
           Lints = 0, Slices = 0, Parses = 0, ParsedExprs = 0;
  double DepEdgesPerExpr = 0;
  uint64_t EpochId = 1;
  std::string WarmOp;
  auto applyEdit = [&](const std::string &Line,
                       std::shared_ptr<serve::Epoch> &E, Pipeline &Live) {
    T.beginOp();
    Tracer::Scope Op(T, "op");
    serve::ServeRequest Req = parseRequest(T, Line);
    EditRequest ER = editOf(*Req.Params);
    ApplyResult Res;
    {
      Tracer::Scope Sp(T, "delta.apply");
      (void)Sess->apply(ER, Res);
    }
    ++Edits;
    Dirty += Res.DirtyNodes;
    const char *Mode = "full-pipeline";
    if (Res.NeedsFullPipeline) {
      Live = runPipeline(T, Sess->currentSource());
      ++Parses;
      ParsedExprs += Live.M->numExprs();
      Tracer::Scope Sp(T, "serve.epoch_install");
      E = std::make_shared<serve::Epoch>(++EpochId, std::move(Live.M),
                                         std::move(Live.H));
    } else {
      Incremental += Res.M == ApplyResult::Mode::Delta ||
                     Res.M == ApplyResult::Mode::Metadata;
      Mode = Res.M == ApplyResult::Mode::Metadata      ? "metadata"
             : Res.M == ApplyResult::Mode::FullRebuild ? "full-rebuild"
                                                       : "delta";
      DeltaView V;
      {
        Tracer::Scope Sp(T, "delta.freeze_view");
        (void)Sess->freezeView(V);
      }
      Tracer::Scope Sp(T, "serve.epoch_install");
      E = std::make_shared<serve::Epoch>(++EpochId, std::move(V),
                                         Sess->currentSource(), DaemonThreads,
                                         QueryEngine::DefaultKernelThreshold);
    }
    // The reply the daemon's `edit` handler renders, field for field.
    Tracer::Scope Sp(T, "serve.reply_render");
    JsonValue Result = JsonValue::object();
    Result.set("epoch", JsonValue::number(int64_t(E->id())));
    Result.set("engine", JsonValue::string(E->engine()));
    Result.set("mode", JsonValue::string(Mode));
    Result.set("dirty_nodes", JsonValue::number(int64_t(Res.DirtyNodes)));
    Result.set("reclose_edges", JsonValue::number(int64_t(Res.RecloseEdges)));
    Result.set("exprs", JsonValue::number(int64_t(E->numExprs())));
    Result.set("labels", JsonValue::number(int64_t(E->numLabels())));
    (void)serve::renderOkReply(Req.Id, Result);
  };

  std::shared_ptr<serve::Epoch> E;
  Pipeline Live;
  // The set-up's warm-up edit, untimed, as the daemon saw it.
  {
    std::string Line = S.nextEdit(WarmOp);
    applyEdit(Line, E, Live);
    Edits = Incremental = Dirty = 0;
  }
  T = Tracer(); // session creation and the warm-up edit are set-up

  std::vector<double> FirstLint, RepeatLint;
  double PointBytes = 0;
  uint64_t PointOps = 0;
  for (const Cycle &C : Cs) {
    std::string Op;
    applyEdit(S.nextEdit(Op), E, Live);
    const uint32_t Exprs = E->numExprs(), Labels = E->numLabels();
    if (C.Queries.empty())
      continue;
    for (int Q = 0; Q != QueriesPerCycle; ++Q) {
      QueryOp QO = S.nextQuery(Exprs, Labels);
      PointBytes += double(replayQuery(T, *E, QO, queryRequest(S.nextId(), QO)));
      ++PointOps;
    }

    // `Epoch::lint` and `Epoch::slice` are unfolded here into the calls
    // they make (the lazy pipeline, `LintEngine::run`,
    // `DependenceGraph::build`, `Slicer`), so that each of those layers
    // gets its own span without a span inside src/.  The probe after the
    // slice times the real `Epoch::lint`.
    //
    // lint: on a delta epoch the daemon first builds the lazy pipeline
    // over the spliced source, then runs the passes.
    Pipeline Lazy;
    const bool IsDelta = std::string(E->engine()) == "delta";
    {
      T.beginOp();
      Tracer::Scope Op(T, "op");
      serve::ServeRequest Req = parseRequest(T, lintRequest(S.nextId()));
      if (IsDelta) {
        Lazy = runPipeline(T, Sess->currentSource());
        ++Parses;
        ParsedExprs += Lazy.M->numExprs();
      }
      const Module &LM = IsDelta ? *Lazy.M : E->module();
      const FrozenGraph &LF = *(IsDelta ? Lazy.H->frozen() : E->frozen());
      LintResult LR;
      {
        Tracer::Scope Sp(T, "lint.run");
        LintOptions LO;
        LO.Threads = DaemonThreads;
        LintEngine Lint(LM, LF);
        LR = Lint.run(LO);
      }
      // The reply the daemon's `lint` handler renders, field for field.
      Tracer::Scope Sp(T, "serve.reply_render");
      JsonValue Fs = JsonValue::array();
      for (const LintPassReport &Rep : LR.Reports)
        for (const LintDiagnostic &D : Rep.Findings) {
          JsonValue F = JsonValue::object();
          F.set("pass", JsonValue::string(D.RuleId));
          F.set("severity", JsonValue::string(lintSeverityName(D.Severity)));
          F.set("message", JsonValue::string(D.Message));
          F.set("line", JsonValue::number(int64_t(D.Range.Begin.Line)));
          F.set("col", JsonValue::number(int64_t(D.Range.Begin.Col)));
          Fs.push(std::move(F));
          ++Findings;
        }
      JsonValue Result = JsonValue::object();
      Result.set("epoch", JsonValue::number(int64_t(E->id())));
      Result.set("engine", JsonValue::string(E->engine()));
      Result.set("findings", std::move(Fs));
      Result.set("errors", JsonValue::number(int64_t(LR.NumErrors)));
      Result.set("warnings", JsonValue::number(int64_t(LR.NumWarnings)));
      Result.set("notes", JsonValue::number(int64_t(LR.NumNotes)));
      Result.set("partial", JsonValue::boolean(LR.anyPartial()));
      (void)serve::renderOkReply(Req.Id, Result);
      ++Lints;
    }

    // slice: same substrate (the epoch caches it); the dependence graph
    // is built on first demand.
    {
      T.beginOp();
      Tracer::Scope Op(T, "op");
      const Module &LM = IsDelta ? *Lazy.M : E->module();
      const FrozenGraph &LF = *(IsDelta ? Lazy.H->frozen() : E->frozen());
      const uint32_t Target = S.nextSliceTarget(Exprs);
      serve::ServeRequest Req =
          parseRequest(T, sliceRequest(S.nextId(), Target));
      std::unique_ptr<DependenceGraph> DG;
      {
        Tracer::Scope Sp(T, "slice.dg_build");
        Status BS = Status::ok();
        DG = DependenceGraph::build(LM, LF, BS);
      }
      SliceResult SRes;
      {
        Tracer::Scope Sp(T, "slice.query");
        Slicer Sl(*DG);
        SRes = Sl.sliceFrom(ExprId(Target));
      }
      // The reply the daemon's `slice` handler renders, field for field.
      Tracer::Scope Sp(T, "serve.reply_render");
      JsonValue Xs = JsonValue::array();
      for (ExprId X : SRes.Exprs)
        Xs.push(JsonValue::number(int64_t(X.index())));
      JsonValue Result = JsonValue::object();
      Result.set("epoch", JsonValue::number(int64_t(E->id())));
      Result.set("engine", JsonValue::string(E->engine()));
      Result.set("target", JsonValue::number(int64_t(Target)));
      Result.set("dir", JsonValue::string("back"));
      Result.set("exprs", std::move(Xs));
      Result.set("partial", JsonValue::boolean(SRes.Partial));
      (void)serve::renderOkReply(Req.Id, Result);
      Members += SRes.Exprs.size();
      DepEdgesPerExpr += double(DG->numEdges()) / LM.numExprs();
      ++Slices;
    }

    // Probe beside the ops: the real epoch's first lint (lazy pipeline
    // plus passes) against a repeat on the same epoch.
    LintResult LR;
    {
      Tracer::Scope Sp(T, "serve.epoch_lint_first");
      (void)E->lint({}, Deadline::infinite(), DaemonThreads, LR);
      FirstLint.push_back(Sp.close());
    }
    {
      Tracer::Scope Sp(T, "serve.epoch_lint_repeat");
      (void)E->lint({}, Deadline::infinite(), DaemonThreads, LR);
      RepeatLint.push_back(Sp.close());
    }
  }

  std::map<std::string, Tracer::Agg> A = T.aggregate();
  auto perCall = [&](const char *Name) {
    const Tracer::Agg &G = A[Name];
    return G.Calls ? G.SelfMs / double(G.Calls) : 0.0;
  };
  std::vector<double> PointMs;
  for (const Cycle &C : Cs)
    PointMs.insert(PointMs.end(), C.QueryMs.begin(), C.QueryMs.end());
  std::map<std::string, double> V;
  V["parser.ms"] = perCall("parser");
  V["parser.exprs"] = Parses ? double(ParsedExprs) / Parses : 0;
  V["sema.ms"] = perCall("sema");
  V["analysis.solve_ms"] = perCall("analysis.solve");
  V["delta.apply_ms"] = perCall("delta.apply");
  V["delta.freeze_view_ms"] = perCall("delta.freeze_view");
  V["delta.dirty_nodes"] = Edits ? double(Dirty) / Edits : 0;
  V["delta.incremental_ratio"] = Edits ? double(Incremental) / Edits : 0;
  V["delta.lazy_pipeline_ms"] = mean(FirstLint) - mean(RepeatLint);
  V["lint.run_ms"] = perCall("lint.run");
  V["lint.findings"] = Lints ? double(Findings) / Lints : 0;
  V["slice.dg_build_ms"] = perCall("slice.dg_build");
  V["slice.dep_edges_per_expr"] = Slices ? DepEdgesPerExpr / Slices : 0;
  V["slice.query_ms"] = perCall("slice.query");
  V["slice.members"] = Slices ? double(Members) / Slices : 0;
  V["serve.request_parse_us"] = perCall("serve.request_parse") * 1e3;
  V["serve.execute_us"] = perCall("serve.execute") * 1e3;
  V["serve.reply_render_us"] = perCall("serve.reply_render") * 1e3;
  V["serve.reply_bytes"] = PointOps ? PointBytes / PointOps : 0;
  V["serve.transport_us"] = mean(PointMs) * 1e3 -
                            V["serve.request_parse_us"] -
                            V["serve.execute_us"] - V["serve.reply_render_us"];
  reportSpans(R, T, O, mean(AllMs), AllMs.size(), V);
  addLayerMetrics(R, V);
}

} // namespace

Result perfbench::runServeEdit(const Options &O) {
  Result R;

  // Set-up: start a daemon, load the program, and send the first edit.
  // Repeated; median reported; the last daemon serves the run.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  std::unique_ptr<Stream> S;
  bool Loaded = false;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    if (D)
      D->shutdown();
    const int64_t T0 = nowNs();
    D = std::make_unique<Daemon>(O.Stcfa, DaemonThreads);
    Loaded = loadAndWarm(*D, S, O);
    SetupS.push_back(msSince(T0) / 1e3);
  }

  // Whole rounds until the time is up; a traced run makes one short one.
  std::vector<Cycle> Cs;
  std::vector<double> RoundRate, RoundP50, RoundP90;
  std::map<std::string, int> OpMix;
  double RssMb = 0;
  double WallS = 0;
  const int64_t T0 = nowNs();
  while (Loaded) {
    double RoundS = 0;
    std::vector<Cycle> Round = runCycles(
        *D, *S, O.Trace ? TracedCycles : RoundCycles, RoundS, OpMix);
    WallS += RoundS;
    std::vector<double> Edit;
    size_t Ops = 0;
    for (Cycle &C : Round) {
      Edit.push_back(C.EditMs);
      Ops += 1 + C.QueryMs.size() + (C.Queries.empty() ? 0 : 2);
      Cs.push_back(std::move(C));
    }
    RoundRate.push_back(double(Ops) / RoundS);
    RoundP50.push_back(quantile(Edit, 0.5));
    RoundP90.push_back(quantile(Edit, 0.9));
    // The high-water mark after one round: it grows with the edits one
    // session has applied, which a reload starts over.
    if (RssMb == 0)
      RssMb = peakRssMb(D->pid());
    if (O.Trace || msSince(T0) >= O.Seconds * 1e3)
      break;
    Loaded = loadAndWarm(*D, S, O);
  }
  const bool CleanExit = D->shutdown();
  if (!Loaded)
    std::exit(2);

  std::vector<double> EditMs, QueryMs, LintMs, SliceMs, AllMs;
  std::map<std::string, int> Modes;
  for (const Cycle &C : Cs) {
    EditMs.push_back(C.EditMs);
    QueryMs.insert(QueryMs.end(), C.QueryMs.begin(), C.QueryMs.end());
    if (!C.Queries.empty()) {
      LintMs.push_back(C.LintMs);
      SliceMs.push_back(C.SliceMs);
    }
    size_t M = C.EditReply.find("\"mode\":\"");
    ++Modes[M == std::string::npos
                ? "error"
                : C.EditReply.substr(M + 8, C.EditReply.find('"', M + 8) - M - 8)];
  }
  AllMs = EditMs;
  AllMs.insert(AllMs.end(), QueryMs.begin(), QueryMs.end());
  AllMs.insert(AllMs.end(), LintMs.begin(), LintMs.end());
  AllMs.insert(AllMs.end(), SliceMs.begin(), SliceMs.end());
  R.Attempted = AllMs.size();
  R.Failed = checkCycles(Cs, R) + !CleanExit;

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "serve_edit: %zu rounds of %zu cycles, %d defs at load",
                RoundRate.size(), Cs.size() / RoundRate.size(), Defs);
  std::string Mix = "edit ops:";
  for (const auto &[Op, N] : OpMix)
    Mix += " " + Op + "=" + std::to_string(N);
  Mix += "; modes:";
  for (const auto &[Mode, N] : Modes)
    Mix += " " + Mode + "=" + std::to_string(N);
  R.note(Buf);
  R.note(Mix);
  R.note("edit_ms: " + describeLatency(EditMs));
  R.note("query_ms: " + describeLatency(QueryMs));
  R.note("lint_ms: " + describeLatency(LintMs));
  R.note("slice_ms: " + describeLatency(SliceMs));

  if (O.Trace) {
    replayCycles(O, Cs, AllMs, R);
    return R;
  }
  R.add("setup_s", median(SetupS), "s");
  std::snprintf(Buf, sizeof(Buf),
                "whole-run: ops_per_s %.1f  edit p50 %.4f ms  p90 %.4f ms",
                double(AllMs.size()) / WallS, quantile(EditMs, 0.5),
                quantile(EditMs, 0.9));
  R.note(Buf);
  R.add("ops_per_s", quietRate(RoundRate), "1/s");
  R.add("op_ms_p50", quietLatency(RoundP50), "ms");
  R.add("op_ms_p90", quietLatency(RoundP90), "ms");
  R.add("peak_rss_mb", RssMb, "MB");
  return R;
}
