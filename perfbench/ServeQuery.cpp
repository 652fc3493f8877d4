//===-- perfbench/ServeQuery.cpp - The serve_query workload ---------------===//
///
/// \file
/// The IDE read path: one `stcfa --serve --threads=2` daemon, one client
/// thread keeping 4 requests outstanding, a seeded stream of point
/// queries plus a fixed 2% share of `all-labels`.  Build and close run
/// only in set-up (the `load`).
///
//===----------------------------------------------------------------------===//

#include "Check.h"
#include "Gen.h"
#include "Serve.h"

#include "parser/Parser.h"
#include "sema/Infer.h"
#include "serve/Protocol.h"
#include "support/Diagnostics.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <thread>

using namespace perfbench;
using namespace stcfa;
using serve::JsonValue;

namespace {

constexpr int Defs = 1200; // ~9k expressions
constexpr unsigned Outstanding = 4;
constexpr uint64_t AllLabelsEvery = 50;
/// Windows of the quiet-quartile estimators: about 1 s each in a 20 s run.
constexpr size_t Windows = 20;

/// The seeded request stream: request \p Index of the run.
QueryOp streamOp(std::mt19937_64 &R, uint64_t Index, uint32_t Exprs,
                 uint32_t Labels) {
  if (Index % AllLabelsEvery == AllLabelsEvery / 2)
    return {"all-labels", 0, 0};
  return randomPointQuery(R, Exprs, Labels);
}

struct Done {
  QueryOp Q;
  double AtMs = 0; ///< completion, from the start of the loop
  double Ms = 0;
  std::string Reply; ///< empty for an all-labels reply equal to the first
};

/// The closed loop: keeps `Outstanding` requests in flight until
/// \p Seconds pass (or \p MaxOps are sent), then drains.
std::vector<Done> closedLoop(Daemon &D, uint64_t Seed, uint32_t Exprs,
                             uint32_t Labels, double Seconds, uint64_t MaxOps,
                             std::string &FirstAllLabels, uint64_t &Mismatch,
                             double &WallS) {
  std::mt19937_64 R = rngFor(Seed, 2);
  struct InFlight {
    QueryOp Q;
    int64_t SentNs;
  };
  std::map<uint64_t, InFlight> Pending;
  std::vector<Done> Out;
  uint64_t NextId = 1000;
  const int64_t T0 = nowNs();
  auto sendNext = [&] {
    QueryOp Q = streamOp(R, NextId - 1000, Exprs, Labels);
    Pending[NextId] = {Q, nowNs()};
    D.send(queryRequest(NextId, Q));
    ++NextId;
  };
  for (unsigned I = 0; I != Outstanding; ++I)
    sendNext();
  std::string Line;
  while (!Pending.empty() && D.recv(Line)) {
    const int64_t Now = nowNs();
    auto It = Pending.find(replyId(Line));
    if (It == Pending.end()) {
      ++Mismatch; // a reply we cannot correlate
      continue;
    }
    Done Dn{It->second.Q, (Now - T0) / 1e6, (Now - It->second.SentNs) / 1e6,
            {}};
    Pending.erase(It);
    if (msSince(T0) < Seconds * 1e3 && NextId - 1000 < MaxOps)
      sendNext();
    if (Dn.Q.Kind != "all-labels") {
      Dn.Reply = std::move(Line);
    } else {
      // Deterministic answer: keep the first in full (checked against the
      // oracle later), compare the rest past their id.
      const size_t Cut = Line.find(',');
      if (FirstAllLabels.empty())
        FirstAllLabels = Line;
      else if (Line.compare(Cut, std::string::npos, FirstAllLabels,
                            FirstAllLabels.find(','), std::string::npos) != 0)
        ++Mismatch;
    }
    Out.push_back(std::move(Dn));
  }
  Mismatch += Pending.size(); // replies that never came
  WallS = msSince(T0) / 1e3;
  return Out;
}

/// Starts a daemon and loads \p Source; returns the load reply.
std::unique_ptr<Daemon> startLoaded(const Options &O, const std::string &Source,
                                    std::string &Reply) {
  auto D = std::make_unique<Daemon>(O.Stcfa, 2);
  if (!D->call(loadRequest(1, Source), Reply))
    Reply.clear();
  return D;
}

/// Per-call time of `Epoch::labelsOf` with \p Threads concurrent callers.
double epochCallUs(serve::Epoch &E, const std::vector<uint32_t> &Exprs,
                   unsigned Threads) {
  std::vector<double> PerThreadUs(Threads, 0);
  std::vector<std::thread> Ts;
  for (unsigned T = 0; T != Threads; ++T)
    Ts.emplace_back([&, T] {
      DenseBitset Out;
      const int64_t T0 = nowNs();
      for (uint32_t X : Exprs)
        (void)E.labelsOf(ExprId(X), Deadline::infinite(), Out);
      PerThreadUs[T] = (nowNs() - T0) / 1e3 / double(Exprs.size());
    });
  for (std::thread &T : Ts)
    T.join();
  return mean(PerThreadUs);
}

} // namespace

QueryOp perfbench::randomPointQuery(std::mt19937_64 &R, uint32_t Exprs,
                                    uint32_t Labels) {
  const unsigned Roll = R() % 10;
  QueryOp Q;
  Q.Kind = Roll < 4 ? "labels" : Roll < 7 ? "is-label-in" : "occurrences";
  Q.Expr = uint32_t(R() % Exprs);
  Q.Label = uint32_t(R() % Labels);
  return Q;
}

std::string perfbench::queryRequest(uint64_t Id, const QueryOp &Q) {
  std::string P = "{\"kind\":\"" + Q.Kind + "\"";
  if (Q.Kind == "labels" || Q.Kind == "is-label-in")
    P += ",\"expr\":" + std::to_string(Q.Expr);
  if (Q.Kind == "is-label-in" || Q.Kind == "occurrences")
    P += ",\"label\":" + std::to_string(Q.Label);
  return "{\"id\":" + std::to_string(Id) +
         ",\"verb\":\"query\",\"params\":" + P + "}}";
}

uint64_t perfbench::replyId(const std::string &Reply) {
  static const char Prefix[] = "{\"id\":";
  if (Reply.compare(0, sizeof(Prefix) - 1, Prefix) != 0)
    return ~0ull;
  const char *P = Reply.c_str() + sizeof(Prefix) - 1;
  if (*P < '0' || *P > '9')
    return ~0ull;
  return std::strtoull(P, nullptr, 10);
}

int64_t perfbench::resultInt(const std::string &Reply, const char *Name) {
  std::string Key = std::string("\"") + Name + "\":";
  size_t At = Reply.find(Key);
  if (At == std::string::npos)
    return -1;
  return std::strtoll(Reply.c_str() + At + Key.size(), nullptr, 10);
}

size_t perfbench::replayQuery(Tracer &T, serve::Epoch &E, const QueryOp &Q,
                              const std::string &Line) {
  const bool All = Q.Kind == "all-labels";
  T.beginOp();
  Tracer::Scope Op(T, "op");
  serve::ServeRequest Req;
  {
    Tracer::Scope S(T, "serve.request_parse");
    JsonValue Doc;
    if (!serve::parseJson(Line, Doc).isOk() ||
        !serve::validateRequest(std::move(Doc), Req).isOk())
      std::abort(); // the benchmark generated it
  }
  DenseBitset Set;
  bool Value = false;
  std::vector<ExprId> Occ;
  std::vector<DenseBitset> Sets;
  std::vector<char> DoneRows;
  {
    Tracer::Scope S(T, All ? "serve.all_labels_execute" : "serve.execute");
    const Deadline D = Deadline::infinite();
    if (Q.Kind == "labels")
      (void)E.labelsOf(ExprId(Q.Expr), D, Set);
    else if (Q.Kind == "is-label-in")
      (void)E.isLabelIn(ExprId(Q.Expr), LabelId(Q.Label), D, Value);
    else if (Q.Kind == "occurrences")
      (void)E.occurrencesOf(LabelId(Q.Label), D, Occ);
    else
      (void)E.allLabels(D, Sets, DoneRows);
  }
  Tracer::Scope S(T, All ? "serve.all_labels_render" : "serve.reply_render");
  auto labelArray = [](const DenseBitset &B) {
    JsonValue A = JsonValue::array();
    B.forEach([&](uint32_t L) { A.push(JsonValue::number(int64_t(L))); });
    return A;
  };
  JsonValue Result = JsonValue::object();
  Result.set("epoch", JsonValue::number(int64_t(E.id())));
  Result.set("engine", JsonValue::string(E.engine()));
  if (Q.Kind == "labels") {
    Result.set("labels", labelArray(Set));
  } else if (Q.Kind == "is-label-in") {
    Result.set("value", JsonValue::boolean(Value));
  } else if (Q.Kind == "occurrences") {
    JsonValue A = JsonValue::array();
    for (ExprId X : Occ)
      A.push(JsonValue::number(int64_t(X.index())));
    Result.set("exprs", std::move(A));
  } else {
    JsonValue A = JsonValue::array();
    for (uint32_t I = 0; I != Sets.size(); ++I) {
      if (!DoneRows[I] || Sets[I].empty())
        continue;
      JsonValue Row = JsonValue::object();
      Row.set("expr", JsonValue::number(int64_t(I)));
      Row.set("labels", labelArray(Sets[I]));
      A.push(std::move(Row));
    }
    Result.set("sets", std::move(A));
  }
  return serve::renderOkReply(Req.Id, Result).size();
}

Result perfbench::runServeQuery(const Options &O) {
  Result R;
  const std::string Source = WebProgram(O.Seed, Defs).source();

  // Set-up: start a daemon and load the program; repeated, median
  // reported, the last daemon serves the run.
  std::vector<double> SetupS;
  std::unique_ptr<Daemon> D;
  std::string LoadReply;
  for (int Rep = 0; Rep != SetupReps; ++Rep) {
    if (D)
      D->shutdown();
    const int64_t T0 = nowNs();
    D = startLoaded(O, Source, LoadReply);
    SetupS.push_back(msSince(T0) / 1e3);
  }

  // Oracle, outside set-up.
  Truth T;
  if (!T.compute(Source) || resultInt(LoadReply, "exprs") != T.numExprs()) {
    std::fprintf(stderr, "perfbench: load failed or disagrees with the "
                         "oracle: %.200s\n",
                 LoadReply.c_str());
    D.reset(); // kills and reaps the daemon
    std::exit(2);
  }
  const uint32_t Exprs = T.numExprs(), Labels = T.M->numLabels();

  // A traced run replays every request in-process afterwards, so it
  // caps the stream; counts then repeat exactly for a seed.
  std::string FirstAll;
  uint64_t Mismatch = 0;
  double WallS = 0;
  const uint64_t MaxOps = O.Trace ? 4000 : ~0ull;
  std::vector<Done> Ops = closedLoop(*D, O.Seed, Exprs, Labels, O.Seconds,
                                     MaxOps, FirstAll, Mismatch, WallS);
  const double RssMb = peakRssMb(D->pid());
  if (!D->shutdown())
    ++Mismatch;

  // Checks, after the loop.
  R.Attempted = Ops.size() + Mismatch;
  R.Failed = Mismatch;
  std::vector<double> PointMs, AllMs;
  Timeline PointTL, EveryTL;
  for (Done &Dn : Ops) {
    EveryTL.add(Dn.AtMs, Dn.Ms);
    if (Dn.Q.Kind == "all-labels") {
      AllMs.push_back(Dn.Ms);
      continue; // equal to the first all-labels reply, checked below
    }
    PointMs.push_back(Dn.Ms);
    PointTL.add(Dn.AtMs, Dn.Ms);
    JsonValue Doc;
    std::string Why = "unparsable reply";
    const JsonValue *Res = nullptr;
    if (serve::parseJson(Dn.Reply, Doc).isOk())
      Res = okResult(Doc, Why);
    if (Res)
      Why = checkQueryReply(*Res, Dn.Q.Kind, Dn.Q.Expr, Dn.Q.Label, T);
    if (!Res || !Why.empty()) {
      if (R.Failed < 5)
        R.note("MISMATCH " + Dn.Q.Kind + ": " + Why);
      ++R.Failed;
    }
  }
  if (!FirstAll.empty()) {
    JsonValue Doc;
    std::string Why = "unparsable all-labels reply";
    const JsonValue *Res = nullptr;
    if (serve::parseJson(FirstAll, Doc).isOk())
      Res = okResult(Doc, Why);
    if (Res)
      Why = checkQueryReply(*Res, "all-labels", 0, 0, T);
    if (!Why.empty()) {
      R.note("MISMATCH all-labels: " + Why);
      R.Failed += AllMs.size();
    }
  }

  char Buf[256];
  std::snprintf(Buf, sizeof(Buf),
                "serve_query: %u exprs, %u labels, %zu requests (%zu "
                "all-labels), all-labels reply %.2f MB",
                Exprs, Labels, Ops.size(), AllMs.size(), FirstAll.size() / 1e6);
  R.note(Buf);
  R.note("query_ms (point round trip): " + describeLatency(PointMs));
  R.note("all_labels_ms: " + describeLatency(AllMs));

  if (!O.Trace) {
    std::snprintf(Buf, sizeof(Buf),
                  "whole-run: ops_per_s %.1f  query p50 %.4f ms  p90 %.4f ms",
                  double(Ops.size()) / WallS, quantile(PointMs, 0.5),
                  quantile(PointMs, 0.9));
    R.note(Buf);
    R.add("setup_s", median(SetupS), "s");
    R.add("ops_per_s", quietRate(EveryTL.windowRates(Windows)), "1/s");
    R.add("op_ms_p50", quietLatency(PointTL.windowQuantiles(Windows, 0.5)),
          "ms");
    R.add("op_ms_p90", quietLatency(PointTL.windowQuantiles(Windows, 0.9)),
          "ms");
    R.add("peak_rss_mb", RssMb, "MB");
    return R;
  }

  // Traced: the same load and the same request stream replayed
  // in-process through the layers the daemon calls.
  Tracer Tr;
  std::unique_ptr<Module> M;
  {
    Tracer::Scope S(Tr, "parser");
    DiagnosticEngine Diags;
    M = parseProgram(Source, Diags);
  }
  {
    Tracer::Scope S(Tr, "sema");
    DiagnosticEngine Diags;
    (void)inferTypes(*M, Diags);
  }
  HybridOptions HO;
  HO.Threads = 2;
  auto H = std::make_unique<HybridCFA>(*M, HO);
  {
    Tracer::Scope S(Tr, "analysis.solve");
    (void)H->solve();
  }
  const FrozenGraph &F = *H->frozen();
  serve::Epoch E(1, std::move(M), std::move(H));

  std::mt19937_64 Rng = rngFor(O.Seed, 2);
  double PointBytes = 0;
  for (uint64_t I = 0; I != Ops.size(); ++I) {
    QueryOp Q = streamOp(Rng, I, Exprs, Labels);
    size_t Bytes = replayQuery(Tr, E, Q, queryRequest(1000 + I, Q));
    if (Q.Kind != "all-labels")
      PointBytes += double(Bytes);
  }

  // Probes beside the ops: the bare point BFS under the epoch query, and
  // what Epoch::Mu costs two concurrent callers.
  QueryEngine QE(F, 1);
  std::mt19937_64 ProbeRng = rngFor(O.Seed, 3);
  std::vector<uint32_t> ProbeExprs;
  for (int I = 0; I != 4000; ++I)
    ProbeExprs.push_back(uint32_t(ProbeRng() % Exprs));
  {
    Tracer::Scope S(Tr, "core.point_query");
    for (uint32_t X : ProbeExprs)
      (void)QE.labelsOf(ExprId(X));
  }
  const double Visited = double(QE.nodesVisited()) / ProbeExprs.size();
  const double OneUs = epochCallUs(E, ProbeExprs, 1);
  const double TwoUs = epochCallUs(E, ProbeExprs, 2);

  std::map<std::string, Tracer::Agg> A = Tr.aggregate();
  const double NPoint = double(PointMs.size()), NAll = double(AllMs.size());
  std::map<std::string, double> V;
  V["parser.ms"] = A["parser"].SelfMs;
  V["parser.exprs"] = Exprs;
  V["sema.ms"] = A["sema"].SelfMs;
  V["analysis.solve_ms"] = A["analysis.solve"].SelfMs;
  V["core.point_query_us"] =
      A["core.point_query"].SelfMs * 1e3 / ProbeExprs.size();
  V["core.nodes_visited"] = Visited;
  V["serve.request_parse_us"] = A["serve.request_parse"].SelfMs * 1e3 /
                                double(Ops.size());
  V["serve.execute_us"] = A["serve.execute"].SelfMs * 1e3 / NPoint;
  V["serve.reply_render_us"] = A["serve.reply_render"].SelfMs * 1e3 / NPoint;
  V["serve.reply_bytes"] = PointBytes / NPoint;
  V["serve.transport_us"] = mean(PointMs) * 1e3 -
                            V["serve.request_parse_us"] -
                            V["serve.execute_us"] - V["serve.reply_render_us"];
  if (NAll > 0) {
    V["serve.all_labels_execute_ms"] =
        A["serve.all_labels_execute"].SelfMs / NAll;
    V["serve.all_labels_render_ms"] = A["serve.all_labels_render"].SelfMs / NAll;
  }
  V["serve.epoch_contention_ratio"] = TwoUs / OneUs;
  std::snprintf(Buf, sizeof(Buf),
                "Epoch::labelsOf per call: %.3f us with 1 caller, %.3f us "
                "with 2 concurrent callers",
                OneUs, TwoUs);
  R.note(Buf);
  std::vector<double> AllOpMs = PointMs;
  AllOpMs.insert(AllOpMs.end(), AllMs.begin(), AllMs.end());
  reportSpans(R, Tr, O, mean(AllOpMs), Ops.size(), V);
  addLayerMetrics(R, V);
  return R;
}
