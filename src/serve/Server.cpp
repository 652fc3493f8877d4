//===-- serve/Server.cpp - The stcfa analysis daemon ----------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "serve/Server.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/OutWriter.h"
#include "support/Timer.h"

#include <cerrno>
#include <cstdio>
#include <unistd.h>

using namespace stcfa;
using namespace stcfa::serve;

namespace {

/// The daemon's snapshot-cache configuration string.  Loads always run
/// the hybrid ladder, so daemon keys never collide with batch-mode keys
/// (which only cache the subtransitive/poly analyses).
constexpr const char *ServeCacheConfig =
    "analysis=hybrid;congruence=bytype;policy=paper";

void writeAll(int Fd, const char *Data, size_t Len) {
  while (Len != 0) {
    ssize_t N = ::write(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return; // a dead pipe: nothing sensible left to do with the reply
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
}

/// Writes the JSON array `[0,1,...,N-1]`: the universal answer of a
/// degraded query.
void writeIdRange(OutWriter &W, uint32_t N) {
  W.put('[');
  for (uint32_t I = 0; I != N; ++I)
    W.write(I != 0 ? "," : "", I);
  W.put(']');
}

/// Writes the members of \p Set as a JSON array of ids.
void writeIdArray(OutWriter &W, const DenseBitset &Set) {
  W.put('[');
  bool First = true;
  Set.forEach([&](uint32_t Id) {
    W.write(First ? "" : ",", Id);
    First = false;
  });
  W.put(']');
}

/// Writes \p S as a quoted, escaped JSON string; \p Scratch is reused
/// across calls.
void writeJsonString(OutWriter &W, std::string_view S, std::string &Scratch) {
  Scratch.clear();
  renderJsonString(S, Scratch);
  W.put(Scratch);
}

/// An ok reply to a `query`, `lint` or `slice`, written straight into the
/// reply line: the result object opens with the members every such reply
/// shares — `epoch`, `engine`, and `degraded` when set — and \p Body
/// continues it with `,"<key>":<value>` members.  The bytes equal
/// `renderOkReply` over the same members built as a DOM (engine names are
/// plain identifiers, so they need no escaping).
template <typename BodyFn>
std::string streamOkReply(const JsonValue &Id, const Epoch &E, bool Degraded,
                          BodyFn &&Body) {
  std::string Line = "{\"id\":";
  renderJson(Id, Line);
  {
    OutWriter W(Line);
    W.write(",\"ok\":true,\"result\":{\"epoch\":", E.id(), ",\"engine\":\"",
            Degraded ? "partial" : E.engine(),
            Degraded ? "\",\"degraded\":true" : "\"");
    Body(W);
    W.put("}}");
    W.flush();
  }
  return Line;
}

/// The ladder options shared by every live pipeline the daemon runs.
HybridOptions ladderOptions(const ServeOptions &O, const Deadline &D) {
  HybridOptions HO;
  HO.Threads = O.Threads;
  HO.D = D;
  HO.Degrade = degradeModeNamed(O.Degrade);
  if (O.KernelThreshold >= 0)
    HO.KernelThreshold = static_cast<size_t>(O.KernelThreshold);
  return HO;
}

/// Reads an optional non-negative integer field with an upper bound.
Status readIndex(const JsonValue *Params, const char *Name, uint32_t Limit,
                 bool &Present, uint32_t &Out) {
  Present = false;
  const JsonValue *V = Params ? Params->field(Name) : nullptr;
  if (!V)
    return Status::ok();
  if (!V->isInt() || V->asInt() < 0)
    return Status::invalidArgument(std::string("'") + Name +
                                   "' must be a non-negative integer");
  if (static_cast<uint64_t>(V->asInt()) >= Limit)
    return Status::invalidArgument(std::string("'") + Name + "' " +
                                   std::to_string(V->asInt()) +
                                   " out of range (limit " +
                                   std::to_string(Limit) + ")");
  Present = true;
  Out = static_cast<uint32_t>(V->asInt());
  return Status::ok();
}

} // namespace

//===----------------------------------------------------------------------===//
// Admission
//===----------------------------------------------------------------------===//

Admission::Decision Admission::admit(uint64_t Cost) {
  static Gauge &InflightGauge = gauge("serve.inflight_cost");
  const uint64_t Hard = Soft > UINT64_MAX / 2 ? UINT64_MAX : 2 * Soft;
  uint64_t After = Inflight.fetch_add(Cost, std::memory_order_relaxed) + Cost;
  if (After > Hard) {
    Inflight.fetch_sub(Cost, std::memory_order_relaxed);
    return Decision::Shed;
  }
  InflightGauge.set(static_cast<int64_t>(After));
  return After <= Soft ? Decision::Full : Decision::Degraded;
}

void Admission::release(uint64_t Cost) {
  static Gauge &InflightGauge = gauge("serve.inflight_cost");
  uint64_t After = Inflight.fetch_sub(Cost, std::memory_order_relaxed) - Cost;
  InflightGauge.set(static_cast<int64_t>(After));
}

//===----------------------------------------------------------------------===//
// Server lifecycle
//===----------------------------------------------------------------------===//

Server::Server(int InFd, int OutFd, ServeOptions O)
    : InFd(InFd), OutFd(OutFd), Opts(std::move(O)),
      Gate(Opts.MaxInflightCost) {
  unsigned N = Opts.Threads ? Opts.Threads : 1;
  Workers.reserve(N);
  for (unsigned I = 0; I != N; ++I)
    Workers.emplace_back([this] {
      for (;;) {
        std::function<void()> Job;
        {
          std::unique_lock<std::mutex> Lock(QueueMu);
          QueueCv.wait(Lock, [this] { return Stopping || !Queue.empty(); });
          if (Queue.empty())
            return; // Stopping and drained
          Job = std::move(Queue.front());
          Queue.pop_front();
          ++Busy;
        }
        Job();
        {
          std::lock_guard<std::mutex> Lock(QueueMu);
          --Busy;
        }
        IdleCv.notify_all();
      }
    });
}

Server::~Server() {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Stopping = true;
  }
  QueueCv.notify_all();
  for (std::thread &W : Workers)
    W.join();
}

void Server::enqueue(std::function<void()> Job) {
  {
    std::lock_guard<std::mutex> Lock(QueueMu);
    Queue.push_back(std::move(Job));
  }
  QueueCv.notify_one();
}

void Server::drainWorkers() {
  std::unique_lock<std::mutex> Lock(QueueMu);
  IdleCv.wait(Lock, [this] { return Queue.empty() && Busy == 0; });
}

//===----------------------------------------------------------------------===//
// Accept path
//===----------------------------------------------------------------------===//

bool Server::readLine(std::string &Line, Status &LineStatus) {
  LineStatus = Status::ok();
  Line.clear();
  // The accept-allocation fault: the same outcome as the line buffer's
  // growth failing — the request's bytes are drained, not stored, and a
  // structured out-of-memory reply goes out.  Polled once per line, at
  // the first point bytes for it exist (where the growth would happen):
  // polling at function entry instead would race a tester arming the
  // site between this thread blocking for a request and receiving it.
  bool Polled = false, Faulted = false, Oversized = false;
  for (;;) {
    size_t Nl = Pending.find('\n', PendingPos);
    size_t End = Nl == std::string::npos ? Pending.size() : Nl;
    size_t Take = End - PendingPos;
    if (!Polled && (Take != 0 || Nl != std::string::npos)) {
      Polled = true;
      Faulted = faultFires(fault::ServeAcceptAlloc);
    }
    if (!Faulted && !Oversized) {
      if (Line.size() + Take > Opts.MaxRequestBytes)
        Oversized = true;
      else
        Line.append(Pending.data() + PendingPos, Take);
    }
    PendingPos = Nl == std::string::npos ? End : Nl + 1;
    if (Nl != std::string::npos || (SawEof && (!Line.empty() || Oversized))) {
      if (Faulted) {
        Line.clear();
        LineStatus =
            Status::outOfMemory("accept: line buffer allocation failed");
      } else if (Oversized) {
        Line.clear();
        LineStatus = Status::invalidArgument(
            "request exceeds the " + std::to_string(Opts.MaxRequestBytes) +
            "-byte line cap");
      }
      return true;
    }
    if (SawEof)
      return false;
    // Everything buffered is consumed: compact once per refill, so a read
    // carrying many lines costs linear time, not one erase per line.
    Pending.clear();
    PendingPos = 0;
    char Buf[65536];
    ssize_t N = ::read(InFd, Buf, sizeof(Buf));
    if (N < 0) {
      if (errno == EINTR)
        continue;
      SawEof = true;
      continue;
    }
    if (N == 0) {
      SawEof = true;
      continue;
    }
    Pending.append(Buf, static_cast<size_t>(N));
  }
}

int Server::run() {
  std::string Line;
  Status LineStatus = Status::ok();
  while (!ShutdownRequested && readLine(Line, LineStatus)) {
    if (!LineStatus.isOk()) {
      replyError(JsonValue::null(), LineStatus);
      continue;
    }
    if (Line.find_first_not_of(" \t\r") == std::string::npos)
      continue; // blank keep-alive line
    handleLine(Line);
  }
  // EOF or shutdown: finish whatever was admitted, then leave.  The
  // destructor joins the (now idle) workers.
  drainWorkers();
  return 0;
}

void Server::handleLine(const std::string &Line) {
  static Counter &Requests = counter("serve.requests");
  Requests.inc();
  JsonValue Doc;
  if (Status S = parseJson(Line, Doc); !S.isOk()) {
    replyError(JsonValue::null(), S);
    return;
  }
  ServeRequest Req;
  if (Status S = validateRequest(std::move(Doc), Req); !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  dispatch(std::move(Req));
}

void Server::dispatch(ServeRequest Req) {
  static Counter &Sheds = counter("serve.sheds");
  static Counter &Degraded = counter("serve.degraded");
  switch (Req.V) {
  case Verb::Load:
    handleLoad(Req);
    return;
  case Verb::Edit:
    handleEdit(Req);
    return;
  case Verb::Metrics:
    handleMetrics(Req);
    return;
  case Verb::Shutdown:
    drainWorkers();
    {
      JsonValue Result = JsonValue::object();
      Result.set("shutdown", JsonValue::boolean(true));
      reply(renderOkReply(Req.Id, Result));
    }
    ShutdownRequested = true;
    return;
  case Verb::Query:
  case Verb::Lint:
  case Verb::Slice:
    break;
  }

  // Epoch resolution happens HERE, on the accept thread: a later `load`
  // must not change this request's answers.
  std::shared_ptr<Epoch> E = Epochs.current();
  if (!E) {
    replyError(Req.Id,
               Status::failedPrecondition("no epoch loaded; send a "
                                          "'load' request first"));
    return;
  }
  const uint64_t Cost = E->cost();
  Admission::Decision Decision = Gate.admit(Cost);
  if (Decision == Admission::Decision::Shed) {
    Sheds.inc();
    replyError(Req.Id,
               Status::resourceExhausted(
                   "admission budget exhausted (" +
                   std::to_string(Gate.inflight()) + " node-units in "
                   "flight); retry when in-flight work drains"));
    return;
  }
  const bool IsDegraded = Decision == Admission::Decision::Degraded;
  if (IsDegraded) {
    Degraded.inc();
    if (Req.V == Verb::Lint || Req.V == Verb::Slice) {
      // Lint and slice have no partial-answer rung worth serving here:
      // their answers would be garbage under universal sets, so over the
      // soft budget they shed.
      Gate.release(Cost);
      Sheds.inc();
      replyError(Req.Id,
                 Status::resourceExhausted(
                     "admission budget exceeded and " +
                     std::string(Req.V == Verb::Lint ? "lint" : "slice") +
                     " cannot serve a degraded answer; retry later"));
      return;
    }
  }
  const Verb V = Req.V;
  enqueue([this, Req = std::move(Req), E = std::move(E), Cost, IsDegraded,
           V]() mutable {
    if (V == Verb::Query)
      handleQuery(Req, E, IsDegraded);
    else if (V == Verb::Slice)
      handleSlice(Req, E);
    else
      handleLint(Req, E);
    E.reset(); // drop the epoch ref before releasing admission units
    Gate.release(Cost);
  });
}

//===----------------------------------------------------------------------===//
// Verbs
//===----------------------------------------------------------------------===//

Deadline Server::requestDeadline(const ServeRequest &Req) const {
  if (Req.Params)
    if (const JsonValue *Ms = Req.Params->field("deadline_ms"))
      return Deadline::afterMillis(Ms->asInt()); // range-checked on accept
  if (Opts.DefaultDeadlineMs >= 0)
    return Deadline::afterMillis(Opts.DefaultDeadlineMs);
  return Deadline::infinite();
}

void Server::handleLoad(const ServeRequest &Req) {
  static Counter &Loads = counter("serve.loads");
  static Histogram &Millis =
      histogram("serve.request_millis", latencyBucketsMillis());
  Loads.inc();
  Timer T;

  const JsonValue *Src = Req.Params ? Req.Params->field("source") : nullptr;
  if (!Src || !Src->isString()) {
    replyError(Req.Id, Status::invalidArgument(
                           "'load' needs params.source (program text)"));
    return;
  }
  const std::string &Source = Src->asString();
  const HybridOptions HO = ladderOptions(Opts, requestDeadline(Req));

  // A cache hit serves the mapped tables; its module is parsed from the
  // source on the first lint or slice.  A miss (or no cache) runs the
  // live pipeline and fills the cache behind it.
  SnapshotCacheSlot Slot;
  const char *CacheOutcome = "off";
  std::shared_ptr<Epoch> E;
  if (Opts.SnapshotCache) {
    CacheOutcome = "miss";
    if (std::unique_ptr<LoadedSnapshot> Snap = lookupSnapshotCache(
            Opts.SnapshotDir, Source, ServeCacheConfig, Slot)) {
      CacheOutcome = "hit";
      E = std::make_shared<Epoch>(Epochs.allocateId(), std::move(Snap),
                                  Source, Opts.Threads, HO.KernelThreshold);
    }
  }
  if (E) {
    Epochs.install(E);
  } else {
    if (Status S = installFullEpoch(Source, HO.D, E); !S.isOk()) {
      replyError(Req.Id, S);
      return;
    }
    // Write-through: persist the freshly frozen tables under the cache
    // key so the *next* daemon process warms up with one mmap.  A failed
    // fill never fails the load.
    size_t Evicted = 0;
    if (Opts.SnapshotCache && E->frozen())
      if (Status WS = fillSnapshotCache(Slot, *E->frozen(), E->module(),
                                        Opts.SnapshotCacheMaxBytes, Evicted);
          !WS.isOk())
        std::fprintf(stderr, "warning: snapshot cache fill failed: %s\n",
                     WS.toString().c_str());
  }
  LoadedSource = Source;
  Session.reset();
  JsonValue Result = JsonValue::object();
  Result.set("epoch", JsonValue::number(int64_t(E->id())));
  Result.set("engine", JsonValue::string(E->engine()));
  Result.set("cache", JsonValue::string(CacheOutcome));
  Result.set("exprs", JsonValue::number(int64_t(E->numExprs())));
  Result.set("labels", JsonValue::number(int64_t(E->numLabels())));
  Result.set("nodes",
             JsonValue::number(
                 int64_t(E->frozen() ? E->frozen()->numNodes() : 0)));
  reply(renderOkReply(Req.Id, Result));
  Millis.observe(static_cast<uint64_t>(T.millis()));
}

Status Server::installFullEpoch(const std::string &Source, const Deadline &D,
                                std::shared_ptr<Epoch> &Out) {
  LivePipeline P;
  if (Status S = P.run(Source, ladderOptions(Opts, D)); !S.isOk())
    return S;
  Out = std::make_shared<Epoch>(Epochs.allocateId(), std::move(P.M),
                                std::move(P.H));
  Epochs.install(Out);
  return Status::ok();
}

void Server::handleEdit(const ServeRequest &Req) {
  static Counter &Edits = counter("serve.edits");
  static Histogram &Millis =
      histogram("serve.request_millis", latencyBucketsMillis());
  Edits.inc();
  Timer T;

  // -- parse the edit request ---------------------------------------------
  const JsonValue *OpV = Req.Params ? Req.Params->field("op") : nullptr;
  if (!OpV || !OpV->isString()) {
    replyError(Req.Id, Status::invalidArgument(
                           "'edit' needs params.op "
                           "(insert|delete|replace|replace-body|rename)"));
    return;
  }
  EditRequest R;
  const std::string &Op = OpV->asString();
  if (Op == "insert")
    R.Kind = EditRequest::Op::Insert;
  else if (Op == "delete")
    R.Kind = EditRequest::Op::Delete;
  else if (Op == "replace")
    R.Kind = EditRequest::Op::Replace;
  else if (Op == "replace-body")
    R.Kind = EditRequest::Op::ReplaceBody;
  else if (Op == "rename")
    R.Kind = EditRequest::Op::Rename;
  else {
    replyError(Req.Id, Status::invalidArgument(
                           "unknown edit op '" + Op +
                           "' (insert|delete|replace|replace-body|rename)"));
    return;
  }
  auto readString = [&](const char *Name, std::string &Out,
                        bool Required) -> Status {
    const JsonValue *V = Req.Params->field(Name);
    if (!V) {
      if (Required)
        return Status::invalidArgument(std::string("edit op '") + Op +
                                       "' needs params." + Name);
      return Status::ok();
    }
    if (!V->isString())
      return Status::invalidArgument(std::string("'") + Name +
                                     "' must be a string");
    Out = V->asString();
    return Status::ok();
  };
  const bool NeedsText = R.Kind == EditRequest::Op::Insert ||
                         R.Kind == EditRequest::Op::Replace ||
                         R.Kind == EditRequest::Op::ReplaceBody;
  if (Status S = readString("text", R.Text, NeedsText); !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  if (Status S = readString("name", R.Name, false); !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  if (Status S = readString("before", R.Before, false); !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  if (Status S = readString("new_name", R.NewName,
                            R.Kind == EditRequest::Op::Rename);
      !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  if (const JsonValue *L = Req.Params->field("line")) {
    if (!L->isInt() || L->asInt() <= 0) {
      replyError(Req.Id,
                 Status::invalidArgument("'line' must be a positive line "
                                         "number"));
      return;
    }
    R.Line = static_cast<uint32_t>(L->asInt());
  }

  // -- resolve the session -------------------------------------------------
  std::shared_ptr<Epoch> Bound = Epochs.current();
  if (!Bound || LoadedSource.empty()) {
    replyError(Req.Id, Status::failedPrecondition(
                           "no program loaded; send a 'load' request "
                           "before editing"));
    return;
  }
  const uint64_t BoundEpoch = Bound->id();
  if (!Session) {
    DeltaSession::Options DO;
    DO.Threads = Opts.Threads;
    Status CS = Status::ok();
    Session = DeltaSession::create(LoadedSource, DO, CS);
    if (!Session) {
      replyError(Req.Id, CS);
      return;
    }
  }

  // -- apply ---------------------------------------------------------------
  ApplyResult Res;
  if (Status S = Session->apply(R, Res); !S.isOk()) {
    // A rejected edit never changed the session; the current epoch keeps
    // serving untouched.
    replyError(Req.Id, S);
    return;
  }

  const char *Mode = "delta";
  std::shared_ptr<Epoch> E;
  Deadline D = requestDeadline(Req);
  bool InstallRaced = false;
  if (!Res.NeedsFullPipeline) {
    // Generation check: if another install slipped in between accept and
    // here (or the injected race fires), the delta was computed against
    // a superseded program — discard it and reload the session's source
    // in full rather than publish a mismatched epoch.
    InstallRaced = faultFires(fault::DeltaInstallRace) ||
                   (Epochs.current() && Epochs.current()->id() != BoundEpoch);
  }
  if (Res.NeedsFullPipeline || InstallRaced) {
    if (InstallRaced)
      counter("delta.fallback_full").inc();
    Mode = InstallRaced ? "install-race" : "full-pipeline";
    if (Status S = installFullEpoch(Session->currentSource(), D, E);
        !S.isOk()) {
      replyError(Req.Id, S);
      return;
    }
  } else {
    DeltaView View;
    if (Status S = Session->freezeView(View); !S.isOk()) {
      replyError(Req.Id, S);
      return;
    }
    E = std::make_shared<Epoch>(Epochs.allocateId(), std::move(View),
                                Session->currentSource(), Opts.Threads,
                                ladderOptions(Opts, D).KernelThreshold);
    Epochs.install(E);
    Mode = Res.M == ApplyResult::Mode::Metadata      ? "metadata"
           : Res.M == ApplyResult::Mode::FullRebuild ? "full-rebuild"
                                                     : "delta";
  }

  JsonValue Result = JsonValue::object();
  Result.set("epoch", JsonValue::number(int64_t(E->id())));
  Result.set("engine", JsonValue::string(E->engine()));
  Result.set("mode", JsonValue::string(Mode));
  Result.set("dirty_nodes", JsonValue::number(int64_t(Res.DirtyNodes)));
  Result.set("reclose_edges", JsonValue::number(int64_t(Res.RecloseEdges)));
  Result.set("exprs", JsonValue::number(int64_t(E->numExprs())));
  Result.set("labels", JsonValue::number(int64_t(E->numLabels())));
  reply(renderOkReply(Req.Id, Result));
  Millis.observe(static_cast<uint64_t>(T.millis()));
}

void Server::handleMetrics(const ServeRequest &Req) {
  reply(renderOkReply(Req.Id, snapshotMetrics().toCompactJson()));
}

void Server::handleQuery(const ServeRequest &Req,
                         const std::shared_ptr<Epoch> &E, bool Degraded) {
  static Counter &Queries = counter("serve.queries");
  static Histogram &Millis =
      histogram("serve.request_millis", latencyBucketsMillis());
  Queries.inc();
  Timer T;

  std::string Kind = "labels";
  if (Req.Params)
    if (const JsonValue *K = Req.Params->field("kind")) {
      if (!K->isString()) {
        replyError(Req.Id,
                   Status::invalidArgument("'kind' must be a string"));
        return;
      }
      Kind = K->asString();
    }
  bool HasExpr = false, HasLabel = false;
  uint32_t ExprIdx = 0, LabelIdx = 0;
  if (Status S = readIndex(Req.Params, "expr", E->numExprs(), HasExpr,
                           ExprIdx);
      !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  if (Status S = readIndex(Req.Params, "label", E->numLabels(), HasLabel,
                           LabelIdx);
      !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  ExprId Target = HasExpr ? ExprId(ExprIdx) : E->root();
  Deadline D = requestDeadline(Req);

  // Every kind streams its payload straight into the reply line.
  std::string Line;
  if (Kind == "labels") {
    DenseBitset Set;
    if (!Degraded) {
      if (Status S = E->labelsOf(Target, D, Set); !S.isOk()) {
        replyError(Req.Id, S);
        return;
      }
    }
    Line = streamOkReply(Req.Id, *E, Degraded, [&](OutWriter &W) {
      W.put(",\"labels\":");
      if (Degraded)
        writeIdRange(W, E->numLabels());
      else
        writeIdArray(W, Set);
    });
  } else if (Kind == "is-label-in") {
    if (!HasLabel) {
      replyError(Req.Id, Status::invalidArgument(
                             "'is-label-in' needs params.label"));
      return;
    }
    bool Value = true; // the universal superset answers yes
    if (!Degraded) {
      if (Status S = E->isLabelIn(Target, LabelId(LabelIdx), D, Value);
          !S.isOk()) {
        replyError(Req.Id, S);
        return;
      }
    }
    Line = streamOkReply(Req.Id, *E, Degraded, [&](OutWriter &W) {
      W.put(Value ? ",\"value\":true" : ",\"value\":false");
    });
  } else if (Kind == "occurrences") {
    if (!HasLabel) {
      replyError(Req.Id, Status::invalidArgument(
                             "'occurrences' needs params.label"));
      return;
    }
    std::vector<ExprId> Occ;
    if (!Degraded) {
      if (Status S = E->occurrencesOf(LabelId(LabelIdx), D, Occ);
          !S.isOk()) {
        replyError(Req.Id, S);
        return;
      }
    }
    Line = streamOkReply(Req.Id, *E, Degraded, [&](OutWriter &W) {
      W.put(",\"exprs\":");
      if (Degraded) {
        writeIdRange(W, E->numExprs());
        return;
      }
      W.put('[');
      for (size_t I = 0; I != Occ.size(); ++I)
        W.write(I != 0 ? "," : "", Occ[I].index());
      W.put(']');
    });
  } else if (Kind == "all-labels") {
    InternedLabelSets Sets;
    if (!Degraded) {
      if (Status S = E->allLabels(D, Sets); !S.isOk()) {
        replyError(Req.Id, S);
        return;
      }
    }
    Line = streamOkReply(Req.Id, *E, Degraded, [&](OutWriter &W) {
      if (Degraded) {
        // Bounded degraded answer: one universal set stands for every
        // occurrence instead of materializing exprs x labels ids.
        W.put(",\"universal\":true,\"labels\":");
        writeIdRange(W, E->numLabels());
        return;
      }
      // Each distinct row's `,"labels":[...]}` is rendered once and
      // copied per occurrence; row 0 (empty) prints nothing.
      const LabelRowPool &Pool = Sets.pool();
      RenderOnce Rows(Pool.size());
      W.put(",\"sets\":[");
      bool First = true;
      for (uint32_t I = 0; I != Sets.RowOf.size(); ++I) {
        const uint32_t Id = Sets.RowOf[I];
        if (Id == 0)
          continue;
        W.write(First ? "{\"expr\":" : ",{\"expr\":", I);
        First = false;
        W.put(Rows.text(Id, [&](OutWriter &T) {
          T.put(",\"labels\":");
          writeIdArray(T, Pool.set(Id));
          T.put('}');
        }));
      }
      W.put(']');
    });
  } else {
    replyError(Req.Id,
               Status::invalidArgument(
                   "unknown query kind '" + Kind +
                   "' (labels|all-labels|is-label-in|occurrences)"));
    return;
  }
  reply(std::move(Line));
  Millis.observe(static_cast<uint64_t>(T.millis()));
}

void Server::handleLint(const ServeRequest &Req,
                        const std::shared_ptr<Epoch> &E) {
  static Counter &Lints = counter("serve.lints");
  static Histogram &Millis =
      histogram("serve.request_millis", latencyBucketsMillis());
  Lints.inc();
  Timer T;

  std::vector<std::string> Passes;
  if (Req.Params)
    if (const JsonValue *P = Req.Params->field("passes")) {
      if (!P->isArray()) {
        replyError(Req.Id, Status::invalidArgument(
                               "'passes' must be an array of pass ids"));
        return;
      }
      for (const JsonValue &Id : P->items()) {
        if (!Id.isString() || !LintEngine::findPass(Id.asString())) {
          replyError(Req.Id,
                     Status::invalidArgument(
                         "unknown lint pass" +
                         (Id.isString() ? " '" + Id.asString() + "'"
                                        : std::string(" (non-string id)"))));
          return;
        }
        Passes.push_back(Id.asString());
      }
    }

  LintResult LR;
  if (Status S = E->lint(Passes, requestDeadline(Req), Opts.Threads, LR);
      !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }

  std::string Line = streamOkReply(Req.Id, *E, false, [&](OutWriter &W) {
    std::string Scratch;
    W.put(",\"findings\":[");
    bool First = true;
    for (const LintPassReport &R : LR.Reports)
      for (const LintDiagnostic &Diag : R.Findings) {
        W.put(First ? "{\"pass\":" : ",{\"pass\":");
        First = false;
        writeJsonString(W, Diag.RuleId, Scratch);
        W.write(",\"severity\":\"", lintSeverityName(Diag.Severity),
                "\",\"message\":");
        writeJsonString(W, Diag.Message, Scratch);
        W.write(",\"line\":", Diag.Range.Begin.Line,
                ",\"col\":", Diag.Range.Begin.Col, '}');
      }
    W.write("],\"errors\":", LR.NumErrors, ",\"warnings\":", LR.NumWarnings,
            ",\"notes\":", LR.NumNotes,
            LR.anyPartial() ? ",\"partial\":true" : ",\"partial\":false");
  });
  reply(std::move(Line));
  Millis.observe(static_cast<uint64_t>(T.millis()));
}

void Server::handleSlice(const ServeRequest &Req,
                         const std::shared_ptr<Epoch> &E) {
  static Counter &Slices = counter("serve.slices");
  static Histogram &Millis =
      histogram("serve.request_millis", latencyBucketsMillis());
  Slices.inc();
  Timer T;

  bool HasExpr = false;
  uint32_t ExprIdx = 0;
  if (Status S = readIndex(Req.Params, "expr", E->numExprs(), HasExpr,
                           ExprIdx);
      !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }
  SliceDirection Dir = SliceDirection::Backward;
  if (Req.Params)
    if (const JsonValue *D = Req.Params->field("dir")) {
      if (!D->isString() ||
          (D->asString() != "back" && D->asString() != "fwd")) {
        replyError(Req.Id,
                   Status::invalidArgument("'dir' must be back|fwd"));
        return;
      }
      if (D->asString() == "fwd")
        Dir = SliceDirection::Forward;
    }
  bool Witness = false;
  if (Req.Params)
    if (const JsonValue *W = Req.Params->field("witness")) {
      if (!W->isBool()) {
        replyError(Req.Id,
                   Status::invalidArgument("'witness' must be a boolean"));
        return;
      }
      Witness = W->asBool();
    }
  ExprId Target = HasExpr ? ExprId(ExprIdx) : E->root();

  Epoch::SliceReply SR;
  if (Status S = E->slice(Target, Dir, Witness, requestDeadline(Req), SR);
      !S.isOk()) {
    replyError(Req.Id, S);
    return;
  }

  std::string Line = streamOkReply(Req.Id, *E, false, [&](OutWriter &W) {
    W.write(",\"target\":", Target.index(), ",\"dir\":\"",
            Dir == SliceDirection::Forward ? "fwd" : "back", "\",\"exprs\":[");
    for (size_t I = 0; I != SR.Members.size(); ++I)
      W.write(I != 0 ? "," : "", SR.Members[I].index());
    W.put(SR.Partial ? "],\"partial\":true" : "],\"partial\":false");
    if (Witness) {
      std::string Scratch;
      const Slicer Sl(*SR.Deps);
      W.put(",\"witnesses\":[");
      for (size_t I = 0; I != SR.Witnesses.size(); ++I) {
        W.put(I != 0 ? "," : "");
        writeJsonString(W, Sl.renderWitness(SR.Witnesses[I]), Scratch);
      }
      W.put(']');
    }
  });
  reply(std::move(Line));
  Millis.observe(static_cast<uint64_t>(T.millis()));
}

//===----------------------------------------------------------------------===//
// Reply path
//===----------------------------------------------------------------------===//

void Server::reply(std::string Line) {
  static Counter &Replies = counter("serve.replies");
  Replies.inc();
  // The reply-write fault: serialization failed after the work was done.
  // The fallback is a preformatted static line — no allocation on the
  // failure path — so the client still gets a parseable reply and the
  // stream stays line-synchronized.
  if (faultFires(fault::ServeReplyWrite)) {
    static const char Fallback[] =
        "{\"id\":null,\"ok\":false,\"error\":{\"code\":\"internal\","
        "\"message\":\"reply serialization failed\"}}\n";
    std::lock_guard<std::mutex> Lock(WriteMu);
    writeAll(OutFd, Fallback, sizeof(Fallback) - 1);
    return;
  }
  Line += '\n';
  std::lock_guard<std::mutex> Lock(WriteMu);
  writeAll(OutFd, Line.data(), Line.size());
}

void Server::replyError(const JsonValue &Id, const Status &S) {
  static Counter &Errors = counter("serve.errors");
  Errors.inc();
  reply(renderErrorReply(Id, S));
}
