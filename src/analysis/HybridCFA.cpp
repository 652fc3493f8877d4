//===-- analysis/HybridCFA.cpp - The Conclusion's hybrid analysis ---------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//

#include "analysis/HybridCFA.h"

#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Timer.h"
#include "support/Trace.h"

#include <cstdio>

using namespace stcfa;

const char *stcfa::engineName(HybridCFA::Engine E) {
  switch (E) {
  case HybridCFA::Engine::Subtransitive:
    return "subtransitive";
  case HybridCFA::Engine::Standard:
    return "standard";
  case HybridCFA::Engine::PartialAnswer:
    return "partial";
  case HybridCFA::Engine::None:
    return "none";
  }
  return "none";
}

DegradeMode stcfa::degradeModeNamed(std::string_view Name) {
  return Name == "off"       ? DegradeMode::Off
         : Name == "partial" ? DegradeMode::Partial
                             : DegradeMode::Standard;
}

namespace {

void appendJsonString(std::string &Out, const std::string &S) {
  Out += '"';
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", C);
        Out += Buf;
      } else {
        Out += C;
      }
    }
  }
  Out += '"';
}

void appendJsonStatus(std::string &Out, const Status &S) {
  Out += "{\"code\":";
  appendJsonString(Out, statusCodeName(S.code()));
  Out += ",\"message\":";
  appendJsonString(Out, S.message());
  Out += '}';
}

} // namespace

std::string DegradationReport::toJson() const {
  std::string Out = "{\"served\":";
  appendJsonString(Out, Served);
  Out += ",\"final\":";
  appendJsonStatus(Out, Final);
  Out += ",\"attempts\":[";
  for (size_t I = 0; I != Attempts.size(); ++I) {
    if (I)
      Out += ',';
    Out += "{\"rung\":";
    appendJsonString(Out, Attempts[I].Rung);
    Out += ",\"status\":";
    appendJsonStatus(Out, Attempts[I].S);
    char Buf[32];
    std::snprintf(Buf, sizeof(Buf), ",\"millis\":%.3f}", Attempts[I].Millis);
    Out += Buf;
  }
  Out += "]}";
  return Out;
}

HybridCFA::HybridCFA(const Module &M, uint32_t BudgetFactor) : M(M) {
  Opts.BudgetFactor = BudgetFactor;
}

HybridCFA::HybridCFA(const Module &M, const HybridOptions &Opts)
    : M(M), Opts(Opts) {}

Status HybridCFA::solve() {
  assert(!HasRun && "solve() called twice");
  HasRun = true;
  Span SolveSpan("hybrid.solve");
  auto finish = [&](Status F) {
    static Counter &Solves = counter("hybrid.solves");
    Solves.inc();
    Report.Served = engineName(Used);
    SolveSpan.arg("attempts", Report.Attempts.size());
    SolveSpan.arg("served", engineName(Used));
    return Report.Final = std::move(F);
  };
  // Every degradation step is one instant event: which rung the ladder
  // moves to (0 = no answer) and the Status code that forced the move.
  auto rungTransition = [](const Status &Why, uint64_t ToRung) {
    static Counter &Transitions = counter("hybrid.rung_transitions");
    Transitions.inc();
    traceInstant("hybrid.rung-transition", "cause", statusCodeName(Why.code()),
                 "to_rung", ToRung);
  };

  // Rung 1: the subtransitive analysis with exact datatype tracking (so a
  // success has exactly standard-CFA precision) and a linear node budget.
  Timer SubTimer;
  Status SubStatus = Status::ok();
  {
    Span RungSpan("hybrid.subtransitive");
    SubtransitiveConfig C;
    C.Congruence = CongruenceMode::None;
    C.MaxNodes = uint64_t(Opts.BudgetFactor) * M.numExprs() + 1024;
    Graph = std::make_unique<SubtransitiveGraph>(M, C);
    Graph->build();
    SubStatus = Graph->close(Opts.D, Opts.Token);
    if (SubStatus.isOk() && Graph->stats().Widenings != 0)
      // Widening trades precision for termination; a widened graph is not
      // standard-CFA-exact, which is the signature of a program outside
      // the bounded-type classes — same treatment as a blown budget.
      SubStatus = Status::resourceExhausted(
          "depth widening engaged: program is outside the bounded-type "
          "classes");
    if (SubStatus.isOk() && faultFires(fault::HybridSubtransitiveBudget))
      SubStatus =
          Status::resourceExhausted("injected subtransitive budget exhaustion");
    RungSpan.arg("status", statusCodeName(SubStatus.code()));
  }
  Report.Attempts.push_back({"subtransitive", SubStatus, SubTimer.millis()});

  if (SubStatus.isOk()) {
    // Rung 1, second half: freeze the graph into the CSR serving snapshot.
    Timer FreezeTimer;
    Status FreezeStatus;
    if (faultFires(fault::HybridFreezeAlloc))
      FreezeStatus = Status::outOfMemory("injected CSR allocation failure");
    else
      Frozen = FrozenGraph::freeze(*Graph, FreezeStatus, Opts.D);
    Report.Attempts.push_back({"freeze", FreezeStatus, FreezeTimer.millis()});
    if (FreezeStatus.isOk()) {
      Queries = std::make_unique<QueryEngine>(*Frozen);
      Queries->setKernelThreshold(Opts.KernelThreshold);
      Used = Engine::Subtransitive;
      return finish(Status::ok());
    }
    SubStatus = FreezeStatus; // a failed freeze degrades like a failed close
  }

  // The partial graph is useless (reachability over it is unsound) —
  // discard it before deciding the next rung.
  Graph.reset();

  if (SubStatus == StatusCode::Cancelled || Opts.Degrade == DegradeMode::Off) {
    rungTransition(SubStatus, 0);
    Used = Engine::None;
    return finish(SubStatus);
  }

  // Rung 2: the standard cubic algorithm under the remaining deadline.
  rungTransition(SubStatus, 2);
  if (!Opts.D.expired()) {
    Timer StdTimer;
    Status StdStatus = Status::ok();
    {
      Span RungSpan("hybrid.standard");
      Fallback = std::make_unique<StandardCFA>(M);
      StdStatus = Fallback->run(Opts.D, Opts.Token);
      RungSpan.arg("status", statusCodeName(StdStatus.code()));
    }
    Report.Attempts.push_back({"standard", StdStatus, StdTimer.millis()});
    if (StdStatus.isOk()) {
      Used = Engine::Standard;
      return finish(Status::ok());
    }
    // A timed-out standard run holds *under*-approximate sets — never
    // serve them.
    Fallback.reset();
    if (StdStatus == StatusCode::Cancelled) {
      rungTransition(StdStatus, 0);
      Used = Engine::None;
      return finish(StdStatus);
    }
    SubStatus = StdStatus;
  } else {
    Report.Attempts.push_back(
        {"standard",
         Status::deadlineExceeded("skipped: deadline already expired"), 0.0});
    SubStatus = Status::deadlineExceeded("deadline expired before the "
                                         "standard rung could start");
  }

  // Rung 3: the bounded partial answer — every label set is the universal
  // set, a conservative superset of any exact answer, in O(labels) time.
  if (Opts.Degrade == DegradeMode::Partial) {
    rungTransition(SubStatus, 3);
    Span RungSpan("hybrid.partial");
    Report.Attempts.push_back({"partial", Status::ok(), 0.0});
    Used = Engine::PartialAnswer;
    return finish(Status::ok());
  }

  rungTransition(SubStatus, 0);
  Used = Engine::None;
  return finish(SubStatus);
}

DenseBitset HybridCFA::universalLabels() const {
  DenseBitset Out(M.numLabels());
  for (uint32_t L = 0, E = M.numLabels(); L != E; ++L)
    Out.insert(L);
  return Out;
}

DenseBitset HybridCFA::labelSet(ExprId E) const {
  assert(HasRun && "query before run()");
  switch (Used) {
  case Engine::Subtransitive:
    return Queries->labelsOf(E);
  case Engine::Standard:
    return Fallback->labelSet(E);
  case Engine::PartialAnswer:
    return universalLabels();
  case Engine::None:
    break;
  }
  return DenseBitset(M.numLabels());
}

DenseBitset HybridCFA::labelSetOfVar(VarId V) const {
  assert(HasRun && "query before run()");
  switch (Used) {
  case Engine::Subtransitive:
    return Queries->labelsOfVar(V);
  case Engine::Standard:
    return Fallback->labelSetOfVar(V);
  case Engine::PartialAnswer:
    return universalLabels();
  case Engine::None:
    break;
  }
  return DenseBitset(M.numLabels());
}
