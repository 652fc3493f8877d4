//===-- tests/serve_test.cpp - Analysis daemon tests ----------------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The daemon suite runs a real `serve::Server` in-process over pipe()
/// pairs on its own thread — the same byte-level protocol the driver
/// speaks over stdin/stdout, but with the test on the client end.  This
/// also puts the whole accept/dispatch/epoch-swap machinery under the
/// TSan preset, which reruns the unit label.
///
//===----------------------------------------------------------------------===//

#include "analysis/HybridCFA.h"
#include "gen/Generators.h"
#include "lint/LintEngine.h"
#include "parser/Parser.h"
#include "sema/Infer.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "slice/Slicer.h"
#include "support/Deadline.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stcfa;
using namespace stcfa::serve;

namespace {

/// A small higher-order program with several lambdas, used throughout.
const char *kProgram = "let compose = fn f => fn g => fn x => f (g x) in\n"
                       "let inc = fn a => a + 1 in\n"
                       "let twice = compose inc inc in\n"
                       "twice 0";

/// Client end of an in-process daemon: owns the pipes and the server
/// thread, sends request lines, reads reply lines.
class ServeHarness {
public:
  explicit ServeHarness(ServeOptions O) {
    EXPECT_EQ(::pipe(Req), 0);
    EXPECT_EQ(::pipe(Rep), 0);
    Daemon = std::make_unique<Server>(Req[0], Rep[1], std::move(O));
    T = std::thread([this] { Exit = Daemon->run(); });
  }

  ~ServeHarness() {
    if (T.joinable()) {
      ::close(Req[1]); // EOF ends the accept loop
      T.join();
    }
    Daemon.reset();
    ::close(Req[0]);
    ::close(Rep[0]);
    ::close(Rep[1]);
  }

  void sendRaw(const std::string &Bytes) {
    size_t Off = 0;
    while (Off != Bytes.size()) {
      ssize_t N = ::write(Req[1], Bytes.data() + Off, Bytes.size() - Off);
      ASSERT_GT(N, 0);
      Off += static_cast<size_t>(N);
    }
  }

  void send(const std::string &Line) { sendRaw(Line + "\n"); }

  /// Blocking read of the next reply line (newline stripped).
  std::string recvLine() {
    for (;;) {
      size_t Nl = Buf.find('\n');
      if (Nl != std::string::npos) {
        std::string Line = Buf.substr(0, Nl);
        Buf.erase(0, Nl + 1);
        return Line;
      }
      char Chunk[4096];
      ssize_t N = ::read(Rep[0], Chunk, sizeof(Chunk));
      if (N <= 0)
        return Buf; // EOF: surface whatever remains
      Buf.append(Chunk, static_cast<size_t>(N));
    }
  }

  /// recvLine + parse; fails the test on a malformed reply.
  JsonValue recv() {
    std::string Line = recvLine();
    JsonValue V;
    Status S = parseJson(Line, V);
    EXPECT_TRUE(S.isOk()) << "unparseable reply: " << Line;
    return V;
  }

  /// Sends `shutdown`, checks its reply, and joins the server thread.
  void shutdown() {
    send(R"({"id":"bye","verb":"shutdown"})");
    JsonValue R = recv();
    EXPECT_TRUE(okOf(R));
    ::close(Req[1]);
    T.join();
    EXPECT_EQ(Exit, 0);
  }

  int exitCode() const { return Exit; }

  static bool okOf(const JsonValue &R) {
    const JsonValue *Ok = R.field("ok");
    return Ok && Ok->isBool() && Ok->asBool();
  }
  static std::string errorCodeOf(const JsonValue &R) {
    const JsonValue *E = R.field("error");
    if (!E || !E->isObject())
      return "";
    const JsonValue *C = E->field("code");
    return C && C->isString() ? C->asString() : "";
  }
  static const JsonValue *resultOf(const JsonValue &R) {
    return R.field("result");
  }

private:
  int Req[2] = {-1, -1}, Rep[2] = {-1, -1};
  std::unique_ptr<Server> Daemon;
  std::thread T;
  int Exit = -1;
  std::string Buf;
};

std::string loadRequest(int Id, const std::string &Source) {
  JsonValue Req = JsonValue::object();
  Req.set("id", JsonValue::number(int64_t(Id)));
  Req.set("verb", JsonValue::string("load"));
  JsonValue P = JsonValue::object();
  P.set("source", JsonValue::string(Source));
  Req.set("params", std::move(P));
  return renderJson(Req);
}

std::vector<uint32_t> labelIdsOf(const JsonValue &Reply) {
  std::vector<uint32_t> Ids;
  const JsonValue *Result = ServeHarness::resultOf(Reply);
  if (!Result)
    return Ids;
  const JsonValue *Labels = Result->field("labels");
  if (!Labels || !Labels->isArray())
    return Ids;
  for (const JsonValue &L : Labels->items())
    Ids.push_back(static_cast<uint32_t>(L.asInt()));
  return Ids;
}

/// The batch-mode reference: the same hybrid pipeline the daemon runs.
struct Reference {
  std::unique_ptr<Module> M;
  std::unique_ptr<HybridCFA> Hybrid;

  explicit Reference(const std::string &Source) {
    DiagnosticEngine Diags;
    M = parseProgram(Source, Diags);
    EXPECT_NE(M, nullptr);
    DiagnosticEngine InferDiags;
    (void)inferTypes(*M, InferDiags);
    Hybrid = std::make_unique<HybridCFA>(*M, HybridOptions{});
    EXPECT_TRUE(Hybrid->solve().isOk());
  }

  std::vector<uint32_t> labelsOf(ExprId E) {
    std::vector<uint32_t> Ids;
    Hybrid->labelSet(E).forEach([&](uint32_t L) { Ids.push_back(L); });
    return Ids;
  }

  /// Slice membership over the same full pipeline the daemon runs — the
  /// bit-exactness reference for the `slice` verb.
  std::vector<int64_t> sliceExprs(ExprId Target, SliceDirection Dir) {
    const FrozenGraph *F = Hybrid->frozen();
    EXPECT_NE(F, nullptr);
    Status BS;
    auto DG = DependenceGraph::build(*M, *F, BS);
    EXPECT_NE(DG, nullptr) << BS.message();
    SliceOptions SO;
    SO.Dir = Dir;
    SliceResult R = Slicer(*DG).sliceFrom(Target, SO);
    EXPECT_TRUE(R.S.isOk()) << R.S.message();
    std::vector<int64_t> Ids;
    for (ExprId E : R.Exprs)
      Ids.push_back(int64_t(E.index()));
    return Ids;
  }

  /// Lint findings over the same pipeline, flattened to the daemon's
  /// reply shape: `pass|severity|line|col|message` strings in order.
  std::vector<std::string> lintFindings() {
    const FrozenGraph *F = Hybrid->frozen();
    EXPECT_NE(F, nullptr);
    LintEngine Engine(*M, *F);
    LintResult LR = Engine.run({});
    std::vector<std::string> Out;
    for (const LintPassReport &R : LR.Reports)
      for (const LintDiagnostic &D : R.Findings)
        Out.push_back(D.RuleId + "|" + lintSeverityName(D.Severity) + "|" +
                      std::to_string(D.Range.Begin.Line) + "|" +
                      std::to_string(D.Range.Begin.Col) + "|" + D.Message);
    return Out;
  }
};

/// Flattens a served lint reply's findings to `Reference::lintFindings`
/// shape for order-sensitive equality.
std::vector<std::string> servedFindings(const JsonValue &Reply) {
  std::vector<std::string> Out;
  const JsonValue *Result = ServeHarness::resultOf(Reply);
  if (!Result || !Result->field("findings"))
    return Out;
  for (const JsonValue &F : Result->field("findings")->items())
    Out.push_back(F.field("pass")->asString() + "|" +
                  F.field("severity")->asString() + "|" +
                  std::to_string(F.field("line")->asInt()) + "|" +
                  std::to_string(F.field("col")->asInt()) + "|" +
                  F.field("message")->asString());
  return Out;
}

/// Collects the served slice reply's member ids.
std::vector<int64_t> servedSliceExprs(const JsonValue &Reply) {
  std::vector<int64_t> Out;
  const JsonValue *Result = ServeHarness::resultOf(Reply);
  if (!Result || !Result->field("exprs"))
    return Out;
  for (const JsonValue &E : Result->field("exprs")->items())
    Out.push_back(E.asInt());
  return Out;
}

//===----------------------------------------------------------------------===//
// JSON layer
//===----------------------------------------------------------------------===//

TEST(ServeJson, RoundTripsScalarsAndContainers) {
  JsonValue V;
  ASSERT_TRUE(
      parseJson(R"({"a":[1,-2,3.5],"b":"x\ny","c":true,"d":null})", V)
          .isOk());
  EXPECT_EQ(renderJson(V), R"({"a":[1,-2,3.5],"b":"x\ny","c":true,"d":null})");
  const JsonValue *A = V.field("a");
  ASSERT_NE(A, nullptr);
  ASSERT_EQ(A->items().size(), 3u);
  EXPECT_TRUE(A->items()[0].isInt());
  EXPECT_EQ(A->items()[1].asInt(), -2);
  EXPECT_FALSE(A->items()[2].isInt());
}

TEST(ServeJson, RejectsHostileShapes) {
  JsonValue V;
  // Truncated document.
  EXPECT_FALSE(parseJson(R"({"id":1)", V).isOk());
  // Trailing garbage.
  EXPECT_FALSE(parseJson(R"({"id":1} extra)", V).isOk());
  // Raw control byte (an embedded NUL) inside a string.
  std::string Nul = "{\"s\":\"a";
  Nul.push_back('\0');
  Nul += "b\"}";
  EXPECT_FALSE(parseJson(Nul, V).isOk());
  // Unknown escape and a lone surrogate-free escape check.
  EXPECT_FALSE(parseJson(R"("\q")", V).isOk());
  // Depth bomb: nesting beyond the configured limit.
  std::string Deep(100, '[');
  Deep += std::string(100, ']');
  JsonLimits Limits;
  Limits.MaxDepth = 64;
  EXPECT_FALSE(parseJson(Deep, V, Limits).isOk());
  // The same shape passes under a higher limit.
  Limits.MaxDepth = 200;
  EXPECT_TRUE(parseJson(Deep, V, Limits).isOk());
}

TEST(ServeJson, EscapesControlBytesOnRender) {
  JsonValue V = JsonValue::object();
  std::string S = "a";
  S.push_back('\0');
  S += "\tb";
  V.set("s", JsonValue::string(S));
  std::string Out = renderJson(V);
  EXPECT_EQ(Out.find('\0'), std::string::npos);
  EXPECT_EQ(Out.find('\t'), std::string::npos);
  EXPECT_NE(Out.find("\\u0000"), std::string::npos);
  EXPECT_NE(Out.find("\\t"), std::string::npos);
  // And the escaped form round-trips.
  JsonValue Back;
  ASSERT_TRUE(parseJson(Out, Back).isOk());
  EXPECT_EQ(Back.field("s")->asString(), S);
}

//===----------------------------------------------------------------------===//
// Basic sessions
//===----------------------------------------------------------------------===//

TEST(Serve, LoadQueryLintMetricsShutdown) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  JsonValue Load = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Load)) << renderJson(Load);
  const JsonValue *LR = ServeHarness::resultOf(Load);
  EXPECT_EQ(LR->field("epoch")->asInt(), 1);
  EXPECT_STREQ(LR->field("engine")->asString().c_str(), "subtransitive");
  EXPECT_STREQ(LR->field("cache")->asString().c_str(), "off");
  EXPECT_GT(LR->field("nodes")->asInt(), 0);

  Reference Ref(kProgram);

  // Root label set, bit-exact against the batch pipeline.
  H.send(R"({"id":2,"verb":"query","params":{"kind":"labels"}})");
  JsonValue Q = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Q));
  EXPECT_EQ(labelIdsOf(Q), Ref.labelsOf(Ref.M->root()));

  // An explicit expr index.
  H.send(R"({"id":3,"verb":"query","params":{"kind":"labels","expr":0}})");
  JsonValue Q0 = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Q0));
  EXPECT_EQ(labelIdsOf(Q0), Ref.labelsOf(ExprId(0)));

  // Membership and occurrences agree with the label set.
  H.send(
      R"({"id":4,"verb":"query","params":{"kind":"is-label-in","label":0}})");
  JsonValue Mem = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Mem));
  std::vector<uint32_t> RootIds = Ref.labelsOf(Ref.M->root());
  bool Expect0 =
      std::find(RootIds.begin(), RootIds.end(), 0u) != RootIds.end();
  EXPECT_EQ(ServeHarness::resultOf(Mem)->field("value")->asBool(), Expect0);

  H.send(
      R"({"id":5,"verb":"query","params":{"kind":"occurrences","label":0}})");
  JsonValue Occ = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Occ));
  EXPECT_FALSE(ServeHarness::resultOf(Occ)->field("exprs")->items().empty());

  // all-labels: every non-empty set matches the reference.
  H.send(R"({"id":6,"verb":"query","params":{"kind":"all-labels"}})");
  JsonValue All = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(All));
  for (const JsonValue &Row :
       ServeHarness::resultOf(All)->field("sets")->items()) {
    auto E = static_cast<uint32_t>(Row.field("expr")->asInt());
    std::vector<uint32_t> Ids;
    for (const JsonValue &L : Row.field("labels")->items())
      Ids.push_back(static_cast<uint32_t>(L.asInt()));
    EXPECT_EQ(Ids, Ref.labelsOf(ExprId(E))) << "expr " << E;
  }

  // Lint over the same epoch.
  H.send(R"({"id":7,"verb":"lint"})");
  JsonValue Lint = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Lint)) << renderJson(Lint);
  EXPECT_TRUE(ServeHarness::resultOf(Lint)->field("findings")->isArray());
  EXPECT_FALSE(
      ServeHarness::resultOf(Lint)->field("partial")->asBool());

  // Metrics arrive as one parseable line.
  H.send(R"({"id":8,"verb":"metrics"})");
  JsonValue Met = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Met));
  EXPECT_NE(ServeHarness::resultOf(Met)->field("counters"), nullptr);

  H.shutdown();
}

TEST(Serve, QueryBeforeLoadFailsCleanly) {
  ServeHarness H{ServeOptions{}};
  H.send(R"({"id":1,"verb":"query"})");
  JsonValue R = H.recv();
  EXPECT_FALSE(ServeHarness::okOf(R));
  EXPECT_EQ(ServeHarness::errorCodeOf(R), "failed-precondition");
  H.send(R"({"id":2,"verb":"lint"})");
  JsonValue L = H.recv();
  EXPECT_EQ(ServeHarness::errorCodeOf(L), "failed-precondition");
  H.shutdown();
}

TEST(Serve, EofWithoutShutdownExitsCleanly) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, "fn x => x"));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  // Destructor closes the request pipe: EOF must end run() with 0.
}

TEST(Serve, DeadlineZeroYieldsDeadlineExceeded) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.send(
      R"({"id":2,"verb":"query","params":{"kind":"labels","deadline_ms":0}})");
  JsonValue R = H.recv();
  EXPECT_FALSE(ServeHarness::okOf(R));
  EXPECT_EQ(ServeHarness::errorCodeOf(R), "deadline-exceeded");
  // The session survives and answers the next request.
  H.send(R"({"id":3,"verb":"query"})");
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.shutdown();
}

/// Sends \p Verb with `deadline_ms` set to the raw JSON \p Ms on a
/// loaded daemon and returns the reply's error code ("" on success).
std::string deadlineReplyCode(ServeHarness &H, int Id, const char *Verb,
                              const std::string &Ms) {
  std::string Params = R"({"deadline_ms":)" + Ms;
  if (std::string_view(Verb) == "load")
    Params += R"(,"source":"fn x => x")";
  H.send(R"({"id":)" + std::to_string(Id) + R"(,"verb":")" + Verb +
         R"(","params":)" + Params + "}}");
  return ServeHarness::errorCodeOf(H.recv());
}

TEST(Serve, DeadlineOutOfRangeIsRejectedOnEveryVerb) {
  // 10^13 ms would overflow the steady clock's nanosecond range: the
  // reply names the bad parameter rather than a deadline-exceeded.
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  EXPECT_EQ(deadlineReplyCode(H, 2, "query",
                              std::to_string(Deadline::MaxMillis + 1)),
            "invalid-argument");
  int Id = 3;
  // `shutdown` goes last: a daemon that ignored the bad value would have
  // stopped, and the harness's EOF ends the run either way.
  for (const char *Verb :
       {"query", "lint", "slice", "load", "edit", "metrics", "shutdown"})
    EXPECT_EQ(deadlineReplyCode(H, Id++, Verb, "10000000000000"),
              "invalid-argument")
        << Verb;
}

TEST(Serve, NegativeDeadlineIsRejected) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  EXPECT_EQ(deadlineReplyCode(H, 2, "query", "-1"), "invalid-argument");
  EXPECT_EQ(deadlineReplyCode(H, 3, "lint", "-5"), "invalid-argument");
  EXPECT_EQ(deadlineReplyCode(H, 4, "slice", "-1"), "invalid-argument");
  H.shutdown();
}

TEST(Serve, NonIntegerDeadlineIsRejected) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  EXPECT_EQ(deadlineReplyCode(H, 2, "query", R"("100")"), "invalid-argument");
  EXPECT_EQ(deadlineReplyCode(H, 3, "query", "1.5"), "invalid-argument");
  EXPECT_EQ(deadlineReplyCode(H, 4, "lint", "true"), "invalid-argument");
  EXPECT_EQ(deadlineReplyCode(H, 5, "slice", "null"), "invalid-argument");
  H.shutdown();
}

TEST(Serve, DeadlineAtTheBoundAnswers) {
  ServeHarness H{ServeOptions{}};
  const std::string Max = std::to_string(Deadline::MaxMillis);
  EXPECT_EQ(deadlineReplyCode(H, 1, "load", Max), "");
  EXPECT_EQ(deadlineReplyCode(H, 2, "query", Max), "");
  EXPECT_EQ(deadlineReplyCode(H, 3, "lint", Max), "");
  EXPECT_EQ(deadlineReplyCode(H, 4, "slice", Max), "");
  EXPECT_EQ(deadlineReplyCode(H, 5, "query", "0"), "deadline-exceeded");
  H.shutdown();
}

TEST(Serve, InvalidIndicesAreRejected) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.send(
      R"({"id":2,"verb":"query","params":{"kind":"labels","expr":100000}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.send(
      R"({"id":3,"verb":"query","params":{"kind":"is-label-in","label":99}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.send(R"({"id":4,"verb":"query","params":{"kind":"nonsense"}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.send(R"({"id":5,"verb":"lint","params":{"passes":["no-such-pass"]}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.shutdown();
}

//===----------------------------------------------------------------------===//
// Hostile input
//===----------------------------------------------------------------------===//

TEST(Serve, HostileInputsYieldStructuredErrors) {
  ServeOptions O;
  O.MaxRequestBytes = 4096; // keep the oversized case cheap
  ServeHarness H{O};

  auto ExpectError = [&](const std::string &Code) {
    JsonValue R = H.recv();
    EXPECT_FALSE(ServeHarness::okOf(R)) << renderJson(R);
    EXPECT_EQ(ServeHarness::errorCodeOf(R), Code) << renderJson(R);
  };

  H.send(R"({"id":1,"verb":"load")"); // truncated JSON
  ExpectError("invalid-argument");

  std::string Nul = R"({"id":2,"verb":"que)";
  Nul.push_back('\0');
  Nul += R"(ry"})";
  H.send(Nul); // embedded NUL
  ExpectError("invalid-argument");

  H.send(std::string(8192, 'x')); // oversized line, drained not stored
  ExpectError("invalid-argument");

  H.send("\x01\x02garbage\xff\xfe"); // interleaved binary garbage
  ExpectError("invalid-argument");

  H.send(R"([1,2,3])"); // a request must be an object
  ExpectError("invalid-argument");

  H.send(R"({"id":3,"verb":"frobnicate"})"); // unknown verb
  ExpectError("invalid-argument");

  H.send(R"({"id":{},"verb":"query"})"); // structured id
  ExpectError("invalid-argument");

  H.send(R"({"id":4,"verb":"query","params":"labels"})"); // params non-object
  ExpectError("invalid-argument");

  // After all of that, a well-formed session still works.
  H.send(loadRequest(5, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.send(R"({"id":6,"verb":"query"})");
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.shutdown();
}

TEST(Serve, ManyLinesPerReadAndALineSplitAcrossReads) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  Reference Ref(kProgram);

  // One write of 2000 requests: well over one 64 KiB read, so many lines
  // arrive per read and some line straddles a read boundary.  A writer
  // thread keeps the reply pipe draining while the requests go out.
  constexpr int NumRequests = 2000;
  std::string Batch;
  for (int I = 0; I != NumRequests; ++I)
    Batch += R"({"id":)" + std::to_string(100 + I) +
             R"(,"verb":"query","params":{"kind":"labels"}})" + "\n";
  std::thread Writer([&] { H.sendRaw(Batch); });
  std::vector<char> Seen(NumRequests, 0);
  for (int I = 0; I != NumRequests; ++I) {
    JsonValue R = H.recv();
    ASSERT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
    int64_t Id = R.field("id")->asInt() - 100;
    ASSERT_TRUE(Id >= 0 && Id < NumRequests) << renderJson(R);
    EXPECT_FALSE(Seen[Id]) << "duplicate reply " << Id;
    Seen[Id] = 1;
    EXPECT_EQ(labelIdsOf(R), Ref.labelsOf(Ref.M->root()));
  }
  Writer.join();

  // One request split across two writes, with a pause between them so
  // the daemon reads the first half on its own.
  std::string Split = R"({"id":7,"verb":"query","params":{"kind":"labels"}})";
  H.sendRaw(Split.substr(0, 20));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  H.send(Split.substr(20));
  JsonValue R = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
  EXPECT_EQ(R.field("id")->asInt(), 7);
  EXPECT_EQ(labelIdsOf(R), Ref.labelsOf(Ref.M->root()));
  H.shutdown();
}

#if STCFA_FAULT_INJECTION
TEST(Serve, FaultSitesDegradeIntoErrorReplies) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));

  // serve.request-parse: the JSON parser's container allocation fails.
  // (Read the raw line before disarming: the harness's own reply parse
  // polls the same process-global site.)
  ASSERT_TRUE(armFault(fault::ServeRequestParse));
  H.send(R"({"id":2,"verb":"query"})");
  std::string RawReply = H.recvLine();
  disarmFaults();
  JsonValue R;
  ASSERT_TRUE(parseJson(RawReply, R).isOk()) << RawReply;
  EXPECT_FALSE(ServeHarness::okOf(R));
  EXPECT_EQ(ServeHarness::errorCodeOf(R), "out-of-memory");

  // serve.accept-alloc: the line buffer's growth fails; the request is
  // drained, not stored.
  ASSERT_TRUE(armFault(fault::ServeAcceptAlloc));
  H.send(R"({"id":3,"verb":"query"})");
  RawReply = H.recvLine();
  disarmFaults();
  ASSERT_TRUE(parseJson(RawReply, R).isOk()) << RawReply;
  EXPECT_FALSE(ServeHarness::okOf(R));
  EXPECT_EQ(ServeHarness::errorCodeOf(R), "out-of-memory");

  // serve.reply-write: serialization fails after the work; the static
  // fallback line goes out instead, still valid JSON.
  ASSERT_TRUE(armFault(fault::ServeReplyWrite));
  H.send(R"({"id":4,"verb":"query"})");
  std::string Raw = H.recvLine();
  disarmFaults();
  JsonValue Fallback;
  ASSERT_TRUE(parseJson(Raw, Fallback).isOk()) << Raw;
  EXPECT_FALSE(ServeHarness::okOf(Fallback));
  EXPECT_EQ(ServeHarness::errorCodeOf(Fallback), "internal");

  // Recovery: the same session keeps serving.
  H.send(R"({"id":5,"verb":"query"})");
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.shutdown();
}
#endif

//===----------------------------------------------------------------------===//
// Epochs
//===----------------------------------------------------------------------===//

TEST(Serve, EpochSwapKeepsInFlightAnswersAndRetiresOld) {
  resetMetrics();
  {
    ServeOptions O;
    O.Threads = 2;
    ServeHarness H{O};

    // Epoch 1, then a query against it, then epoch 2 — all written in
    // one burst so the query's worker job overlaps the second load.
    std::string Burst = loadRequest(1, kProgram);
    Burst += "\n";
    Burst += R"({"id":2,"verb":"query","params":{"kind":"labels"}})";
    Burst += "\n";
    Burst += loadRequest(3, "let y = fn f => fn x => f x in y (fn a => a)");
    Burst += "\n";
    Burst += R"({"id":4,"verb":"query","params":{"kind":"labels"}})";
    Burst += "\n";
    H.sendRaw(Burst);

    // Replies may interleave (workers race the reader); match by id.
    std::vector<JsonValue> Replies;
    for (int I = 0; I != 4; ++I)
      Replies.push_back(H.recv());
    auto ById = [&](int64_t Id) -> const JsonValue * {
      for (const JsonValue &R : Replies)
        if (const JsonValue *I = R.field("id"); I && I->isInt() &&
                                                I->asInt() == Id)
          return &R;
      return nullptr;
    };
    const JsonValue *Q1 = ById(2), *Q2 = ById(4), *L2 = ById(3);
    ASSERT_NE(Q1, nullptr);
    ASSERT_NE(Q2, nullptr);
    ASSERT_NE(L2, nullptr);
    ASSERT_TRUE(ServeHarness::okOf(*Q1)) << renderJson(*Q1);
    // The first query was admitted against epoch 1 and must answer for
    // it, regardless of when epoch 2's install lands.
    EXPECT_EQ(ServeHarness::resultOf(*Q1)->field("epoch")->asInt(), 1);
    EXPECT_EQ(labelIdsOf(*Q1), Reference(kProgram).labelsOf(
                                   Reference(kProgram).M->root()));
    // The second query (sent after load 3) answers for epoch 2.
    EXPECT_EQ(ServeHarness::resultOf(*Q2)->field("epoch")->asInt(), 2);

    H.shutdown();
    // After shutdown every worker drained: exactly the current epoch is
    // alive — the superseded mapping has been released.
    EXPECT_EQ(gauge("serve.epochs_live").value(), 1);
    EXPECT_GE(counter("serve.epoch_retirements").value(), 1u);
  }
  // Harness gone: the last epoch reference drained with it.
  EXPECT_EQ(gauge("serve.epochs_live").value(), 0);
}

//===----------------------------------------------------------------------===//
// Admission control
//===----------------------------------------------------------------------===//

TEST(Serve, AdmissionShedsBeyondHardBudget) {
  ServeOptions O;
  O.MaxInflightCost = 1; // any real epoch costs more than 2x this
  ServeHarness H{O};
  H.send(loadRequest(1, kProgram));
  JsonValue Load = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Load));
  ASSERT_GT(ServeHarness::resultOf(Load)->field("nodes")->asInt(), 2);

  H.send(R"({"id":2,"verb":"query"})");
  JsonValue R = H.recv();
  EXPECT_FALSE(ServeHarness::okOf(R));
  EXPECT_EQ(ServeHarness::errorCodeOf(R), "resource-exhausted");
  H.shutdown();
}

TEST(Serve, AdmissionDegradesBetweenSoftAndHardBudget) {
  // Learn the epoch's cost from a default server first.
  int64_t Nodes = 0;
  {
    ServeHarness Probe{ServeOptions{}};
    Probe.send(loadRequest(1, kProgram));
    JsonValue Load = Probe.recv();
    ASSERT_TRUE(ServeHarness::okOf(Load));
    Nodes = ServeHarness::resultOf(Load)->field("nodes")->asInt();
    Probe.shutdown();
  }
  ASSERT_GE(Nodes, 3);

  // Soft = cost-1: one query lands in (soft, 2*soft] — the degraded band.
  ServeOptions O;
  O.MaxInflightCost = static_cast<uint64_t>(Nodes - 1);
  ServeHarness H{O};
  H.send(loadRequest(1, kProgram));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));

  H.send(R"({"id":2,"verb":"query","params":{"kind":"labels"}})");
  JsonValue R = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
  const JsonValue *Result = ServeHarness::resultOf(R);
  ASSERT_NE(Result->field("degraded"), nullptr);
  EXPECT_TRUE(Result->field("degraded")->asBool());
  EXPECT_STREQ(Result->field("engine")->asString().c_str(), "partial");
  // The universal answer covers every label.
  Reference Ref(kProgram);
  EXPECT_EQ(labelIdsOf(R).size(), Ref.M->numLabels());

  // Lint cannot degrade: it sheds in the same band.  Neither can slice —
  // a partial-rung epoch has no frozen tables to build a dependence
  // graph from.
  H.send(R"({"id":3,"verb":"lint"})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "resource-exhausted");
  H.send(R"({"id":4,"verb":"slice"})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "resource-exhausted");
  H.shutdown();
}

//===----------------------------------------------------------------------===//
// Streamed query replies
//===----------------------------------------------------------------------===//

namespace {

JsonValue idArray(const std::vector<uint32_t> &Ids) {
  JsonValue Arr = JsonValue::array();
  for (uint32_t Id : Ids)
    Arr.push(JsonValue::number(int64_t(Id)));
  return Arr;
}

JsonValue idRange(uint32_t N) {
  std::vector<uint32_t> Ids(N);
  for (uint32_t I = 0; I != N; ++I)
    Ids[I] = I;
  return idArray(Ids);
}

/// Sends every `query` kind to \p H and checks each reply line, byte for
/// byte, against `renderOkReply` over the DOM the daemon built before its
/// query replies were streamed: `epoch`, `engine`, `degraded` (when set),
/// then the payload.
void expectQueryRepliesMatchDom(ServeHarness &H, const std::string &Source,
                                int64_t EpochId, const std::string &Engine,
                                bool Degraded) {
  Reference Ref(Source);
  const uint32_t NumLabels = Ref.M->numLabels();
  const uint32_t NumExprs = Ref.M->numExprs();
  int64_t Id = 100;
  auto expect = [&](const std::string &Params, const char *Key,
                    JsonValue Payload, const char *Key2 = nullptr,
                    JsonValue Payload2 = JsonValue::null()) {
    // A worker releases its admission units just after writing its
    // reply, so in the degraded band (where one request fills the budget)
    // the next request can be shed for a moment: retry it.
    std::string Line;
    for (int Try = 0; Try != 1000; ++Try) {
      H.send("{\"id\":" + std::to_string(Id) +
             ",\"verb\":\"query\",\"params\":" + Params + "}");
      Line = H.recvLine();
      if (Line.find("\"resource-exhausted\"") == std::string::npos)
        break;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    JsonValue Result = JsonValue::object();
    Result.set("epoch", JsonValue::number(EpochId));
    Result.set("engine", JsonValue::string(Degraded ? "partial" : Engine));
    if (Degraded)
      Result.set("degraded", JsonValue::boolean(true));
    Result.set(Key, std::move(Payload));
    if (Key2)
      Result.set(Key2, std::move(Payload2));
    EXPECT_EQ(Line, renderOkReply(JsonValue::number(Id), Result)) << Params;
    ++Id;
  };

  for (uint32_t E : {Ref.M->root().index(), 0u, NumExprs - 1}) {
    std::string Params =
        R"({"kind":"labels","expr":)" + std::to_string(E) + "}";
    expect(Params, "labels",
           Degraded ? idRange(NumLabels) : idArray(Ref.labelsOf(ExprId(E))));
  }
  for (uint32_t L = 0; L != NumLabels; ++L) {
    std::vector<uint32_t> Occ;
    if (Degraded) {
      for (uint32_t I = 0; I != NumExprs; ++I)
        Occ.push_back(I);
    } else {
      for (ExprId E : Ref.Hybrid->queryEngine()->occurrencesOf(LabelId(L)))
        Occ.push_back(E.index());
    }
    expect(R"({"kind":"occurrences","label":)" + std::to_string(L) + "}",
           "exprs", idArray(Occ));
    bool In = true;
    if (!Degraded) {
      std::vector<uint32_t> Root = Ref.labelsOf(Ref.M->root());
      In = std::find(Root.begin(), Root.end(), L) != Root.end();
    }
    expect(R"({"kind":"is-label-in","label":)" + std::to_string(L) + "}",
           "value", JsonValue::boolean(In));
  }
  if (Degraded) {
    expect(R"({"kind":"all-labels"})", "universal", JsonValue::boolean(true),
           "labels", idRange(NumLabels));
  } else {
    JsonValue Sets = JsonValue::array();
    for (uint32_t I = 0; I != NumExprs; ++I) {
      std::vector<uint32_t> Ids = Ref.labelsOf(ExprId(I));
      if (Ids.empty())
        continue;
      JsonValue Row = JsonValue::object();
      Row.set("expr", JsonValue::number(int64_t(I)));
      Row.set("labels", idArray(Ids));
      Sets.push(std::move(Row));
    }
    expect(R"({"kind":"all-labels"})", "sets", std::move(Sets));
  }
}

} // namespace

TEST(Serve, StreamedQueryRepliesMatchTheDomBytes) {
  const std::string Source = makeCubicFamily(3);
  int64_t Nodes = 0;
  {
    ServeHarness H{ServeOptions{}};
    H.send(loadRequest(1, Source));
    JsonValue Load = H.recv();
    ASSERT_TRUE(ServeHarness::okOf(Load)) << renderJson(Load);
    const JsonValue *LR = ServeHarness::resultOf(Load);
    Nodes = LR->field("nodes")->asInt();
    expectQueryRepliesMatchDom(H, Source, LR->field("epoch")->asInt(),
                               LR->field("engine")->asString(), false);
    H.shutdown();
  }
  // Soft budget = cost-1: every query lands in the degraded band.
  ServeOptions O;
  O.MaxInflightCost = static_cast<uint64_t>(Nodes - 1);
  ServeHarness H{O};
  H.send(loadRequest(1, Source));
  JsonValue Load = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Load));
  const JsonValue *LR = ServeHarness::resultOf(Load);
  expectQueryRepliesMatchDom(H, Source, LR->field("epoch")->asInt(),
                             LR->field("engine")->asString(), true);
  H.shutdown();
}

TEST(Serve, AllLabelsOverlappingPointQueriesStayBitExact) {
  // `all-labels` copies the finished kernel's rows outside the epoch
  // mutex; a burst on two workers overlaps those copies with point
  // queries on the same epoch (a race TSan would report), and every
  // answer must still match the batch reference.
  ServeOptions O;
  O.Threads = 2;
  ServeHarness H{O};
  const std::string Source = makeCubicFamily(6);
  H.send(loadRequest(0, Source));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  Reference Ref(Source);
  const uint32_t NumExprs = Ref.M->numExprs();

  std::string Burst;
  const int N = 60;
  for (int I = 1; I <= N; ++I) {
    std::string Params =
        I % 3 == 1 ? R"({"kind":"all-labels"})"
                   : R"({"kind":"labels","expr":)" +
                         std::to_string((I * 7) % NumExprs) + "}";
    Burst += R"({"id":)" + std::to_string(I) +
             R"(,"verb":"query","params":)" + Params + "}\n";
  }
  H.sendRaw(Burst);
  for (int K = 0; K != N; ++K) {
    JsonValue R = H.recv();
    ASSERT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
    const int I = static_cast<int>(R.field("id")->asInt());
    const JsonValue *Result = ServeHarness::resultOf(R);
    if (I % 3 != 1) {
      EXPECT_EQ(labelIdsOf(R), Ref.labelsOf(ExprId((I * 7) % NumExprs)))
          << "request " << I;
      continue;
    }
    uint32_t Rows = 0;
    for (const JsonValue &Row : Result->field("sets")->items()) {
      std::vector<uint32_t> Ids;
      for (const JsonValue &L : Row.field("labels")->items())
        Ids.push_back(static_cast<uint32_t>(L.asInt()));
      EXPECT_EQ(Ids, Ref.labelsOf(ExprId(
                         static_cast<uint32_t>(Row.field("expr")->asInt()))))
          << "request " << I;
      ++Rows;
    }
    uint32_t NonEmpty = 0;
    for (uint32_t E = 0; E != NumExprs; ++E)
      NonEmpty += !Ref.labelsOf(ExprId(E)).empty();
    EXPECT_EQ(Rows, NonEmpty) << "request " << I;
  }
  H.shutdown();
}

//===----------------------------------------------------------------------===//
// The 500-request mixed session (acceptance gate)
//===----------------------------------------------------------------------===//

TEST(Serve, MixedSession500RequestsNoCrashBitExact) {
  ServeOptions O;
  O.Threads = 2;
  O.MaxRequestBytes = 4096;
  ServeHarness H{O};

  const std::string Source = makeCubicFamily(4);
  H.send(loadRequest(0, Source));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  Reference Ref(Source);
  const uint32_t NumExprs = Ref.M->numExprs();

  uint64_t Rng = 0x5eed;
  auto Next = [&Rng] {
    Rng = Rng * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<uint32_t>(Rng >> 33);
  };

  for (int I = 1; I <= 500; ++I) {
    const uint32_t Pick = Next() % 8;
    const std::string Id = std::to_string(I);
    switch (Pick) {
    case 0:
    case 1:
    case 2: { // valid labels query — bit-exact check
      uint32_t E = Next() % NumExprs;
      H.send(R"({"id":)" + Id +
             R"(,"verb":"query","params":{"kind":"labels","expr":)" +
             std::to_string(E) + "}}");
      JsonValue R = H.recv();
      ASSERT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
      ASSERT_EQ(labelIdsOf(R), Ref.labelsOf(ExprId(E)))
          << "request " << I << " expr " << E;
      break;
    }
    case 3: { // malformed JSON
      H.send(R"({"id":)" + Id + R"(,"verb")");
      ASSERT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
      break;
    }
    case 4: { // oversized line
      H.send(std::string(6000, 'z'));
      ASSERT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
      break;
    }
    case 5: { // deadline already expired
      H.send(R"({"id":)" + Id +
             R"(,"verb":"query","params":{"deadline_ms":0}})");
      ASSERT_EQ(ServeHarness::errorCodeOf(H.recv()), "deadline-exceeded");
      break;
    }
    case 6: { // membership query — checked against the reference
      uint32_t E = Next() % NumExprs;
      uint32_t L = Next() % Ref.M->numLabels();
      H.send(R"({"id":)" + Id +
             R"(,"verb":"query","params":{"kind":"is-label-in","expr":)" +
             std::to_string(E) + R"(,"label":)" + std::to_string(L) + "}}");
      JsonValue R = H.recv();
      ASSERT_TRUE(ServeHarness::okOf(R));
      std::vector<uint32_t> Ids = Ref.labelsOf(ExprId(E));
      bool Expect =
          std::find(Ids.begin(), Ids.end(), L) != Ids.end();
      ASSERT_EQ(ServeHarness::resultOf(R)->field("value")->asBool(), Expect);
      break;
    }
    case 7: { // a mid-request fault, when compiled in
#if STCFA_FAULT_INJECTION
      ASSERT_TRUE(armFault(fault::ServeRequestParse));
      H.send(R"({"id":)" + Id + R"(,"verb":"metrics"})");
      std::string Raw = H.recvLine(); // raw first: arming is process-global
      disarmFaults();
      JsonValue R;
      ASSERT_TRUE(parseJson(Raw, R).isOk()) << Raw;
      ASSERT_EQ(ServeHarness::errorCodeOf(R), "out-of-memory");
#else
      H.send(R"({"id":)" + Id + R"(,"verb":"metrics"})");
      ASSERT_TRUE(ServeHarness::okOf(H.recv()));
#endif
      break;
    }
    }
  }
  H.shutdown();
}

TEST(Serve, MetricsReplyMatchesTheDomRendering) {
  // The reply wraps the snapshot's compact rendering; it must be the
  // bytes the old parse-and-re-render of the pretty JSON produced.
  counter("test.metrics_reply.counter").add(12345678901ull);
  gauge("test.metrics_reply.gauge").set(-7);
  histogram("test.metrics_reply.millis", latencyBucketsMillis()).observe(3);
  for (const MetricsSnapshot &S : {snapshotMetrics(), MetricsSnapshot{}})
    for (const JsonValue &Id :
         {JsonValue::number(int64_t(8)), JsonValue::string("m\"1"),
          JsonValue::null()}) {
      JsonValue Dom;
      ASSERT_TRUE(parseJson(S.toJson(), Dom).isOk());
      EXPECT_EQ(renderOkReply(Id, S.toCompactJson()), renderOkReply(Id, Dom));
    }
}

TEST(Serve, PointQueriesAnswerFromTheKernelOnceItIsComplete) {
  const std::string Source = makeCubicFamily(6);
  const std::string Dir =
      testing::TempDir() + "stcfa_serve_point_kernel_cache";
  std::filesystem::remove_all(Dir);
  ServeOptions O;
  O.SnapshotCache = true;
  O.SnapshotDir = Dir;
  Counter &ByKernel = counter("query.point.kernel");
  Counter &ByBfs = counter("query.point.bfs");
  auto labels = [](ServeHarness &H, int Id) {
    H.send(R"({"id":)" + std::to_string(Id) +
           R"(,"verb":"query","params":{"kind":"labels","expr":3}})");
    JsonValue R = H.recv();
    EXPECT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
    return R;
  };
  {
    // Cache miss: a live epoch, no kernel until a batch completes one.
    ServeHarness H{O};
    H.send(loadRequest(1, Source));
    ASSERT_TRUE(ServeHarness::okOf(H.recv()));
    const uint64_t Kernel0 = ByKernel.value(), Bfs0 = ByBfs.value();
    labels(H, 2);
    labels(H, 3);
    EXPECT_EQ(ByKernel.value(), Kernel0);
    EXPECT_EQ(ByBfs.value(), Bfs0 + 2);
    H.send(R"({"id":4,"verb":"query","params":{"kind":"all-labels"}})");
    ASSERT_TRUE(ServeHarness::okOf(H.recv()));
    EXPECT_EQ(ByKernel.value(), Kernel0);
    labels(H, 5);
    EXPECT_EQ(ByKernel.value(), Kernel0 + 1);
    EXPECT_EQ(ByBfs.value(), Bfs0 + 2);
    H.shutdown();
  }
  // Cache hit: the mapped epoch adopts the persisted kernel, so its very
  // first point query reads it.
  ServeHarness H{O};
  H.send(loadRequest(1, Source));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  const uint64_t Kernel0 = ByKernel.value(), Bfs0 = ByBfs.value();
  JsonValue First = labels(H, 2);
  EXPECT_EQ(ServeHarness::resultOf(First)->field("engine")->asString(),
            "snapshot");
  EXPECT_EQ(ByKernel.value(), Kernel0 + 1);
  EXPECT_EQ(ByBfs.value(), Bfs0);
  H.shutdown();
  std::filesystem::remove_all(Dir);
}

//===----------------------------------------------------------------------===//
// Concurrency stress (TSan food)
//===----------------------------------------------------------------------===//

TEST(Serve, ConcurrentLoadsAndQueriesStayRaceFree) {
  ServeOptions O;
  O.Threads = 4;
  ServeHarness H{O};

  // Fire loads and queries without waiting: epochs swap while workers
  // answer against the versions they captured.
  std::string Burst;
  int Requests = 0;
  for (int Round = 0; Round != 10; ++Round) {
    Burst += loadRequest(++Requests,
                         Round % 2 ? kProgram : "let i = fn x => x in i i");
    Burst += "\n";
    for (int Q = 0; Q != 4; ++Q) {
      Burst += R"({"id":)" + std::to_string(++Requests) +
               R"(,"verb":"query","params":{"kind":"labels"}})";
      Burst += "\n";
    }
  }
  H.sendRaw(Burst);
  int OkCount = 0;
  for (int I = 0; I != Requests; ++I) {
    JsonValue R = H.recv();
    // Every reply is structured; queries admitted before the first load
    // completes are impossible here (loads are handled inline first).
    EXPECT_TRUE(ServeHarness::okOf(R)) << renderJson(R);
    OkCount += ServeHarness::okOf(R);
  }
  EXPECT_EQ(OkCount, Requests);
  H.shutdown();
}

//===----------------------------------------------------------------------===//
// The `slice` verb
//===----------------------------------------------------------------------===//

TEST(ServeSlice, FreshEpochSlicesBitExactBothDirections) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kProgram));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  Reference Ref(kProgram);

  // Default target is the module root, default direction backward.
  H.send(R"({"id":2,"verb":"slice"})");
  JsonValue Back = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Back)) << renderJson(Back);
  const JsonValue *BR = ServeHarness::resultOf(Back);
  EXPECT_EQ(BR->field("epoch")->asInt(), 1);
  EXPECT_STREQ(BR->field("dir")->asString().c_str(), "back");
  EXPECT_EQ(BR->field("target")->asInt(), int64_t(Ref.M->root().index()));
  EXPECT_FALSE(BR->field("partial")->asBool());
  EXPECT_EQ(servedSliceExprs(Back),
            Ref.sliceExprs(Ref.M->root(), SliceDirection::Backward));

  // Forward from an explicit occurrence.
  H.send(R"({"id":3,"verb":"slice","params":{"expr":0,"dir":"fwd"}})");
  JsonValue Fwd = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Fwd)) << renderJson(Fwd);
  EXPECT_EQ(servedSliceExprs(Fwd),
            Ref.sliceExprs(ExprId(0), SliceDirection::Forward));

  // Witnesses: one rendered chain per member, each mentioning an edge.
  H.send(R"({"id":4,"verb":"slice","params":{"witness":true}})");
  JsonValue Wit = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Wit)) << renderJson(Wit);
  const JsonValue *WR = ServeHarness::resultOf(Wit);
  ASSERT_NE(WR->field("witnesses"), nullptr);
  const auto &Chains = WR->field("witnesses")->items();
  EXPECT_EQ(Chains.size(), WR->field("exprs")->items().size());
  for (const JsonValue &C : Chains)
    EXPECT_FALSE(C.asString().empty());
  H.shutdown();
}

TEST(ServeSlice, InvalidParamsAreRejected) {
  ServeHarness H{ServeOptions{}};
  H.send(R"({"id":1,"verb":"slice"})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "failed-precondition");

  H.send(loadRequest(2, kProgram));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  H.send(R"({"id":3,"verb":"slice","params":{"expr":99999}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.send(R"({"id":4,"verb":"slice","params":{"dir":"sideways"}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.send(R"({"id":5,"verb":"slice","params":{"witness":"yes"}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "invalid-argument");
  H.send(R"({"id":6,"verb":"slice","params":{"deadline_ms":0}})");
  EXPECT_EQ(ServeHarness::errorCodeOf(H.recv()), "deadline-exceeded");
  H.shutdown();
}

//===----------------------------------------------------------------------===//
// Incremental edits (the `edit` verb)
//===----------------------------------------------------------------------===//

/// Edits need top-level `let ...;` items (docs/SERVE.md); `let ... in`
/// is one opaque body expression with no named definitions to target.
const char *kItems = "let f0 = fn x => x;\n"
                     "let f1 = fn x => f0 (x);\n"
                     "let f2 = fn x => f1 (x);\n"
                     "f2 (fn y => y)";

/// kItems after `replace f1` with a doubled wrapper — the expected
/// semantics of the spliced source (canonical expr/label numbering
/// depends only on item order and content, not on splice whitespace).
const char *kItemsEdited = "let f0 = fn x => x;\n"
                           "let f1 = fn x => f0 (f0 (x));\n"
                           "let f2 = fn x => f1 (x);\n"
                           "f2 (fn y => y)";

std::string editRequest(int Id, const std::string &ParamsJson) {
  return R"({"id":)" + std::to_string(Id) + R"(,"verb":"edit","params":)" +
         ParamsJson + "}";
}

const char *kReplaceF1Params =
    R"({"op":"replace","name":"f1","text":"let f1 = fn x => f0 (f0 (x));"})";

TEST(ServeEdit, EditBeforeLoadFailsCleanly) {
  ServeHarness H{ServeOptions{}};
  H.send(editRequest(1, kReplaceF1Params));
  JsonValue R = H.recv();
  EXPECT_FALSE(ServeHarness::okOf(R));
  EXPECT_EQ(ServeHarness::errorCodeOf(R), "failed-precondition");
  // The session is untouched: a load still works afterwards.
  H.send(loadRequest(2, kItems));
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.shutdown();
}

TEST(ServeEdit, MalformedEditsYieldStructuredErrors) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kItems));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));

  auto ExpectInvalid = [&](const std::string &Line) {
    H.send(Line);
    JsonValue R = H.recv();
    EXPECT_FALSE(ServeHarness::okOf(R)) << renderJson(R);
    EXPECT_EQ(ServeHarness::errorCodeOf(R), "invalid-argument")
        << renderJson(R);
  };

  // Missing params.op entirely.
  ExpectInvalid(R"({"id":2,"verb":"edit"})");
  // Unknown op.
  ExpectInvalid(editRequest(3, R"({"op":"frobnicate"})"));
  // Insert without the required text.
  ExpectInvalid(editRequest(4, R"({"op":"insert"})"));
  // Rename without the required new_name.
  ExpectInvalid(editRequest(5, R"({"op":"rename","name":"f1"})"));
  // Non-string text.
  ExpectInvalid(editRequest(6, R"({"op":"replace","name":"f1","text":7})"));
  // Non-positive line.
  ExpectInvalid(editRequest(
      7, R"({"op":"replace","name":"f1","line":0,)"
         R"("text":"let f1 = fn x => f0 (x);"})"));
  // Structurally valid, semantically rejected: unknown definition...
  ExpectInvalid(editRequest(
      8, R"({"op":"replace","name":"nope","text":"let nope = fn x => x;"})"));
  // ...and deleting a still-referenced definition.
  ExpectInvalid(editRequest(9, R"({"op":"delete","name":"f0"})"));

  // None of the rejections changed the session: the next valid edit
  // installs epoch 2 (the load was epoch 1), and a query answers from it.
  H.send(editRequest(10, kReplaceF1Params));
  JsonValue E = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(E)) << renderJson(E);
  EXPECT_EQ(ServeHarness::resultOf(E)->field("epoch")->asInt(), 2);
  H.send(R"({"id":11,"verb":"query","params":{"kind":"labels"}})");
  EXPECT_TRUE(ServeHarness::okOf(H.recv()));
  H.shutdown();
}

TEST(ServeEdit, DeltaEditInstallsNewEpochBitExact) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kItems));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));

  H.send(editRequest(2, kReplaceF1Params));
  JsonValue E = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(E)) << renderJson(E);
  const JsonValue *R = ServeHarness::resultOf(E);
  EXPECT_EQ(R->field("epoch")->asInt(), 2);
  EXPECT_STREQ(R->field("engine")->asString().c_str(), "delta");
  EXPECT_STREQ(R->field("mode")->asString().c_str(), "delta");
  // A real replace dirties the replaced definition's cone and re-closes
  // at least one consequence edge; the instrumentation must say so.
  EXPECT_GE(R->field("dirty_nodes")->asInt(), 1);
  EXPECT_GE(R->field("reclose_edges")->asInt(), 0);

  Reference Ref(kItemsEdited);
  EXPECT_EQ(R->field("exprs")->asInt(), int64_t(Ref.M->numExprs()));
  EXPECT_EQ(R->field("labels")->asInt(), int64_t(Ref.M->numLabels()));

  // Every label set served from the delta epoch is bit-exact against a
  // batch pipeline over the edited source.
  H.send(R"({"id":3,"verb":"query","params":{"kind":"all-labels"}})");
  JsonValue All = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(All)) << renderJson(All);
  for (const JsonValue &Row :
       ServeHarness::resultOf(All)->field("sets")->items()) {
    auto Ex = static_cast<uint32_t>(Row.field("expr")->asInt());
    std::vector<uint32_t> Ids;
    for (const JsonValue &L : Row.field("labels")->items())
      Ids.push_back(static_cast<uint32_t>(L.asInt()));
    EXPECT_EQ(Ids, Ref.labelsOf(ExprId(Ex))) << "expr " << Ex;
  }

  // Lint serves from the delta epoch's own canonical tables, with the
  // module parsed from the spliced source — findings identical to a
  // fresh load of kItemsEdited.
  H.send(R"({"id":4,"verb":"lint"})");
  JsonValue Lint = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Lint)) << renderJson(Lint);
  EXPECT_STREQ(
      ServeHarness::resultOf(Lint)->field("engine")->asString().c_str(),
      "delta");
  EXPECT_EQ(servedFindings(Lint), Ref.lintFindings());

  // So does slicing: the delta epoch's members are bit-exact against a
  // dependence graph built over the edited source.
  H.send(R"({"id":5,"verb":"slice","params":{"dir":"back"}})");
  JsonValue Sl = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Sl)) << renderJson(Sl);
  EXPECT_STREQ(
      ServeHarness::resultOf(Sl)->field("engine")->asString().c_str(),
      "delta");
  EXPECT_FALSE(ServeHarness::resultOf(Sl)->field("partial")->asBool());
  EXPECT_EQ(servedSliceExprs(Sl),
            Ref.sliceExprs(Ref.M->root(), SliceDirection::Backward));
  H.shutdown();
}

TEST(ServeEdit, EditDuringQueryBurstKeepsBoundEpochAnswers) {
  ServeOptions O;
  O.Threads = 2;
  ServeHarness H{O};

  // Load, a query against epoch 1, the edit, a query against epoch 2 —
  // one burst, so the first query's worker job overlaps the edit's
  // inline handling on the reader thread.
  std::string Burst = loadRequest(1, kItems);
  Burst += "\n";
  Burst += R"({"id":2,"verb":"query","params":{"kind":"labels"}})";
  Burst += "\n";
  Burst += editRequest(3, kReplaceF1Params);
  Burst += "\n";
  Burst += R"({"id":4,"verb":"query","params":{"kind":"labels"}})";
  Burst += "\n";
  H.sendRaw(Burst);

  std::vector<JsonValue> Replies;
  for (int I = 0; I != 4; ++I)
    Replies.push_back(H.recv());
  auto ById = [&](int64_t Id) -> const JsonValue * {
    for (const JsonValue &R : Replies)
      if (const JsonValue *I = R.field("id"); I && I->isInt() &&
                                              I->asInt() == Id)
        return &R;
    return nullptr;
  };
  const JsonValue *Q1 = ById(2), *Ed = ById(3), *Q2 = ById(4);
  ASSERT_NE(Q1, nullptr);
  ASSERT_NE(Ed, nullptr);
  ASSERT_NE(Q2, nullptr);

  // The first query was admitted against epoch 1 and answers for the
  // pre-edit program no matter when the delta epoch's install lands.
  ASSERT_TRUE(ServeHarness::okOf(*Q1)) << renderJson(*Q1);
  EXPECT_EQ(ServeHarness::resultOf(*Q1)->field("epoch")->asInt(), 1);
  EXPECT_EQ(labelIdsOf(*Q1),
            Reference(kItems).labelsOf(Reference(kItems).M->root()));

  ASSERT_TRUE(ServeHarness::okOf(*Ed)) << renderJson(*Ed);
  EXPECT_EQ(ServeHarness::resultOf(*Ed)->field("epoch")->asInt(), 2);

  // The second query (sent after the edit) answers for epoch 2 with the
  // edited program's label sets.
  ASSERT_TRUE(ServeHarness::okOf(*Q2)) << renderJson(*Q2);
  EXPECT_EQ(ServeHarness::resultOf(*Q2)->field("epoch")->asInt(), 2);
  EXPECT_EQ(labelIdsOf(*Q2),
            Reference(kItemsEdited).labelsOf(Reference(kItemsEdited).M->root()));
  H.shutdown();
}

/// A chain of \p N one-line definitions `f0 .. f<N-1>`, each wrapping the
/// previous one, with a body applying the last: large enough that a
/// `lint` or `slice` on a worker overlaps the reader thread's next edit.
std::string chainProgram(int N) {
  std::string Src = "let f0 = fn x => x;\n";
  for (int I = 1; I != N; ++I)
    Src += "let f" + std::to_string(I) + " = fn x => f" +
           std::to_string(I - 1) + " (x);\n";
  return Src + "f" + std::to_string(N - 1) + " (fn y => y)\n";
}

/// The `lint` and `slice` reply lines a fresh full load of \p Source
/// gives, rendered as DOMs through `renderOkReply` and stamped with the
/// epoch id and engine the reply under test reports.
struct FreshReplies {
  std::unique_ptr<Epoch> E;

  explicit FreshReplies(const std::string &Source) {
    LivePipeline P;
    EXPECT_TRUE(P.run(Source, HybridOptions{}).isOk());
    E = std::make_unique<Epoch>(1, std::move(P.M), std::move(P.H));
  }

  std::string lint(const JsonValue &Id, int64_t EpochId,
                   const std::string &Engine) {
    LintResult LR;
    EXPECT_TRUE(E->lint({}, Deadline::infinite(), 1, LR).isOk());
    JsonValue Findings = JsonValue::array();
    for (const LintPassReport &R : LR.Reports)
      for (const LintDiagnostic &D : R.Findings) {
        JsonValue F = JsonValue::object();
        F.set("pass", JsonValue::string(D.RuleId));
        F.set("severity", JsonValue::string(lintSeverityName(D.Severity)));
        F.set("message", JsonValue::string(D.Message));
        F.set("line", JsonValue::number(int64_t(D.Range.Begin.Line)));
        F.set("col", JsonValue::number(int64_t(D.Range.Begin.Col)));
        Findings.push(std::move(F));
      }
    JsonValue Result = JsonValue::object();
    Result.set("epoch", JsonValue::number(EpochId));
    Result.set("engine", JsonValue::string(Engine));
    Result.set("findings", std::move(Findings));
    Result.set("errors", JsonValue::number(int64_t(LR.NumErrors)));
    Result.set("warnings", JsonValue::number(int64_t(LR.NumWarnings)));
    Result.set("notes", JsonValue::number(int64_t(LR.NumNotes)));
    Result.set("partial", JsonValue::boolean(LR.anyPartial()));
    return renderOkReply(Id, Result);
  }

  std::string slice(const JsonValue &Id, int64_t EpochId,
                    const std::string &Engine, ExprId Target,
                    SliceDirection Dir, bool Witness) {
    Epoch::SliceReply SR;
    EXPECT_TRUE(
        E->slice(Target, Dir, Witness, Deadline::infinite(), SR).isOk());
    JsonValue Exprs = JsonValue::array();
    for (ExprId M : SR.Members)
      Exprs.push(JsonValue::number(int64_t(M.index())));
    JsonValue Result = JsonValue::object();
    Result.set("epoch", JsonValue::number(EpochId));
    Result.set("engine", JsonValue::string(Engine));
    Result.set("target", JsonValue::number(int64_t(Target.index())));
    Result.set("dir", JsonValue::string(
                          Dir == SliceDirection::Forward ? "fwd" : "back"));
    Result.set("exprs", std::move(Exprs));
    Result.set("partial", JsonValue::boolean(SR.Partial));
    if (Witness) {
      JsonValue Chains = JsonValue::array();
      for (size_t I = 0; I != SR.Witnesses.size(); ++I)
        Chains.push(JsonValue::string(
            Slicer(*SR.Deps).renderWitness(SR.Witnesses[I])));
      Result.set("witnesses", std::move(Chains));
    }
    return renderOkReply(Id, Result);
  }
};

TEST(ServeEdit, StreamedLintAndSliceRepliesMatchTheDomBytes) {
  // Both epoch flavours — the fresh load, then a delta edit — answer
  // `lint` and `slice` (both directions, with and without witnesses)
  // with exactly the bytes `renderOkReply` gives over a fresh load's DOM.
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kItems));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  int64_t Id = 10;
  auto check = [&](const std::string &Source, int64_t EpochId,
                   const std::string &Engine) {
    FreshReplies Want(Source);
    H.send("{\"id\":" + std::to_string(Id) + ",\"verb\":\"lint\"}");
    EXPECT_EQ(H.recvLine(),
              Want.lint(JsonValue::number(Id), EpochId, Engine));
    ++Id;
    for (uint32_t T = 0; T != Want.E->numExprs(); ++T)
      for (SliceDirection Dir :
           {SliceDirection::Backward, SliceDirection::Forward}) {
        const bool Witness = T % 2 == 0;
        H.send("{\"id\":" + std::to_string(Id) +
               ",\"verb\":\"slice\",\"params\":{\"expr\":" +
               std::to_string(T) + ",\"dir\":\"" +
               (Dir == SliceDirection::Forward ? "fwd" : "back") +
               "\",\"witness\":" + (Witness ? "true" : "false") + "}}");
        EXPECT_EQ(H.recvLine(), Want.slice(JsonValue::number(Id), EpochId,
                                           Engine, ExprId(T), Dir, Witness))
            << "slice from " << T;
        ++Id;
      }
  };
  check(kItems, 1, "subtransitive");
  H.send(editRequest(2, kReplaceF1Params));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  check(kItemsEdited, 2, "delta");
  H.shutdown();
}

TEST(ServeEdit, LintAndSliceBoundToEpochSurviveTheNextEditsInstall) {
  // Two workers run `lint` and a witnessed `slice` bound to delta epoch
  // N while the reader thread applies edit N+1 and installs its epoch:
  // each reply must be the one a fresh load of epoch N's source gives
  // (TSan food: the lazy parse, the dependence graph and the next
  // edit's graph surgery all overlap).
  ServeOptions O;
  O.Threads = 2;
  ServeHarness H{O};
  const int Defs = 60;
  const std::string A = chainProgram(Defs);
  const std::string Mid = "f" + std::to_string(Defs / 2);
  const std::string Prev = "f" + std::to_string(Defs / 2 - 1);
  const std::string OrigText = "let " + Mid + " = fn x => " + Prev + " (x);";
  const std::string EditText =
      "let " + Mid + " = fn x => " + Prev + " (" + Prev + " (x));";
  std::string B = A;
  B.replace(B.find(OrigText), OrigText.size(), EditText);
  auto replaceMid = [&](int ReqId, const std::string &Text) {
    return editRequest(ReqId, R"({"op":"replace","name":")" + Mid +
                                  R"(","text":")" + Text + "\"}");
  };

  H.send(loadRequest(1, A));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));
  H.send(replaceMid(2, EditText)); // epoch 2: the first delta epoch, B
  JsonValue First = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(First)) << renderJson(First);
  ASSERT_STREQ(
      ServeHarness::resultOf(First)->field("engine")->asString().c_str(),
      "delta");

  FreshReplies WantA(A), WantB(B);
  int64_t Id = 100;
  for (int Round = 0; Round != 12; ++Round) {
    // Epoch 2 + Round holds B on even rounds, A on odd ones; this
    // round's edit flips it.
    const int64_t Bound = 2 + Round;
    FreshReplies &Want = Round % 2 == 0 ? WantB : WantA;
    const int64_t LintId = Id++, SliceId = Id++, EditId = Id++;
    H.sendRaw("{\"id\":" + std::to_string(LintId) + ",\"verb\":\"lint\"}\n" +
              "{\"id\":" + std::to_string(SliceId) +
              ",\"verb\":\"slice\",\"params\":{\"witness\":true}}\n" +
              replaceMid(int(EditId), Round % 2 == 0 ? OrigText : EditText) +
              "\n");
    std::string LintLine, SliceLine;
    for (int K = 0; K != 3; ++K) {
      std::string Line = H.recvLine();
      JsonValue R;
      ASSERT_TRUE(parseJson(Line, R).isOk()) << Line;
      ASSERT_TRUE(ServeHarness::okOf(R)) << Line;
      const int64_t Got = R.field("id")->asInt();
      if (Got == LintId)
        LintLine = Line;
      else if (Got == SliceId)
        SliceLine = Line;
      else
        EXPECT_EQ(ServeHarness::resultOf(R)->field("epoch")->asInt(),
                  Bound + 1);
    }
    EXPECT_EQ(LintLine, Want.lint(JsonValue::number(LintId), Bound, "delta"))
        << "round " << Round;
    EXPECT_EQ(SliceLine,
              Want.slice(JsonValue::number(SliceId), Bound, "delta",
                         Want.E->root(), SliceDirection::Backward, true))
        << "round " << Round;
  }
  H.shutdown();
}

#if STCFA_FAULT_INJECTION
TEST(ServeEdit, InstallRaceFallsBackToFullEpochThenRecovers) {
  ServeHarness H{ServeOptions{}};
  H.send(loadRequest(1, kItems));
  ASSERT_TRUE(ServeHarness::okOf(H.recv()));

  // The injected race makes the delta's bound epoch look superseded at
  // install time: the computed delta must be discarded for a full
  // pipeline over the session's (edited) source — never published.
  const uint64_t FallbacksBefore = counter("delta.fallback_full").value();
  ASSERT_TRUE(armFault(fault::DeltaInstallRace));
  H.send(editRequest(2, kReplaceF1Params));
  JsonValue E = H.recv();
  disarmFaults();
  ASSERT_TRUE(ServeHarness::okOf(E)) << renderJson(E);
  const JsonValue *R = ServeHarness::resultOf(E);
  EXPECT_STREQ(R->field("mode")->asString().c_str(), "install-race");
  EXPECT_STREQ(R->field("engine")->asString().c_str(), "subtransitive");
  EXPECT_EQ(R->field("epoch")->asInt(), 2);
  EXPECT_EQ(counter("delta.fallback_full").value(), FallbacksBefore + 1);

  // The fallback epoch serves the edited program exactly.
  H.send(R"({"id":3,"verb":"query","params":{"kind":"labels"}})");
  JsonValue Q = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Q));
  EXPECT_EQ(labelIdsOf(Q),
            Reference(kItemsEdited).labelsOf(Reference(kItemsEdited).M->root()));

  // Disarmed, the next edit rides the delta path again.
  H.send(editRequest(
      4, R"({"op":"replace","name":"f1","text":"let f1 = fn x => f0 (x);"})"));
  JsonValue E2 = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(E2)) << renderJson(E2);
  EXPECT_STREQ(
      ServeHarness::resultOf(E2)->field("mode")->asString().c_str(), "delta");
  EXPECT_STREQ(ServeHarness::resultOf(E2)->field("engine")->asString().c_str(),
               "delta");
  EXPECT_EQ(ServeHarness::resultOf(E2)->field("epoch")->asInt(), 3);
  H.send(R"({"id":5,"verb":"query","params":{"kind":"labels"}})");
  JsonValue Q2 = H.recv();
  ASSERT_TRUE(ServeHarness::okOf(Q2));
  EXPECT_EQ(labelIdsOf(Q2),
            Reference(kItems).labelsOf(Reference(kItems).M->root()));
  H.shutdown();
}
#endif

} // namespace
