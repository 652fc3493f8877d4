//===-- tests/observability_test.cpp - Trace + metrics layer --------------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tests for the observability layer: span nesting and parent linkage
/// (including across threads), counter shard aggregation,
/// histogram bucket boundaries, the disabled-mode no-allocation claim,
/// and the governed-abort telemetry contract (a kernel abort must emit
/// the fallback counter and an instant whose cause names the Status
/// that forced it).
///
//===----------------------------------------------------------------------===//

#include "analysis/HybridCFA.h"
#include "core/FrozenGraph.h"
#include "core/QueryEngine.h"
#include "core/SubtransitiveGraph.h"
#include "gen/Generators.h"
#include "slice/DependenceGraph.h"
#include "support/FaultInjection.h"
#include "support/Metrics.h"
#include "support/Trace.h"

#include "TestUtil.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <thread>
#include <vector>

#include <unistd.h>

using namespace stcfa;

namespace {

/// Enables collection for one test and leaves the layer disabled and
/// empty afterwards (gtest may run several tests in one process).
struct ScopedTracing {
  ScopedTracing() {
    setTracingEnabled(true);
    clearTraceEvents();
  }
  ~ScopedTracing() {
    setTracingEnabled(false);
    clearTraceEvents();
  }
};

/// Disarms on scope exit (mirrors the fault-injection suite's helper).
struct ArmedSite {
  explicit ArmedSite(std::string_view Name) {
    EXPECT_TRUE(armFault(Name)) << "unregistered site " << Name;
  }
  ~ArmedSite() { disarmFaults(); }
};

std::vector<const TraceEventView *>
eventsNamed(const std::vector<TraceEventView> &Evs, std::string_view Name) {
  std::vector<const TraceEventView *> Out;
  for (const TraceEventView &E : Evs)
    if (E.Name == Name)
      Out.push_back(&E);
  return Out;
}

uint64_t intArg(const TraceEventView &E, std::string_view Key) {
  for (const auto &[K, V] : E.Args)
    if (K == Key)
      return V;
  ADD_FAILURE() << "event " << E.Name << " has no arg '" << Key << "'";
  return ~uint64_t(0);
}

//===----------------------------------------------------------------------===//
// Tracing
//===----------------------------------------------------------------------===//

TEST(Trace, CompiledInForTier1) {
  // Tier-1 ctest runs with the gate ON (the default); production builds
  // may turn it off, and then every span folds away at compile time.
  EXPECT_TRUE(tracingCompiledIn());
}

TEST(Trace, SpanNestingAndArgs) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";
  ScopedTracing T;

  {
    Span Outer("test.outer");
    Outer.arg("answer", 42);
    {
      Span Inner("test.inner");
      Inner.arg("cause", "ok");
    }
    { Span Sibling("test.sibling"); }
  }
  traceInstant("test.instant", "cause", "why", "n", 7);

  std::vector<TraceEventView> Evs = snapshotTraceEvents();
  ASSERT_EQ(eventsNamed(Evs, "test.outer").size(), 1u);
  ASSERT_EQ(eventsNamed(Evs, "test.inner").size(), 1u);
  ASSERT_EQ(eventsNamed(Evs, "test.sibling").size(), 1u);
  ASSERT_EQ(eventsNamed(Evs, "test.instant").size(), 1u);

  const TraceEventView &Outer = *eventsNamed(Evs, "test.outer")[0];
  const TraceEventView &Inner = *eventsNamed(Evs, "test.inner")[0];
  const TraceEventView &Sibling = *eventsNamed(Evs, "test.sibling")[0];
  const TraceEventView &Instant = *eventsNamed(Evs, "test.instant")[0];

  // Parent linkage: both children point at the outer span; the outer
  // span is a root.
  EXPECT_EQ(Outer.Parent, 0u);
  EXPECT_EQ(Inner.Parent, Outer.Seq);
  EXPECT_EQ(Sibling.Parent, Outer.Seq);
  EXPECT_EQ(Outer.Phase, 'X');

  // Timestamps nest: the inner span starts no earlier and ends no later.
  EXPECT_GE(Inner.StartNs, Outer.StartNs);
  EXPECT_LE(Inner.StartNs + Inner.DurNs, Outer.StartNs + Outer.DurNs);

  // Arguments survive the round trip.
  EXPECT_EQ(intArg(Outer, "answer"), 42u);
  EXPECT_EQ(Inner.StrKey, "cause");
  EXPECT_EQ(Inner.StrVal, "ok");
  EXPECT_EQ(Instant.Phase, 'i');
  EXPECT_EQ(Instant.StrVal, "why");
  EXPECT_EQ(intArg(Instant, "n"), 7u);

  // The Chrome export is a JSON array naming every span.
  std::string Json = chromeTraceJson();
  EXPECT_EQ(Json.front(), '[');
  EXPECT_NE(Json.find("\"test.outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"ph\": \"i\""), std::string::npos);
}

TEST(Trace, NestingHoldsAcrossPoolLanes) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";
  ScopedTracing T;

  // Spans opened on worker threads (as the daemon's workers do) must link
  // to the enclosing span *on the same thread*, never to a span another
  // thread happens to have open.
  std::vector<std::thread> Workers;
  for (int W = 0; W != 4; ++W)
    Workers.emplace_back([] {
      for (int Task = 0; Task != 2; ++Task) {
        Span Outer("test.thread.outer");
        Span Inner("test.thread.inner");
        (void)Inner;
      }
    });
  for (std::thread &W : Workers)
    W.join();

  std::vector<TraceEventView> Evs = snapshotTraceEvents();
  std::map<uint64_t, const TraceEventView *> BySeq;
  for (const TraceEventView &E : Evs)
    BySeq[E.Seq] = &E;

  auto Outers = eventsNamed(Evs, "test.thread.outer");
  auto Inners = eventsNamed(Evs, "test.thread.inner");
  ASSERT_EQ(Outers.size(), 8u);
  ASSERT_EQ(Inners.size(), 8u);
  for (const TraceEventView *Inner : Inners) {
    auto It = BySeq.find(Inner->Parent);
    ASSERT_NE(It, BySeq.end()) << "dangling parent seq " << Inner->Parent;
    EXPECT_EQ(It->second->Name, "test.thread.outer");
    EXPECT_EQ(It->second->Tid, Inner->Tid)
        << "span parented across threads";
  }
  for (const TraceEventView *Outer : Outers)
    EXPECT_EQ(Outer->Parent, 0u);
}

TEST(Trace, DisabledModeRecordsNothingAndNeverAllocates) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";

  // Warm up this thread's buffer while enabled, so the creation
  // allocation is already accounted for.
  setTracingEnabled(true);
  { Span Warm("test.warm"); }
  setTracingEnabled(false);
  clearTraceEvents();

  uint64_t Before = traceAllocationCount();
  for (int I = 0; I != 10000; ++I) {
    Span S("test.disabled");
    S.arg("i", static_cast<uint64_t>(I));
    S.arg("cause", "disabled");
    traceInstant("test.disabled.instant");
  }
  EXPECT_EQ(traceAllocationCount(), Before)
      << "disabled-mode spans must not touch the heap";
  EXPECT_TRUE(snapshotTraceEvents().empty());
}

TEST(Trace, ClearRetainsBufferCapacity) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";
  ScopedTracing T;

  // First cycle may grow the buffer...
  for (int I = 0; I != 64; ++I) {
    Span S("test.capacity");
    (void)S;
  }
  clearTraceEvents();
  // ...the second cycle of the same size must fit in retained capacity.
  uint64_t Before = traceAllocationCount();
  for (int I = 0; I != 64; ++I) {
    Span S("test.capacity");
    (void)S;
  }
  EXPECT_EQ(traceAllocationCount(), Before);
  EXPECT_EQ(snapshotTraceEvents().size(), 64u);
}

//===----------------------------------------------------------------------===//
// Metrics
//===----------------------------------------------------------------------===//

TEST(Metrics, CounterAggregatesShardsAcrossThreads) {
  Counter &C = counter("test.obs.shard_agg");
  C.reset();

  // More threads than shards, so some shards are shared — the sum must
  // still be exact (fetch_add, never store).
  constexpr int NumThreads = 24;
  constexpr int PerThread = 1000;
  std::vector<std::thread> Ts;
  for (int I = 0; I != NumThreads; ++I)
    Ts.emplace_back([&C] {
      for (int J = 0; J != PerThread; ++J)
        C.inc();
    });
  for (std::thread &T : Ts)
    T.join();
  C.add(5);
  EXPECT_EQ(C.value(), uint64_t(NumThreads) * PerThread + 5);

  // The snapshot sees the same aggregated value, under the same name.
  for (const auto &[Name, V] : snapshotMetrics().Counters) {
    if (Name == "test.obs.shard_agg") {
      EXPECT_EQ(V, uint64_t(NumThreads) * PerThread + 5);
    }
  }
  C.reset();
  EXPECT_EQ(C.value(), 0u);
}

TEST(Metrics, HistogramBucketBoundaries) {
  Histogram &H = histogram("test.obs.hist", {10, 20, 40});
  H.reset();

  // A value equal to a bound lands in that bound's bucket (`le`
  // semantics); anything above the last bound lands in the overflow
  // bucket.
  for (uint64_t V : {0u, 10u})
    H.observe(V); // bucket 0 (<= 10)
  for (uint64_t V : {11u, 20u})
    H.observe(V); // bucket 1 (<= 20)
  for (uint64_t V : {21u, 40u})
    H.observe(V); // bucket 2 (<= 40)
  for (uint64_t V : {41u, 100000u})
    H.observe(V); // overflow

  EXPECT_EQ(H.count(), 8u);
  EXPECT_EQ(H.sum(), 0u + 10 + 11 + 20 + 21 + 40 + 41 + 100000);
  ASSERT_EQ(H.bounds().size(), 3u);
  std::vector<uint64_t> Buckets = H.bucketCounts();
  ASSERT_EQ(Buckets.size(), 4u);
  EXPECT_EQ(Buckets[0], 2u);
  EXPECT_EQ(Buckets[1], 2u);
  EXPECT_EQ(Buckets[2], 2u);
  EXPECT_EQ(Buckets[3], 2u);
  H.reset();
}

TEST(Metrics, SnapshotJsonNamesEveryMetric) {
  counter("test.obs.json_counter").inc();
  gauge("test.obs.json_gauge").set(-3);
  histogram("test.obs.json_hist", latencyBucketsMillis()).observe(4);

  std::string Json = snapshotMetrics().toJson();
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"test.obs.json_counter\": 1"), std::string::npos);
  EXPECT_NE(Json.find("\"test.obs.json_gauge\": -3"), std::string::npos);
  EXPECT_NE(Json.find("\"test.obs.json_hist\""), std::string::npos);
  EXPECT_NE(Json.find("\"buckets\""), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Governed-abort telemetry
//===----------------------------------------------------------------------===//

TEST(Observability, GovernedKernelAbortEmitsFallbackTelemetry) {
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(16));
  ASSERT_TRUE(M);
  SubtransitiveConfig Config;
  Config.Congruence = CongruenceMode::None;
  SubtransitiveGraph G(*M, Config);
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status FreezeStatus;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FreezeStatus);
  ASSERT_TRUE(F);

  QueryEngine E(*F);
  E.setKernelThreshold(1);
  std::vector<ExprId> Es;
  for (uint32_t I = 0; I != M->numExprs(); ++I)
    Es.push_back(ExprId(I));

  Counter &Fallbacks = counter("query.batch.kernel_fallback");
  Counter &Dispatches = counter("query.batch.kernel_dispatch");
  uint64_t FallbacksBefore = Fallbacks.value();
  uint64_t DispatchesBefore = Dispatches.value();

  ScopedTracing T;
  BatchControl Control;
  Control.D = Deadline::afterMillis(0); // expired before the kernel starts
  BatchOutcome Outcome;
  std::vector<DenseBitset> Sets = E.labelsOfBatch(Es, Control, Outcome);

  // The kernel run aborted on the deadline and fell back to BFS (which
  // then aborted too — the whole batch is governed by the same clock).
  EXPECT_EQ(Outcome.S.code(), StatusCode::DeadlineExceeded);
  EXPECT_EQ(Fallbacks.value(), FallbacksBefore + 1);
  EXPECT_EQ(Dispatches.value(), DispatchesBefore)
      << "an aborted kernel run must not count as a dispatch";

  if (tracingCompiledIn()) {
    // The fallback instant names the Status that forced it.
    std::vector<TraceEventView> Evs = snapshotTraceEvents();
    auto Instants = eventsNamed(Evs, "query.kernel-fallback");
    ASSERT_EQ(Instants.size(), 1u);
    EXPECT_EQ(Instants[0]->Phase, 'i');
    EXPECT_EQ(Instants[0]->StrKey, "cause");
    EXPECT_EQ(Instants[0]->StrVal, statusCodeName(Outcome.S.code()));
  }
}

TEST(Observability, HybridRungTransitionCarriesCause) {
  if (!faultInjectionEnabled())
    GTEST_SKIP() << "fault injection compiled out";
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(12));
  ASSERT_TRUE(M);

  Counter &Transitions = counter("hybrid.rung_transitions");
  uint64_t TransitionsBefore = Transitions.value();

  ScopedTracing T;
  Status SolveStatus;
  DegradationReport Report;
  {
    // A blown subtransitive budget forces the ladder down to rung 2.
    ArmedSite Armed(fault::HybridSubtransitiveBudget);
    HybridOptions Opts;
    Opts.Degrade = DegradeMode::Partial;
    HybridCFA H(*M, Opts);
    SolveStatus = H.solve();
    EXPECT_EQ(H.engine(), HybridCFA::Engine::Standard);
    Report = H.report();
  }
  EXPECT_TRUE(SolveStatus.isOk());
  EXPECT_GE(Transitions.value(), TransitionsBefore + 1);

  if (!tracingCompiledIn())
    return;
  // The transition instant's cause must match the rung-1 Status the
  // ladder actually recorded.
  ASSERT_FALSE(Report.Attempts.empty());
  EXPECT_EQ(Report.Attempts[0].S.code(), StatusCode::ResourceExhausted);
  std::vector<TraceEventView> Evs = snapshotTraceEvents();
  auto Instants = eventsNamed(Evs, "hybrid.rung-transition");
  ASSERT_EQ(Instants.size(), 1u);
  EXPECT_EQ(Instants[0]->StrKey, "cause");
  EXPECT_EQ(Instants[0]->StrVal, statusCodeName(Report.Attempts[0].S.code()));
  EXPECT_EQ(intArg(*Instants[0], "to_rung"), 2u);
}

TEST(Observability, SliceBuildSpanCountsRawEdgesAndProjectionSteps) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(16));
  ASSERT_TRUE(M);
  SubtransitiveGraph G(*M, SubtransitiveConfig{});
  G.build();
  ASSERT_TRUE(G.close(Deadline::infinite()).isOk());
  Status FreezeStatus;
  std::unique_ptr<FrozenGraph> F = FrozenGraph::freeze(G, FreezeStatus);
  ASSERT_TRUE(F);

  ScopedTracing T;
  Status BS;
  std::unique_ptr<DependenceGraph> DG = DependenceGraph::build(*M, *F, BS);
  ASSERT_TRUE(DG) << BS.toString();
  std::vector<TraceEventView> Evs = snapshotTraceEvents();
  auto Builds = eventsNamed(Evs, "slice.build");
  ASSERT_EQ(Builds.size(), 1u);
  EXPECT_EQ(intArg(*Builds[0], "dep_nodes"), DG->numDepNodes());
  EXPECT_EQ(intArg(*Builds[0], "dep_edges"), DG->numEdges());
  // The projection re-derives pairs the structural walk already emits,
  // so the dedup drops some raw edges; every canonical node carrying an
  // entity starts one projection walk of at least one step.
  EXPECT_GT(intArg(*Builds[0], "raw_edges"), DG->numEdges());
  std::vector<char> Carries(F->numNodes(), 0);
  for (uint32_t E = 0; E != M->numExprs(); ++E)
    if (uint32_t N = F->nodeOfExpr(ExprId(E)); N != FrozenGraph::None)
      Carries[N] = 1;
  for (uint32_t V = 0; V != M->numVars(); ++V)
    if (uint32_t N = F->nodeOfVar(VarId(V)); N != FrozenGraph::None)
      Carries[N] = 1;
  EXPECT_GE(intArg(*Builds[0], "projection_steps"),
            uint64_t(std::count(Carries.begin(), Carries.end(), 1)));
}

TEST(Observability, BuildSpanCarriesBuildPhaseCounts) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";
  std::unique_ptr<Module> M = parseMaybeInfer(makeCubicFamily(16));
  ASSERT_TRUE(M);
  ScopedTracing T;
  SubtransitiveGraph G(*M, SubtransitiveConfig{});
  G.build();
  SubtransitiveGraph Frag(*M, SubtransitiveConfig{});
  Frag.buildFragment(M->root());
  std::vector<TraceEventView> Evs = snapshotTraceEvents();
  auto Builds = eventsNamed(Evs, "build");
  ASSERT_EQ(Builds.size(), 2u);
  EXPECT_EQ(intArg(*Builds[0], "nodes"), G.stats().BuildNodes);
  EXPECT_EQ(intArg(*Builds[0], "edges"), G.stats().BuildEdges);
  EXPECT_EQ(intArg(*Builds[1], "nodes"), Frag.stats().BuildNodes);
  EXPECT_EQ(intArg(*Builds[1], "edges"), Frag.stats().BuildEdges);
}

TEST(Observability, DriverRunEmitsEveryFrontHalfSpan) {
  if (!tracingCompiledIn())
    GTEST_SKIP() << "tracing compiled out";
  // The real binary, as an operator runs it: one span per layer from
  // parse to render, and the build span's counts are the `--stats`
  // build counts.
  char Dir[] = "/tmp/stcfa-obs-XXXXXX";
  ASSERT_NE(mkdtemp(Dir), nullptr);
  const std::string TracePath = std::string(Dir) + "/trace.json";
  const std::string OutPath = std::string(Dir) + "/out.txt";
  const std::string Cmd = std::string(STCFA_DRIVER_PATH) +
                          " --corpus=cubic:20 --query=all-labels --stats"
                          " --trace-json=" +
                          TracePath + " > " + OutPath;
  ASSERT_EQ(std::system(Cmd.c_str()), 0) << Cmd;
  auto slurp = [](const std::string &Path) {
    std::ifstream In(Path);
    return std::string(std::istreambuf_iterator<char>(In),
                       std::istreambuf_iterator<char>());
  };
  const std::string Trace = slurp(TracePath), Out = slurp(OutPath);
  std::remove(TracePath.c_str());
  std::remove(OutPath.c_str());
  rmdir(Dir);
  for (const char *Name :
       {"parse", "infer", "build", "close", "freeze", "render"})
    EXPECT_NE(Trace.find("\"name\": \"" + std::string(Name) + "\""),
              std::string::npos)
        << "no " << Name << " span";
  // The number after the first \p Key at or past \p From in \p Text.
  auto numberAfter = [](const std::string &Text, size_t From,
                        std::string_view Key) -> uint64_t {
    size_t At = Text.find(Key, From);
    return At == std::string::npos
               ? ~uint64_t(0)
               : std::strtoull(Text.c_str() + At + Key.size(), nullptr, 10);
  };
  const size_t Build = Trace.find("\"name\": \"build\"");
  const size_t Graph = Out.find("graph: build ");
  ASSERT_NE(Build, std::string::npos);
  ASSERT_NE(Graph, std::string::npos);
  EXPECT_EQ(numberAfter(Trace, Build, "\"nodes\": "),
            numberAfter(Out, Graph, "graph: build "));
  EXPECT_EQ(numberAfter(Trace, Build, "\"edges\": "),
            numberAfter(Out, Graph, "nodes / "));
}

} // namespace
