//===-- bench/bench_serve.cpp - Daemon request-latency percentiles --------===//
//
// Part of the stcfa project (PLDI'97 subtransitive CFA reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Request-latency benchmark for `--serve` mode (docs/SERVE.md).  Runs an
/// in-process daemon over pipe pairs — the same byte-level protocol a
/// client sees, minus process spawn — and measures the round trip of each
/// request individually: write the line, block until the reply line.
///
///   * Table 1 — per program: one-time `load` cost, then p50/p95/p99 over
///     a sweep of `labels` queries at rotating expressions, plus single
///     `all-labels` and `lint` round trips.
///   * Table 2 — epoch scaling: in-process `Epoch::labelsOf` calls per
///     second on one ~9k-expression epoch from 1, 2 and 4 caller threads,
///     BFS-backed (no kernel yet) and kernel-backed (after one
///     `all-labels`), with the per-call contention ratio (2 threads over
///     1; 1.0 means the callers never wait on each other).
///
/// Emits `BENCH_serve.json` so CI can diff tail latencies across
/// revisions.
///
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"

#include "gen/Generators.h"
#include "serve/Epoch.h"
#include "serve/Json.h"
#include "serve/Server.h"
#include "support/TablePrinter.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

using namespace stcfa;
using namespace stcfa::bench;

namespace {

/// In-process daemon over two pipe pairs.  Requests go down Req, replies
/// come back up Rep; the run loop executes on its own thread, exactly as
/// the driver wires it, so the measured path includes parse, dispatch,
/// admission, the worker hop, and reply serialization.
class ServeDaemon {
public:
  explicit ServeDaemon(serve::ServeOptions Opts = {}) {
    if (pipe(Req) != 0 || pipe(Rep) != 0) {
      std::perror("pipe");
      std::abort();
    }
    Daemon = std::make_unique<serve::Server>(Req[0], Rep[1], Opts);
    Runner = std::thread([this] { Daemon->run(); });
    In = fdopen(Rep[0], "r");
  }

  ~ServeDaemon() {
    close(Req[1]); // EOF -> the run loop drains and returns
    Runner.join();
    if (In)
      fclose(In); // closes Rep[0]
    close(Req[0]);
    close(Rep[1]);
  }

  /// One full round trip: write the request line, block for the reply
  /// line.  The single-request-in-flight discipline keeps the measured
  /// time attributable to this request alone.
  std::string roundTrip(const std::string &Request) {
    std::string Line = Request + "\n";
    ssize_t W = write(Req[1], Line.data(), Line.size());
    if (W != static_cast<ssize_t>(Line.size())) {
      std::fprintf(stderr, "bench_serve: short write\n");
      std::abort();
    }
    char *Buf = nullptr;
    size_t Cap = 0;
    ssize_t N = getline(&Buf, &Cap, In);
    std::string Reply = N > 0 ? std::string(Buf, static_cast<size_t>(N))
                              : std::string();
    free(Buf);
    return Reply;
  }

private:
  int Req[2] = {-1, -1};
  int Rep[2] = {-1, -1};
  std::unique_ptr<serve::Server> Daemon;
  std::thread Runner;
  std::FILE *In = nullptr;
};

std::string requestLine(int Id, const char *Verb, serve::JsonValue Params) {
  serve::JsonValue R = serve::JsonValue::object();
  R.set("id", serve::JsonValue::number(int64_t(Id)));
  R.set("verb", serve::JsonValue::string(Verb));
  R.set("params", std::move(Params));
  return serve::renderJson(R);
}

std::string loadLine(int Id, const std::string &Source) {
  serve::JsonValue P = serve::JsonValue::object();
  P.set("source", serve::JsonValue::string(Source));
  return requestLine(Id, "load", std::move(P));
}

std::string labelsLine(int Id, uint32_t Expr) {
  serve::JsonValue P = serve::JsonValue::object();
  P.set("kind", serve::JsonValue::string("labels"));
  P.set("expr", serve::JsonValue::number(int64_t(Expr)));
  return requestLine(Id, "query", std::move(P));
}

/// Aborts on an error reply so a red bench can't masquerade as a fast
/// one, and returns `result.exprs` from load replies (0 otherwise).
uint32_t checkReply(const std::string &Reply) {
  serve::JsonValue V;
  if (!serve::parseJson(Reply, V).isOk() || !V.field("ok") ||
      !V.field("ok")->asBool()) {
    std::fprintf(stderr, "bench_serve: error reply: %s", Reply.c_str());
    std::abort();
  }
  const serve::JsonValue *Result = V.field("result");
  const serve::JsonValue *Exprs = Result ? Result->field("exprs") : nullptr;
  return Exprs && Exprs->isInt() ? static_cast<uint32_t>(Exprs->asInt()) : 0;
}

double percentile(std::vector<double> Sorted, double P) {
  if (Sorted.empty())
    return 0;
  size_t Index = static_cast<size_t>(P / 100.0 *
                                     static_cast<double>(Sorted.size() - 1) +
                                     0.5);
  return Sorted[std::min(Index, Sorted.size() - 1)];
}

/// `Epoch::labelsOf` calls per second with \p Threads callers running
/// \p Calls calls each over \p Exprs (rotated per thread); best of 5.
double labelsPerSecond(serve::Epoch &E, const std::vector<uint32_t> &Exprs,
                       unsigned Threads, size_t Calls) {
  double Best = 0;
  for (int Rep = 0; Rep != 5; ++Rep) {
    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};
    std::vector<std::thread> Ts;
    for (unsigned T = 0; T != Threads; ++T)
      Ts.emplace_back([&, T] {
        DenseBitset Out;
        Ready.fetch_add(1);
        while (!Go.load())
          std::this_thread::yield();
        for (size_t I = 0; I != Calls; ++I)
          (void)E.labelsOf(ExprId(Exprs[(I + T * 997) % Exprs.size()]),
                           Deadline::infinite(), Out);
      });
    while (Ready.load() != Threads)
      std::this_thread::yield();
    Timer T;
    Go.store(true);
    for (std::thread &Th : Ts)
      Th.join();
    Best = std::max(Best, double(Threads * Calls) / (T.millis() / 1e3));
  }
  return Best;
}

void printEpochScaling(JsonReport &Report) {
  std::printf("== Epoch point-query scaling (in-process, lock-free) ==\n");
  TablePrinter Table({"backend", "exprs", "1 thr (q/s)", "2 thr (q/s)",
                      "4 thr (q/s)", "us/call 1", "us/call 2", "ratio 2/1"});
  RandomProgramOptions RO;
  RO.Seed = 7;
  RO.NumBindings = 900;
  RO.UseDatatypes = false;
  serve::LivePipeline P;
  if (!P.run(makeRandomProgram(RO), {}).isOk()) {
    std::fprintf(stderr, "bench_serve: epoch program failed to load\n");
    std::abort();
  }
  serve::Epoch E(1, std::move(P.M), std::move(P.H));
  const uint32_t Exprs = E.numExprs();
  std::vector<uint32_t> Probe;
  for (uint32_t I = 0; I != 4000; ++I)
    Probe.push_back(uint32_t((uint64_t(I) * 2654435761u) % Exprs));

  for (const char *Backend : {"bfs", "kernel"}) {
    size_t Calls = 4000;
    if (std::string(Backend) == "kernel") {
      InternedLabelSets Sets; // completes and publishes the kernel
      (void)E.allLabels(Deadline::infinite(), Sets);
      Calls = 40000;
    }
    double Qps[3];
    const unsigned Threads[3] = {1, 2, 4};
    for (int K = 0; K != 3; ++K)
      Qps[K] = labelsPerSecond(E, Probe, Threads[K], Calls);
    const double Us1 = 1e6 / Qps[0], Us2 = 2e6 / Qps[1], Us4 = 4e6 / Qps[2];
    Table.addRow({Backend, TablePrinter::num(uint64_t(Exprs)),
                  TablePrinter::num(Qps[0]), TablePrinter::num(Qps[1]),
                  TablePrinter::num(Qps[2]), TablePrinter::num(Us1),
                  TablePrinter::num(Us2), TablePrinter::num(Us2 / Us1)});
    Report.record("epoch_scaling")
        .add("backend", std::string(Backend))
        .add("exprs", Exprs)
        .add("calls_per_thread", uint64_t(Calls))
        .add("qps_1", Qps[0])
        .add("qps_2", Qps[1])
        .add("qps_4", Qps[2])
        .add("us_per_call_1", Us1)
        .add("us_per_call_2", Us2)
        .add("us_per_call_4", Us4)
        .add("contention_ratio", Us2 / Us1);
  }
  std::printf("%s\n", Table.render().c_str());
}

void printPaperTables() {
  std::printf("== Serve-mode request latency (in-process pipe) ==\n");
  TablePrinter Table({"prog", "exprs", "load(ms)", "queries", "p50(ms)",
                      "p95(ms)", "p99(ms)", "all-labels(ms)", "lint(ms)"});
  JsonReport Report("serve");

  struct Prog {
    std::string Name;
    std::string Source;
  };
  const Prog Progs[] = {{"cubic:16", makeCubicFamily(16)},
                        {"cubic:64", makeCubicFamily(64)},
                        {"joinpoint:64", makeJoinPointFamily(64)}};
  constexpr int kQueries = 200;

  for (const Prog &P : Progs) {
    ServeDaemon D;
    int Id = 0;

    Timer LoadTimer;
    uint32_t Exprs = checkReply(D.roundTrip(loadLine(++Id, P.Source)));
    double LoadMs = LoadTimer.millis();

    // Warm-up pass so first-touch page faults land outside the sweep.
    for (int I = 0; I != 8; ++I)
      checkReply(D.roundTrip(labelsLine(++Id, uint32_t(I) % Exprs)));

    std::vector<double> Millis;
    Millis.reserve(kQueries);
    for (int I = 0; I != kQueries; ++I) {
      Timer T;
      std::string Reply =
          D.roundTrip(labelsLine(++Id, uint32_t(I * 7) % Exprs));
      Millis.push_back(T.millis());
      checkReply(Reply);
    }
    std::sort(Millis.begin(), Millis.end());
    double P50 = percentile(Millis, 50), P95 = percentile(Millis, 95),
           P99 = percentile(Millis, 99);

    serve::JsonValue AllParams = serve::JsonValue::object();
    AllParams.set("kind", serve::JsonValue::string("all-labels"));
    Timer AllTimer;
    checkReply(
        D.roundTrip(requestLine(++Id, "query", std::move(AllParams))));
    double AllMs = AllTimer.millis();

    Timer LintTimer;
    checkReply(
        D.roundTrip(requestLine(++Id, "lint", serve::JsonValue::object())));
    double LintMs = LintTimer.millis();

    Table.addRow({P.Name, TablePrinter::num(uint64_t(Exprs)),
                  TablePrinter::num(LoadMs),
                  TablePrinter::num(uint64_t(kQueries)),
                  TablePrinter::num(P50), TablePrinter::num(P95),
                  TablePrinter::num(P99), TablePrinter::num(AllMs),
                  TablePrinter::num(LintMs)});
    Report.record("serve_latency")
        .add("prog", P.Name)
        .add("exprs", Exprs)
        .add("load_ms", LoadMs)
        .add("queries", kQueries)
        .add("p50_ms", P50)
        .add("p95_ms", P95)
        .add("p99_ms", P99)
        .add("all_labels_ms", AllMs)
        .add("lint_ms", LintMs);
  }

  std::printf("%s\n", Table.render().c_str());
  printEpochScaling(Report);
}

void BM_ServeLabelsRoundTrip(benchmark::State &State) {
  ServeDaemon D;
  int Id = 0;
  uint32_t Exprs = checkReply(D.roundTrip(
      loadLine(++Id, makeCubicFamily(static_cast<int>(State.range(0))))));
  uint32_t Expr = 0;
  for (auto _ : State) {
    std::string Reply = D.roundTrip(labelsLine(++Id, Expr++ % Exprs));
    benchmark::DoNotOptimize(Reply.data());
  }
}
BENCHMARK(BM_ServeLabelsRoundTrip)->Arg(16)->Arg(64)->Unit(
    benchmark::kMillisecond);

} // namespace

STCFA_BENCH_MAIN(printPaperTables)
