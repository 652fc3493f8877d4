//===-- perfbench/Bench.h - Shared pieces of the stcfa benchmark ----------===//
///
/// \file
/// The benchmark runs three closed-loop workloads against the real `stcfa`
/// binary (one-shot driver and `--serve` daemon) and, with `--trace 1`,
/// replays the same generated inputs in-process with a span around every
/// call into a layer's public function.  This header holds what the
/// workload files share: options, timing and percentile helpers, child
/// process plumbing, the span recorder, and the result record.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_BENCH_H
#define PERFBENCH_BENCH_H

#include <sys/types.h>

#include <chrono>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <vector>

namespace perfbench {

//===--- options and results ------------------------------------------------//

struct Options {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// The `stcfa` driver binary under test.
  std::string Stcfa;
  /// Scratch directory for generated inputs and the span dump.
  std::string WorkDir;
};

/// One printed metric: name, value, unit.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What a workload run reports: the final JSON line's fields plus the
/// human-readable report lines printed above it.
struct Result {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::string> Report;

  void add(std::string Name, double Value, std::string Unit) {
    Metrics.push_back({std::move(Name), Value, std::move(Unit)});
  }
  void note(std::string Line) { Report.push_back(std::move(Line)); }
};

/// How many times each workload sets up in one run; `setup_s` is the
/// median, and the last set-up serves the run.
constexpr int SetupReps = 15;

Result runCliExport(const Options &O);
Result runServeQuery(const Options &O);
Result runServeEdit(const Options &O);

//===--- time and statistics ------------------------------------------------//

using Clock = std::chrono::steady_clock;

inline int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double msSince(int64_t StartNs) { return (nowNs() - StartNs) / 1e6; }

/// The \p Q quantile (0..1) of \p V by linear interpolation; NaN when
/// empty, which the result line refuses to print.
double quantile(std::vector<double> V, double Q);
inline double median(std::vector<double> V) { return quantile(std::move(V), 0.5); }
double mean(const std::vector<double> &V);

/// "p50 <x> p90 <y> (n=<n>)" for report lines.
std::string describeLatency(const std::vector<double> &Ms);

/// Op timings stamped with when they completed, for statistics over
/// windows of the run.  The host is shared: other tenants slow it in
/// phases of seconds, which moves a whole-run median by tens of percent
/// between runs but leaves the quiet windows of each run alike.  The
/// end-to-end figures are therefore taken per window and reported at the
/// quiet quartile of the windows.
///
/// A window is a run of consecutive ops, all windows of one run holding
/// the same number of ops (to within one), so every op counts and a slow
/// phase yields slow windows rather than missing ones.  With fewer than
/// `MinOpsPerWindow` ops for each of `MinWindows` windows the whole run
/// is the one window.
class Timeline {
public:
  static constexpr size_t MinWindows = 4, MinOpsPerWindow = 8;

  /// Ops must be added in completion order.
  void add(double AtMs, double Ms) {
    At.push_back(AtMs);
    Lat.push_back(Ms);
  }
  /// The \p Q latency quantile of each of (up to) \p K windows.
  std::vector<double> windowQuantiles(size_t K, double Q) const;
  /// Ops per second in each of the same windows: its op count over the
  /// time from the previous window's last completion (or the start of
  /// the loop) to its own last.
  std::vector<double> windowRates(size_t K) const;

private:
  /// [begin, end) op index ranges of the windows; empty with no ops.
  std::vector<std::pair<size_t, size_t>> windows(size_t K) const;

  std::vector<double> At, Lat;
};

/// The quiet-quartile estimators: the first quartile of per-window
/// latencies, the third quartile of per-window rates.
inline double quietLatency(const std::vector<double> &PerWindow) {
  return quantile(PerWindow, 0.25);
}
inline double quietRate(const std::vector<double> &PerWindow) {
  return quantile(PerWindow, 0.75);
}

/// Deterministic per-purpose random stream derived from the run seed.
std::mt19937_64 rngFor(uint64_t Seed, uint64_t Stream);

//===--- child processes ----------------------------------------------------//

/// A spawned child with optional pipes to its stdin and from its stdout.
struct Child {
  pid_t Pid = -1;
  int In = -1;  ///< write end of the child's stdin, or -1
  int Out = -1; ///< read end of the child's stdout, or -1
};

/// Starts \p Argv[0] with arguments; stdin/stdout are pipes when asked,
/// otherwise /dev/null.  Exits the benchmark on failure to spawn.
Child spawnChild(const std::vector<std::string> &Argv, bool PipeIn,
                 bool PipeOut);

/// Closes the pipes and reaps the child; returns its exit status
/// (`waitpid` encoding) and fills \p MaxRssKb from its rusage.
int reapChild(Child &C, long *MaxRssKb = nullptr);

/// Peak resident set (`VmHWM`) of a live process in MiB; 0 if unreadable.
double peakRssMb(pid_t Pid);

/// Buffered newline-delimited reader over a pipe.
class LineReader {
public:
  explicit LineReader(int Fd) : Fd(Fd) {}
  /// Reads the next line (without its newline); false on EOF.
  bool next(std::string &Line);

private:
  int Fd;
  std::string Buf;
  size_t Pos = 0;
};

/// Writes all of \p S to \p Fd; false on error.
bool writeAll(int Fd, const std::string &S);

/// Writes \p Text to \p Path; exits the benchmark on failure.
void writeFile(const std::string &Path, const std::string &Text);

//===--- the stcfa daemon as a client sees it -------------------------------//

/// One `stcfa --serve` child spoken to over its stdin/stdout pipes.
class Daemon {
public:
  Daemon(const std::string &Stcfa, unsigned Threads);
  ~Daemon();
  Daemon(const Daemon &) = delete;
  Daemon &operator=(const Daemon &) = delete;

  bool send(const std::string &Line) { return writeAll(C.In, Line + "\n"); }
  bool recv(std::string &Line) { return Reader.next(Line); }
  /// One request, one reply (the caller keeps nothing else outstanding).
  bool call(const std::string &Line, std::string &Reply) {
    return send(Line) && recv(Reply);
  }
  pid_t pid() const { return C.Pid; }
  /// Sends `shutdown`, drains to EOF, reaps; returns true on exit code 0.
  bool shutdown();

private:
  Child C;
  LineReader Reader;
  bool Reaped = false;
};

/// JSON string literal for \p S (quotes included).
std::string jsonQuote(const std::string &S);

/// `{"id":<Id>,"verb":"load","params":{"source":...}}`.
std::string loadRequest(uint64_t Id, const std::string &Source);

//===--- span recorder (traced runs only) ------------------------------------//

/// In-memory spans around calls into the layers' public functions: name,
/// start, end, parent span, op id.  Written out once, at the end of the
/// run, as a Chrome-tracing JSON array.
class Tracer {
public:
  struct Span {
    const char *Name;
    int64_t Start;
    int64_t End;
    int32_t Parent;
    uint32_t Op;
  };

  /// RAII span; nests under whatever span is open on this tracer.
  class Scope {
  public:
    Scope(Tracer &T, const char *Name);
    ~Scope();
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;
    /// Closes the span early; returns its duration in ms.
    double close();

  private:
    Tracer &T;
    int32_t Index;
    bool Open = true;
  };

  /// Starts a new op: spans opened until the next call share its id.
  uint32_t beginOp() { return ++CurOp; }

  /// Per span name: call count, summed duration, summed self time (the
  /// duration minus what child spans cover), in ms.  With \p OpsOnly,
  /// only spans inside an `op` span's tree count; the others are probes
  /// measured beside the op, not part of it.
  struct Agg {
    uint64_t Calls = 0;
    double TotalMs = 0;
    double SelfMs = 0;
  };
  std::map<std::string, Agg> aggregate(bool OpsOnly = false) const;

  void writeChromeJson(const std::string &Path) const;

private:
  std::vector<Span> Spans;
  int32_t Open = -1;
  uint32_t CurOp = 0;
};

//===--- the per-layer table -------------------------------------------------//

/// Every per-layer metric the traced run reports, with its unit.  Every
/// traced run prints every entry; a layer a workload bypasses reads 0.
/// Which end-to-end metric each is expected to move is documented in
/// perfbench/README.md.
struct LayerMetric {
  const char *Name;
  const char *Unit;
};
const std::vector<LayerMetric> &layerMetrics();

/// Fills every `layerMetrics()` entry from \p Values (missing names read
/// 0, an unknown name aborts: the table and the workloads must agree).
void addLayerMetrics(Result &R, const std::map<std::string, double> &Values);

/// Adds the span summary (self time and calls per span name) to the
/// report, dumps the spans, and fills the additivity metrics: over
/// \p Ops ops whose mean end-to-end time is \p OpMs, `trace.layers_ms`
/// is the mean layer self time inside the op trees and
/// `trace.unattributed_ms` the explicit remainder.
void reportSpans(Result &R, const Tracer &T, const Options &O, double OpMs,
                 uint64_t Ops, std::map<std::string, double> &Values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_H
