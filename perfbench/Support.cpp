//===-- perfbench/Support.cpp - Timing, processes, spans, layer table -----===//

#include "Bench.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <numeric>

extern char **environ;

using namespace perfbench;

//===--- statistics ----------------------------------------------------------//

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return std::nan("");
  std::sort(V.begin(), V.end());
  double Pos = Q * double(V.size() - 1);
  size_t Lo = size_t(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - double(Lo));
}

double perfbench::mean(const std::vector<double> &V) {
  return V.empty() ? 0 : std::accumulate(V.begin(), V.end(), 0.0) / V.size();
}

std::string perfbench::describeLatency(const std::vector<double> &Ms) {
  if (Ms.empty())
    return "(n=0)";
  char Buf[128];
  std::snprintf(Buf, sizeof(Buf), "p50 %.4f ms  p90 %.4f ms  (n=%zu)",
                quantile(Ms, 0.5), quantile(Ms, 0.9), Ms.size());
  return Buf;
}

std::vector<std::pair<size_t, size_t>> Timeline::windows(size_t K) const {
  const size_t N = At.size();
  if (N < MinWindows * MinOpsPerWindow)
    K = 1;
  else
    K = std::max(MinWindows, std::min(K, N / MinOpsPerWindow));
  std::vector<std::pair<size_t, size_t>> Out;
  for (size_t W = 0; W != K && N; ++W)
    Out.push_back({N * W / K, N * (W + 1) / K});
  return Out;
}

std::vector<double> Timeline::windowQuantiles(size_t K, double Q) const {
  std::vector<double> Out;
  for (auto [B, E] : windows(K))
    Out.push_back(quantile({Lat.begin() + B, Lat.begin() + E}, Q));
  return Out;
}

std::vector<double> Timeline::windowRates(size_t K) const {
  std::vector<double> Out;
  for (auto [B, E] : windows(K)) {
    const double FromMs = B ? At[B - 1] : 0;
    Out.push_back(double(E - B) * 1e3 / std::max(At[E - 1] - FromMs, 1e-6));
  }
  return Out;
}

std::mt19937_64 perfbench::rngFor(uint64_t Seed, uint64_t Stream) {
  std::seed_seq S{uint32_t(Seed), uint32_t(Seed >> 32), uint32_t(Stream)};
  return std::mt19937_64(S);
}

//===--- child processes -----------------------------------------------------//

Child perfbench::spawnChild(const std::vector<std::string> &Argv, bool PipeIn,
                            bool PipeOut) {
  int InPipe[2] = {-1, -1}, OutPipe[2] = {-1, -1};
  if ((PipeIn && ::pipe2(InPipe, O_CLOEXEC) != 0) ||
      (PipeOut && ::pipe2(OutPipe, O_CLOEXEC) != 0)) {
    std::perror("perfbench: pipe");
    std::exit(2);
  }
  posix_spawn_file_actions_t FA;
  posix_spawn_file_actions_init(&FA);
  if (PipeIn)
    posix_spawn_file_actions_adddup2(&FA, InPipe[0], 0);
  else
    posix_spawn_file_actions_addopen(&FA, 0, "/dev/null", O_RDONLY, 0);
  if (PipeOut)
    posix_spawn_file_actions_adddup2(&FA, OutPipe[1], 1);
  else
    posix_spawn_file_actions_addopen(&FA, 1, "/dev/null", O_WRONLY, 0);

  std::vector<char *> Args;
  for (const std::string &A : Argv)
    Args.push_back(const_cast<char *>(A.c_str()));
  Args.push_back(nullptr);
  Child C;
  int Err = posix_spawn(&C.Pid, Args[0], &FA, nullptr, Args.data(), environ);
  posix_spawn_file_actions_destroy(&FA);
  if (Err != 0) {
    std::fprintf(stderr, "perfbench: cannot start %s: %s\n", Args[0],
                 std::strerror(Err));
    std::exit(2);
  }
  if (PipeIn) {
    ::close(InPipe[0]);
    C.In = InPipe[1];
  }
  if (PipeOut) {
    ::close(OutPipe[1]);
    C.Out = OutPipe[0];
  }
  return C;
}

int perfbench::reapChild(Child &C, long *MaxRssKb) {
  if (C.In >= 0)
    ::close(C.In);
  if (C.Out >= 0)
    ::close(C.Out);
  C.In = C.Out = -1;
  int WStatus = 0;
  struct rusage RU {};
  while (::wait4(C.Pid, &WStatus, 0, &RU) < 0 && errno == EINTR) {
  }
  if (MaxRssKb)
    *MaxRssKb = RU.ru_maxrss;
  C.Pid = -1;
  return WStatus;
}

double perfbench::peakRssMb(pid_t Pid) {
  std::ifstream In("/proc/" + std::to_string(Pid) + "/status");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::atof(Line.c_str() + 6) / 1024.0;
  return 0;
}

bool LineReader::next(std::string &Line) {
  for (;;) {
    size_t Nl = Buf.find('\n', Pos);
    if (Nl != std::string::npos) {
      Line.assign(Buf, Pos, Nl - Pos);
      Pos = Nl + 1;
      return true;
    }
    Buf.erase(0, Pos);
    Pos = 0;
    char Chunk[1 << 16];
    ssize_t N = ::read(Fd, Chunk, sizeof(Chunk));
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Buf.append(Chunk, size_t(N));
  }
}

bool perfbench::writeAll(int Fd, const std::string &S) {
  size_t Off = 0;
  while (Off < S.size()) {
    ssize_t N = ::write(Fd, S.data() + Off, S.size() - Off);
    if (N < 0 && errno == EINTR)
      continue;
    if (N <= 0)
      return false;
    Off += size_t(N);
  }
  return true;
}

void perfbench::writeFile(const std::string &Path, const std::string &Text) {
  std::ofstream Out(Path, std::ios::binary);
  Out << Text;
  if (!Out) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    std::exit(2);
  }
}

//===--- daemon client -------------------------------------------------------//

Daemon::Daemon(const std::string &Stcfa, unsigned Threads)
    : C(spawnChild({Stcfa, "--serve", "--threads=" + std::to_string(Threads)},
                   true, true)),
      Reader(C.Out) {
  // A daemon that dies must surface as failed replies, not kill us.
  ::signal(SIGPIPE, SIG_IGN);
}

Daemon::~Daemon() {
  if (Reaped)
    return;
  ::kill(C.Pid, SIGKILL);
  reapChild(C);
}

bool Daemon::shutdown() {
  std::string Line;
  send("{\"id\":\"bye\",\"verb\":\"shutdown\"}");
  while (recv(Line)) {
  }
  Reaped = true;
  int WStatus = reapChild(C);
  return WIFEXITED(WStatus) && WEXITSTATUS(WStatus) == 0;
}

std::string perfbench::jsonQuote(const std::string &S) {
  std::string Out = "\"";
  for (char Ch : S) {
    switch (Ch) {
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
      if (static_cast<unsigned char>(Ch) < 0x20) {
        char Buf[8];
        std::snprintf(Buf, sizeof(Buf), "\\u%04x", Ch);
        Out += Buf;
      } else {
        Out += Ch;
      }
    }
  }
  return Out + "\"";
}

std::string perfbench::loadRequest(uint64_t Id, const std::string &Source) {
  return "{\"id\":" + std::to_string(Id) +
         ",\"verb\":\"load\",\"params\":{\"source\":" + jsonQuote(Source) +
         "}}";
}

//===--- spans -----------------------------------------------------------------//

Tracer::Scope::Scope(Tracer &T, const char *Name)
    : T(T), Index(int32_t(T.Spans.size())) {
  T.Spans.push_back({Name, nowNs(), 0, T.Open, T.CurOp});
  T.Open = Index;
}

double Tracer::Scope::close() {
  Span &S = T.Spans[Index];
  if (Open) {
    S.End = nowNs();
    T.Open = S.Parent;
    Open = false;
  }
  return (S.End - S.Start) / 1e6;
}

Tracer::Scope::~Scope() { close(); }

std::map<std::string, Tracer::Agg> Tracer::aggregate(bool OpsOnly) const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  std::vector<int32_t> Root(Spans.size());
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    // Parents are recorded before their children.
    Root[I] = S.Parent < 0 ? int32_t(I) : Root[S.Parent];
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.End - S.Start;
  }
  std::map<std::string, Agg> Out;
  for (size_t I = 0; I != Spans.size(); ++I) {
    if (OpsOnly && std::strcmp(Spans[Root[I]].Name, "op") != 0)
      continue;
    Agg &A = Out[Spans[I].Name];
    int64_t Dur = Spans[I].End - Spans[I].Start;
    ++A.Calls;
    A.TotalMs += Dur / 1e6;
    A.SelfMs += (Dur - ChildNs[I]) / 1e6;
  }
  return Out;
}

void Tracer::writeChromeJson(const std::string &Path) const {
  std::string Out = "[\n";
  const int64_t Base = Spans.empty() ? 0 : Spans.front().Start;
  for (size_t I = 0; I != Spans.size(); ++I) {
    const Span &S = Spans[I];
    char Buf[256];
    std::snprintf(Buf, sizeof(Buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"op\":%u,\"parent\":%d}}",
                  I ? ",\n" : "", S.Name, (S.Start - Base) / 1e3,
                  (S.End - S.Start) / 1e3, S.Op, S.Parent);
    Out += Buf;
  }
  writeFile(Path, Out + "\n]\n");
}

//===--- the per-layer table -------------------------------------------------//

const std::vector<LayerMetric> &perfbench::layerMetrics() {
  static const std::vector<LayerMetric> Table = {
      {"parser.ms", "ms"},
      {"parser.exprs", "count"},
      {"sema.ms", "ms"},
      {"core.build_ms", "ms"},
      {"core.close_ms", "ms"},
      {"core.build_nodes_per_expr", "ratio"},
      {"core.build_edges_per_expr", "ratio"},
      {"core.close_nodes_per_expr", "ratio"},
      {"core.close_edges_per_expr", "ratio"},
      {"core.close_over_build_nodes", "ratio"},
      {"core.freeze_ms", "ms"},
      {"core.condense_ms", "ms"},
      {"core.label_sweep_ms", "ms"},
      {"core.kernel_ms", "ms"},
      {"core.point_query_us", "us"},
      {"core.nodes_visited", "count"},
      {"analysis.solve_ms", "ms"},
      {"driver.first_byte_ms", "ms"},
      {"driver.out_mb", "MB"},
      {"driver.render_ms", "ms"},
      {"serve.request_parse_us", "us"},
      {"serve.execute_us", "us"},
      {"serve.reply_render_us", "us"},
      {"serve.reply_bytes", "count"},
      {"serve.transport_us", "us"},
      {"serve.all_labels_execute_ms", "ms"},
      {"serve.all_labels_render_ms", "ms"},
      {"serve.epoch_contention_ratio", "ratio"},
      {"delta.apply_ms", "ms"},
      {"delta.freeze_view_ms", "ms"},
      {"delta.dirty_nodes", "count"},
      {"delta.incremental_ratio", "ratio"},
      {"delta.lazy_pipeline_ms", "ms"},
      {"lint.run_ms", "ms"},
      {"lint.findings", "count"},
      {"slice.dg_build_ms", "ms"},
      {"slice.dep_edges_per_expr", "ratio"},
      {"slice.query_ms", "ms"},
      {"slice.members", "count"},
      {"trace.op_ms", "ms"},
      {"trace.layers_ms", "ms"},
      {"trace.unattributed_ms", "ms"},
  };
  return Table;
}

void perfbench::addLayerMetrics(Result &R,
                                const std::map<std::string, double> &Values) {
  for (const auto &[Name, V] : Values) {
    (void)V;
    bool Known = false;
    for (const LayerMetric &L : layerMetrics())
      Known |= Name == L.Name;
    if (!Known) {
      std::fprintf(stderr, "perfbench: layer metric '%s' not in the table\n",
                   Name.c_str());
      std::abort();
    }
  }
  for (const LayerMetric &L : layerMetrics()) {
    auto It = Values.find(L.Name);
    R.add(L.Name, It == Values.end() ? 0.0 : It->second, L.Unit);
  }
}

void perfbench::reportSpans(Result &R, const Tracer &T, const Options &O,
                            double OpMs, uint64_t Ops,
                            std::map<std::string, double> &Values) {
  char Buf[256];
  R.note("spans (self time = duration minus child spans; probes run beside "
         "the ops):");
  const std::map<std::string, Tracer::Agg> InOps = T.aggregate(true);
  for (const auto &[Name, A] : T.aggregate()) {
    std::snprintf(Buf, sizeof(Buf),
                  "  %-28s calls %7llu  self %10.3f ms  total %10.3f ms%s",
                  Name.c_str(), (unsigned long long)A.Calls, A.SelfMs,
                  A.TotalMs, InOps.count(Name) ? "" : "  (probe)");
    R.note(Buf);
  }
  double LayersMs = 0;
  R.note("per op (mean over " + std::to_string(Ops) + " ops):");
  for (const auto &[Name, A] : InOps) {
    if (Name == "op")
      continue;
    const double PerOp = Ops ? A.SelfMs / double(Ops) : 0;
    LayersMs += PerOp;
    std::snprintf(Buf, sizeof(Buf), "  %-28s %10.4f ms", Name.c_str(), PerOp);
    R.note(Buf);
  }
  std::snprintf(Buf, sizeof(Buf),
                "  %-28s %10.4f ms\n  %-28s %10.4f ms  (= end-to-end op)",
                "unattributed", OpMs - LayersMs, "sum", OpMs);
  R.note(Buf);
  Values["trace.op_ms"] = OpMs;
  Values["trace.layers_ms"] = LayersMs;
  Values["trace.unattributed_ms"] = OpMs - LayersMs;

  std::string Path = O.WorkDir + "/trace-" + O.Workload + ".json";
  T.writeChromeJson(Path);
  R.note("spans written to " + Path);
}
