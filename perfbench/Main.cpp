//===-- perfbench/Main.cpp - The stcfa benchmark's entry point ------------===//
///
/// \file
///   perfbench --workload cli_export|serve_query|serve_edit --seed N
///             --seconds S --trace 0|1 --stcfa <driver> --workdir <dir>
///
/// Prints the machine and build identity first, then the workload's
/// report lines, then one JSON line with `correct`, `attempted`, `failed`
/// and `metrics` (end-to-end metrics with `--trace 0`, per-layer metrics
/// with `--trace 1`).  `perfbench/run.py` builds this and the driver and
/// supplies `--stcfa`/`--workdir`.
///
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "support/SimdOps.h"

#include <sys/stat.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool SanitizerMacro = true;
#else
constexpr bool SanitizerMacro = false;
#endif

/// Timings from an instrumented build say nothing about the product.
bool instrumentedBuild() {
  const std::string Flags = PERFBENCH_CXX_FLAGS;
  return SanitizerMacro || Flags.find("-fsanitize") != std::string::npos ||
         Flags.find("--coverage") != std::string::npos ||
         Flags.find("-fprofile-arcs") != std::string::npos;
}

std::string cpuModel() {
  std::ifstream In("/proc/cpuinfo");
  std::string Line;
  while (std::getline(In, Line))
    if (Line.rfind("model name", 0) == 0) {
      size_t Colon = Line.find(':');
      return Colon == std::string::npos ? Line : Line.substr(Colon + 2);
    }
  return "unknown";
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload cli_export|serve_query|serve_edit "
               "--seed N --seconds S --trace 0|1 --stcfa PATH --workdir DIR\n");
  return 2;
}

} // namespace

int main(int Argc, char **Argv) {
  Options O;
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I], Val = Argv[I + 1];
    if (Key == "--workload")
      O.Workload = Val;
    else if (Key == "--seed")
      O.Seed = std::strtoull(Val.c_str(), nullptr, 10);
    else if (Key == "--seconds")
      O.Seconds = std::atof(Val.c_str());
    else if (Key == "--trace")
      O.Trace = Val == "1";
    else if (Key == "--stcfa")
      O.Stcfa = Val;
    else if (Key == "--workdir")
      O.WorkDir = Val;
    else
      return usage();
  }
  if (Argc % 2 != 1 || O.Stcfa.empty() || O.WorkDir.empty() ||
      O.Seconds <= 0)
    return usage();
  if (::access(O.Stcfa.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "perfbench: no driver binary at %s\n",
                 O.Stcfa.c_str());
    return 2;
  }
  if (instrumentedBuild()) {
    std::fprintf(stderr, "perfbench: refusing to measure a sanitizer or "
                         "coverage build (flags: %s)\n",
                 PERFBENCH_CXX_FLAGS);
    return 3;
  }
  ::mkdir(O.WorkDir.c_str(), 0755);

  // The load generator's footprint: one client thread and, for the serve
  // workloads, one pipe connection to one daemon; client threads plus
  // daemon workers stay within nproc.
  const char *Load = O.Workload == "cli_export"
                         ? "1 client thread, 1 driver process at a time"
                     : O.Workload == "serve_query"
                         ? "1 client thread, 1 connection, 4 outstanding, "
                           "daemon --threads=2"
                         : "1 client thread, 1 connection, 1 outstanding, "
                           "daemon --threads=1";
  std::printf("# machine: cpu=\"%s\" simd=%s nproc=%u\n", cpuModel().c_str(),
              stcfa::simd::activePathName(),
              std::thread::hardware_concurrency());
  std::printf("# build: type=%s flags=\"%s\"\n", PERFBENCH_BUILD_TYPE,
              PERFBENCH_CXX_FLAGS);
  std::printf("# run: workload=%s seed=%llu seconds=%g trace=%d load=\"%s\"\n",
              O.Workload.c_str(), (unsigned long long)O.Seed, O.Seconds,
              int(O.Trace), Load);
  std::fflush(stdout);

  Result R;
  if (O.Workload == "cli_export")
    R = runCliExport(O);
  else if (O.Workload == "serve_query")
    R = runServeQuery(O);
  else if (O.Workload == "serve_edit")
    R = runServeEdit(O);
  else
    return usage();

  for (const std::string &Line : R.Report)
    std::printf("%s\n", Line.c_str());
  std::printf("failed_ratio %.6g (failed %llu of %llu attempted ops)\n",
              R.Attempted ? double(R.Failed) / double(R.Attempted) : 1.0,
              (unsigned long long)R.Failed, (unsigned long long)R.Attempted);
  std::fflush(stdout);

  // A figure with no samples behind it must not pass for a measurement:
  // an end-to-end 0 would read as the best result possible.
  for (const Metric &M : R.Metrics)
    if (!std::isfinite(M.Value) || (!O.Trace && M.Value <= 0)) {
      std::fprintf(stderr, "perfbench: no valid measurement for %s (%g)\n",
                   M.Name.c_str(), M.Value);
      return 4;
    }

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 && R.Attempted > 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I != R.Metrics.size(); ++I) {
    char Buf[96];
    std::snprintf(Buf, sizeof(Buf), "%.12g", R.Metrics[I].Value);
    Json += (I ? ", " : "") + jsonQuote(R.Metrics[I].Name) +
            ": {\"value\": " + Buf + ", \"unit\": " +
            jsonQuote(R.Metrics[I].Unit) + "}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
