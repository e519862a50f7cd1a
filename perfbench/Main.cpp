//===- perfbench/Main.cpp - Benchmark entry point --------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// perfbench --workload NAME --seed N --seconds S --trace 0|1
//           --work-dir DIR --digests FILE --commit ID [--smoke]
//
// Runs one workload and prints two lines on stdout: a stamp (build,
// machine and input selection) and, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// with every end-to-end metric (--trace 0) or every per-layer metric
// (--trace 1). perfbench/run.py builds this program and invokes it.
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "support/ThreadPool.h"

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>
#include <string>

using namespace balign;
using namespace balign::perfbench;

namespace {

int usage(const char *Why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "NAME --seed N --seconds S --trace 0|1 --work-dir DIR "
               "--digests FILE --commit ID [--smoke]\n",
               Why);
  return 2;
}

bool parseUnsigned(const char *Text, uint64_t &Out) {
  if (!*Text)
    return false;
  char *End = nullptr;
  errno = 0;
  unsigned long long V = std::strtoull(Text, &End, 10);
  if (errno || *End || Text[0] == '-')
    return false;
  Out = V;
  return true;
}

std::string number(double V) {
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

} // namespace

int main(int Argc, char **Argv) {
  // A client whose server-side peer is gone must see EPIPE, not die.
  std::signal(SIGPIPE, SIG_IGN);

  RunConfig Config;
  std::string Commit = "unknown";
  uint64_t Seconds = 0, Trace = 2;
  bool HaveSeed = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--smoke") {
      Config.Smoke = true;
      continue;
    }
    if (I + 1 == Argc)
      return usage(("missing value for " + Arg).c_str());
    const char *Value = Argv[++I];
    if (Arg == "--workload")
      Config.Workload = Value;
    else if (Arg == "--seed")
      HaveSeed = parseUnsigned(Value, Config.Seed);
    else if (Arg == "--seconds") {
      if (!parseUnsigned(Value, Seconds) || Seconds == 0 || Seconds > 600)
        return usage("--seconds wants a whole number in [1, 600]");
    } else if (Arg == "--trace") {
      if (!parseUnsigned(Value, Trace) || Trace > 1)
        return usage("--trace wants 0 or 1");
    } else if (Arg == "--work-dir")
      Config.WorkDir = Value;
    else if (Arg == "--digests")
      Config.DigestFile = Value;
    else if (Arg == "--commit")
      Commit = Value;
    else
      return usage(("unknown argument " + Arg).c_str());
  }
  if (!HaveSeed || Seconds == 0 || Trace > 1 || Config.WorkDir.empty())
    return usage("--seed, --seconds, --trace and --work-dir are required");
  Config.Seconds = static_cast<double>(Seconds);
  Config.Trace = Trace == 1;
  // The committed digests describe full-size inputs only.
  if (Config.Smoke)
    Config.DigestFile.clear();
  Config.Threads = ThreadPool::hardwareThreads();

  if (!balignBuiltWithNdebug()) {
    std::fprintf(stderr, "perfbench: balign was built without "
                         "NDEBUG (assertions on); refusing to report "
                         "figures from it\n");
    return 3;
  }

  using RunFn = RunResult (*)(const RunConfig &);
  static const std::map<std::string, RunFn> Workloads = {
      {"suite-tsp", runSuiteTsp},
      {"bounds-audit", runBoundsAudit},
      {"serve-mixed", runServeMixed},
  };
  auto It = Workloads.find(Config.Workload);
  if (It == Workloads.end())
    return usage(("unknown workload '" + Config.Workload + "'").c_str());

  std::filesystem::create_directories(Config.WorkDir);
  RunResult R = It->second(Config);

  // Every metric of the run's list, in catalogue order, with the
  // catalogue's unit. A per-layer metric a workload never touches is a
  // bypassed layer and reads 0; an end-to-end metric must always be set.
  const std::vector<MetricSpec> &Specs =
      Config.Trace ? perLayerMetrics() : endToEndMetrics();
  std::string Metrics;
  for (const MetricSpec &Spec : Specs) {
    const Metric *Found = nullptr;
    for (const Metric &M : R.Metrics)
      if (M.Name == Spec.Name)
        Found = &M;
    if (!Found && !Config.Trace) {
      std::fprintf(stderr, "perfbench: internal error: metric %s "
                           "was not measured\n", Spec.Name);
      return 1;
    }
    if (Found && Found->Unit != Spec.Unit) {
      std::fprintf(stderr, "perfbench: internal error: metric %s "
                           "has unit %s, want %s\n",
                   Spec.Name, Found->Unit.c_str(), Spec.Unit);
      return 1;
    }
    Metrics += std::string(Metrics.empty() ? "" : ", ") + "\"" + Spec.Name +
               "\": {\"value\": " + number(Found ? Found->Value : 0.0) +
               ", \"unit\": \"" + Spec.Unit + "\"}";
  }

  std::string Stamp = "{\"workload\": " + jsonString(Config.Workload) +
                      ", \"seed\": " + std::to_string(Config.Seed) +
                      ", \"seconds\": " + std::to_string(Seconds) +
                      ", \"trace\": " + std::to_string(Trace) +
                      ", \"smoke\": " + (Config.Smoke ? "true" : "false") +
                      ", \"nproc\": " + std::to_string(Config.Threads) +
                      ", \"commit\": " + jsonString(Commit) +
                      ", \"build_type\": " + jsonString(PERFBENCH_BUILD_TYPE) +
                      ", \"cxx_flags\": " + jsonString(PERFBENCH_CXX_FLAGS) +
                      ", \"balign_ndebug\": true";
  for (const auto &[Key, Json] : R.Notes)
    Stamp += ", " + jsonString(Key) + ": " + Json;
  std::printf("perfbench-stamp %s}\n", Stamp.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              R.Correct ? "true" : "false",
              static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed), Metrics.c_str());
  return 0;
}
