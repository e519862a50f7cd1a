//===- perfbench/Bench.h - End-to-end benchmark ----------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Shared pieces of the end-to-end benchmark: the run configuration, the
/// result a workload hands back, the metric catalogue (one list, checked
/// against BENCHMARK.json by the smoke test), and the outside-the-program
/// layer timers the traced run uses. Every per-layer time is taken here,
/// around a call into a layer's public function; no probe lives in src/.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_PERFBENCH_BENCH_H
#define BALIGN_PERFBENCH_BENCH_H

#include "align/Pipeline.h"
#include "cache/Fingerprint.h"
#include "support/Statistics.h"
#include "trace/Scope.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace balign::perfbench {

/// Defined in BuildProbe.cpp, which is compiled into balign_support.
bool balignBuiltWithNdebug();

/// How one benchmark run was invoked.
struct RunConfig {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10.0; ///< Length of the measured window.
  bool Trace = false;    ///< Per-layer run instead of the end-to-end one.
  bool Smoke = false;    ///< Smallest inputs; the benchmark's own test.
  unsigned Threads = 1;  ///< Pool size: the machine's hardware threads.
  std::string WorkDir;   ///< Scratch directory inside the checkout.
  std::string DigestFile; ///< Committed output digests (may be absent).
};

/// One metric, by name, with its unit.
struct Metric {
  std::string Name;
  double Value = 0.0;
  std::string Unit;
};

/// What a workload reports. Notes are "key": value JSON members that go
/// into the stamp line printed before the result.
struct RunResult {
  bool Correct = true;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;
  std::vector<std::pair<std::string, std::string>> Notes;

  void add(const std::string &Name, double Value, const std::string &Unit) {
    Metrics.push_back({Name, Value, Unit});
  }
  void note(const std::string &Key, const std::string &JsonValue) {
    Notes.emplace_back(Key, JsonValue);
  }
  /// Records a correctness-gate mismatch: counted as a failed operation
  /// and reported loudly on stderr.
  void mismatch(const std::string &What);
};

/// Name and unit of every metric the benchmark prints. End-to-end
/// metrics come from the untraced run, per-layer ones from the traced
/// run; each run prints every name of its list.
struct MetricSpec {
  const char *Name;
  const char *Unit;
};
const std::vector<MetricSpec> &endToEndMetrics();
const std::vector<MetricSpec> &perLayerMetrics();

/// Wall-clock seconds since an arbitrary origin (steady clock).
inline double nowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Outside-the-program layer accounting for the traced run: seconds
/// spent in calls to each layer's public functions, plus counts.
class LayerClock {
public:
  /// Runs \p Fn, charging its wall time to \p Layer; returns its result.
  template <typename FnT> decltype(auto) time(const char *Layer, FnT &&Fn) {
    struct Charge {
      LayerClock &Clock;
      const char *Layer;
      double Start = nowSeconds();
      ~Charge() { Clock.Seconds[Layer] += nowSeconds() - Start; }
    } C{*this, Layer};
    return Fn();
  }

  void count(const char *Name, double Delta) { Counts[Name] += Delta; }
  void addSeconds(const char *Layer, double S) { Seconds[Layer] += S; }

  double seconds(const std::string &Layer) const;
  double counted(const std::string &Name) const;

  /// Sum over every layer except those in \p Except.
  double total(const std::vector<std::string> &Except) const;
  /// Sum over the layers in \p Layers.
  double sum(const std::vector<std::string> &Layers) const;

private:
  std::map<std::string, double> Seconds;
  std::map<std::string, double> Counts;
};

/// Replays alignProgram's per-procedure stage sequence for procedure
/// \p ProcIndex through public calls, charging each call to its layer on
/// \p Clock. The result must equal what alignProgram produces for the
/// same procedure (the traced run checks it does). One probe runs work
/// the pipeline does not: "tsp.transform_s" times an extra
/// transformToSymmetric call, work solveDirectedTsp also does inside
/// "tsp.solve_s"; callers keep probes out of replay wall and coverage.
ProcedureAlignment replayProcedure(const Procedure &Proc,
                                   const ProcedureProfile &Train,
                                   const AlignmentOptions &Options,
                                   size_t ProcIndex, LayerClock &Clock);

/// Layers timed by probes that overlap or repeat work timed elsewhere;
/// they are left out of a replay's wall and of trace.coverage.
const std::vector<std::string> &probeLayers();

/// Sum of drained span durations per span name, in seconds.
std::map<std::string, double> spanSeconds(const TraceSession &Session);

/// Adds the span totals the program emitted (stage.*, cache.*, bounds.*,
/// tsp.transform) next to the outside timings of the same layers, with
/// the difference (outside minus span).
void addSpanCrossCheck(RunResult &R, const LayerClock &Clock,
                       const std::map<std::string, double> &Spans);

/// Peak resident set size of this process, in MiB.
double peakRssMiB();

/// Output digest: the cache's fingerprint hasher over layouts, penalties,
/// bounds and response bytes.
class Digest {
public:
  void layout(const Layout &L);
  void alignment(const ProcedureAlignment &PA);
  void program(const ProgramAlignment &A);
  void bytes(const std::string &S) { H.str(S); }
  Fingerprint value() const { return H.digest(); }
  std::string hex() const { return value().str(); }

private:
  Hasher H;
};

/// Looks up the committed digest for (\p Workload, \p Seed); empty when
/// the file or the entry is absent.
std::string committedDigest(const std::string &File,
                            const std::string &Workload, uint64_t Seed);

/// JSON string literal for \p S.
std::string jsonString(const std::string &S);

/// JSON array of \p Values, to microsecond precision.
std::string jsonNumbers(const std::vector<double> &Values);

/// Workload entry points (Batch.cpp, Serve.cpp).
RunResult runSuiteTsp(const RunConfig &Config);
RunResult runBoundsAudit(const RunConfig &Config);
RunResult runServeMixed(const RunConfig &Config);

} // namespace balign::perfbench

#endif // BALIGN_PERFBENCH_BENCH_H
