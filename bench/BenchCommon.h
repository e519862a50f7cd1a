//===- bench/BenchCommon.h - Shared harness utilities ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Utilities shared by the harnesses: whole-program alignment under a
/// trace session (for per-stage times) and simulated execution times.
/// Every harness prints its table to stdout and exits 0 so the
/// whole directory can be run with `for b in build/bench/*; do $b; done`.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_BENCH_BENCHCOMMON_H
#define BALIGN_BENCH_BENCHCOMMON_H

#include "align/Pipeline.h"
#include "objective/Penalty.h"
#include "sim/Simulator.h"
#include "trace/Scope.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace balign {
namespace bench {

/// Summed wall time and count of the drained spans of one name.
struct SpanTotal {
  double Seconds = 0.0;
  size_t Count = 0;
};

/// alignProgram under a fresh TraceSession; \p Spans receives every span
/// name's total. Per-stage compile time is read off the `stage.*` spans,
/// the same probes `align_tool --trace` exports; under parallelism a
/// total sums the spans of every worker.
inline ProgramAlignment alignTraced(const Program &Prog,
                                    const ProgramProfile &Train,
                                    const AlignmentOptions &Options,
                                    std::map<std::string, SpanTotal> &Spans) {
  TraceSession Session;
  Session.install();
  ProgramAlignment Result = alignProgram(Prog, Train, Options);
  Session.uninstall();
  Spans.clear();
  for (const TraceSpan &S : Session.drainSpans()) {
    SpanTotal &Total = Spans[S.Name];
    Total.Seconds += static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
    ++Total.Count;
  }
  return Result;
}

/// True when every name in \p Benchmarks is a suite benchmark; otherwise
/// names the first unknown one on stderr.
inline bool allKnownBenchmarks(const std::vector<std::string> &Benchmarks) {
  for (const std::string &B : Benchmarks) {
    bool Known = false;
    for (const WorkloadSpec &Spec : benchmarkSuite())
      Known |= Spec.Benchmark == B;
    if (!Known) {
      std::fprintf(stderr,
                   "unknown benchmark '%s' (try com dod eqn esp su2 xli)\n",
                   B.c_str());
      return false;
    }
  }
  return true;
}

/// Simulates \p Layouts against one data set's traces; arrangements and
/// predictions come from \p Train (the training profile).
inline SimResult simulateLayouts(const WorkloadInstance &W,
                                 const std::vector<Layout> &Layouts,
                                 const ProgramProfile &Train,
                                 const WorkloadDataSet &TestDs,
                                 const MachineModel &Model) {
  std::vector<MaterializedLayout> Mats;
  Mats.reserve(W.Prog.numProcedures());
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
    Mats.push_back(
        materializeLayout(W.Prog.proc(P), Layouts[P], Train.Procs[P],
                          Model));
  SimConfig Config;
  Config.Model = Model;
  return simulateProgram(W.Prog, Mats, TestDs.Traces, Config);
}

} // namespace bench
} // namespace balign

#endif // BALIGN_BENCH_BENCHCOMMON_H
