//===- bench/trace_overhead.cpp - balign-scope zero-overhead-off check ------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Measures the cost of the balign-scope probes and holds the layer to
// its contract:
//
//  1. With no session installed, a probe is one relaxed atomic load.
//     A tight loop measures that unit cost; multiplied by the number of
//     probes a real alignment executes (counted by installing a session
//     and draining it), the total tracing-off tax must stay below the
//     run-to-run noise of the workload itself.
//  2. Tracing must observe, never perturb: a traced and an untraced run
//     of the same alignment produce identical penalties.
//
// Prints a small table and exits nonzero if either assertion fails.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "profile/Trace.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "support/Timer.h"
#include "trace/Scope.h"
#include "workloads/Generator.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace balign;

namespace {

/// A mid-sized synthetic program: big enough that alignment takes real
/// time (so noise is measurable), small enough for a benchmark harness.
Program makeProgram(size_t NumProcs, uint64_t Seed) {
  Program Prog("trace_overhead");
  for (size_t P = 0; P != NumProcs; ++P) {
    Rng R(Seed + P);
    GenParams Params;
    Params.TargetBranchSites = 10;
    Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  return Prog;
}

ProgramProfile makeProfile(const Program &Prog, uint64_t Seed) {
  ProgramProfile Train;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    Rng TraceRng(Seed + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, /*BranchBudget=*/1000));
  }
  return Train;
}

/// Nanoseconds per probe when no session is installed. The empty
/// ScopedSpan must not be optimized away: the relaxed atomic load in
/// TraceSession::active() is real work the compiler keeps, and the
/// barrier pins the loop structure.
double measureOffProbeNs(size_t Iterations) {
  Stopwatch Timer;
  for (size_t I = 0; I != Iterations; ++I) {
    ScopedSpan Probe("bench.probe", SpanCat::Stage);
    asm volatile("" ::: "memory");
  }
  return Timer.seconds() * 1e9 / static_cast<double>(Iterations);
}

} // namespace

int main() {
  std::printf("=== balign-scope probe overhead ===\n");
  Program Prog = makeProgram(16, 1234);
  ProgramProfile Train = makeProfile(Prog, 5678);
  AlignmentOptions Options;
  Options.ComputeBounds = true;
  Options.Threads = 1;

  // Unit cost of a probe with tracing off.
  const size_t ProbeIterations = 1 << 24;
  double OffProbeNs = measureOffProbeNs(ProbeIterations);

  // Count the probes one alignment actually executes, and check the
  // traced run reproduces the untraced penalties exactly.
  ProgramAlignment Untraced = alignProgram(Prog, Train, Options);
  TraceSession Session;
  Session.install();
  ProgramAlignment Traced = alignProgram(Prog, Train, Options);
  Session.uninstall();
  size_t ProbeCount = Session.numSpans();
  bool SameResults = Untraced.totalTspPenalty() == Traced.totalTspPenalty() &&
                     Untraced.totalGreedyPenalty() ==
                         Traced.totalGreedyPenalty();

  // Workload wall time and its run-to-run noise, tracing off.
  const size_t Repeats = 7;
  std::vector<double> WallSeconds;
  for (size_t I = 0; I != Repeats; ++I) {
    Stopwatch Wall;
    alignProgram(Prog, Train, Options);
    WallSeconds.push_back(Wall.seconds());
  }
  double MeanWall = mean(WallSeconds);
  double NoiseSeconds = stddev(WallSeconds);
  double OffTaxSeconds =
      OffProbeNs * static_cast<double>(ProbeCount) / 1e9;
  // The bound is a-priori generous: the whole tracing-off tax of a run
  // must sit below the run's own noise floor (plus an epsilon so a
  // perfectly quiet machine cannot fail on a ~100ns tax).
  double Budget = NoiseSeconds + 1e-4;
  bool WithinNoise = OffTaxSeconds < Budget;

  TextTable T;
  T.addColumn("quantity");
  T.addColumn("value", TextTable::AlignKind::Right);
  T.addRow({"off-probe cost (ns)", formatFixed(OffProbeNs, 2)});
  T.addRow({"probes per alignment", std::to_string(ProbeCount)});
  T.addRow({"tracing-off tax (us)", formatFixed(OffTaxSeconds * 1e6, 3)});
  T.addRow({"alignment wall mean (ms)", formatFixed(MeanWall * 1e3, 3)});
  T.addRow({"alignment wall noise (ms)", formatFixed(NoiseSeconds * 1e3, 3)});
  T.addRow({"tax within noise", WithinNoise ? "yes" : "NO"});
  T.addRow({"traced == untraced", SameResults ? "yes" : "NO"});
  std::printf("%s", T.render().c_str());

  if (!WithinNoise)
    std::fprintf(stderr, "error: tracing-off tax %.3fus exceeds the noise "
                         "budget %.3fus\n",
                 OffTaxSeconds * 1e6, Budget * 1e6);
  if (!SameResults)
    std::fprintf(stderr, "error: tracing perturbed the alignment result\n");
  return WithinNoise && SameResults ? 0 : 1;
}
