//===- bench/table2_compile_times.cpp - Reproduces Table 2 -----------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Table 2 reports per-stage compile/profile times for the worst data set
// of each benchmark. Our toolchain's analogous stages:
//
//   paper stage              ours
//   Intermediate Repr.    -> workload CFG generation
//   Instrumented Program  -> the profile walk (the "profiling run")
//   Greedy Program        -> greedy alignment            (stage.greedy)
//   TSP Matrix            -> DTSP cost-matrix construction (stage.matrix)
//   TSP Solver            -> iterated 3-Opt over all procedures
//                                                         (stage.solve)
//   TSP Program           -> layout materialization
//
// The three alignment stages are read off the pipeline's trace spans
// (summed over procedures); the other stages run outside alignProgram
// and are timed here with a wall-clock stopwatch.
//
// Absolute seconds are incomparable (1997 SUIF on an AlphaStation vs
// this machine); the *shape* to check is that the TSP solver dominates
// the alignment stages without being out of line with the rest of the
// toolchain (paper, Section 3.2).
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "cache/Store.h"
#include "support/Format.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <filesystem>

using namespace balign;
using namespace balign::bench;

namespace {

/// Paper Table 2 (seconds; IR / instrumented / greedy / matrix / solver /
/// tsp-program / profiling-run), worst data set per benchmark.
struct PaperRow {
  const char *Benchmark;
  double Ir, Instrumented, Greedy, Matrix, Solver, TspProgram, ProfileRun;
};

const PaperRow PaperRows[] = {
    {"com", 33.4, 12.5, 7.5, 4.4, 36.5, 7.7, 86.5},
    {"dod", 1288.8, 507.1, 185.2, 100.0, 418.0, 190.3, 72.5},
    {"eqn", 89.9, 42.4, 31.0, 16.6, 141.9, 34.1, 210.0},
    {"esp", 520.8, 241.1, 164.1, 98.9, 634.9, 162.7, 98.2},
    {"su2", 210.1, 85.9, 40.9, 25.1, 178.3, 40.8, 218.6},
    {"xli", 163.4, 83.9, 58.4, 36.8, 314.1, 58.3, 29.4},
};

} // namespace

namespace {

/// Serial-vs-parallel alignProgram on the largest benchmark: the
/// scaling lever that decides whether TSP alignment can run on every
/// build. Determinism is asserted here too: every thread
/// count must reproduce the serial penalties exactly. The solve column
/// sums the stage.solve spans of every worker, so it is work, not wall
/// time, and grows when workers contend for cores or memory.
void runParallelScaling(const WorkloadInstance &W, size_t DataSet) {
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  const ProgramProfile &Profile = W.DataSets[DataSet].Profile;

  std::printf("\n=== Parallel alignment scaling (%s, %zu procedures, "
              "%u hardware threads) ===\n",
              W.Spec.Benchmark.c_str(), W.Prog.numProcedures(),
              ThreadPool::hardwareThreads());

  TextTable T;
  T.addColumn("threads", TextTable::AlignKind::Right);
  T.addColumn("wall-s", TextTable::AlignKind::Right);
  T.addColumn("solve-s", TextTable::AlignKind::Right);
  T.addColumn("speedup", TextTable::AlignKind::Right);
  T.addColumn("identical", TextTable::AlignKind::Right);

  unsigned Hw = ThreadPool::hardwareThreads();
  std::vector<unsigned> Counts = {1, 2, 4};
  if (Hw > 4)
    Counts.push_back(Hw);

  double SerialWall = 0.0;
  uint64_t SerialPenalty = 0;

  for (unsigned Threads : Counts) {
    Options.Threads = Threads;
    std::map<std::string, SpanTotal> Spans;
    Stopwatch Wall;
    ProgramAlignment Result = alignTraced(W.Prog, Profile, Options, Spans);
    double WallSeconds = Wall.seconds();
    double SolveSeconds = Spans["stage.solve"].Seconds;
    bool Identical = true;
    if (Threads == 1) {
      SerialWall = WallSeconds;
      SerialPenalty = Result.totalTspPenalty();
    } else {
      Identical = Result.totalTspPenalty() == SerialPenalty;
    }
    double Speedup = WallSeconds > 0.0 ? SerialWall / WallSeconds : 1.0;
    T.addRow({std::to_string(Threads), formatFixed(WallSeconds, 3),
              formatFixed(SolveSeconds, 3), formatFixed(Speedup, 2),
              Identical ? "yes" : "NO"});
    if (!Identical)
      std::fprintf(stderr,
                   "error: %u-thread run diverged from the serial run\n",
                   Threads);
  }
  std::printf("%s", T.render().c_str());
  std::printf("(speedup is bounded by the machine's %u hardware threads)\n",
              Hw);
}

/// Cold-vs-warm alignProgram through the balign-cache disk store on the
/// same workload: in a realistic build loop most procedures do not
/// change between compiles, so the warm path is the compile time a
/// developer actually sees. Correctness is
/// asserted inline: the warm runs must hit on every profiled procedure,
/// record no stage.solve span, and reproduce the cold penalties exactly.
void runCacheColdWarm(const WorkloadInstance &W, size_t DataSet) {
  const ProgramProfile &Profile = W.DataSets[DataSet].Profile;
  std::string Dir =
      (std::filesystem::temp_directory_path() / "balign_bench_cache")
          .string();
  std::filesystem::remove_all(Dir);

  std::printf("\n=== Cache cold vs. warm (%s, %zu procedures) ===\n",
              W.Spec.Benchmark.c_str(), W.Prog.numProcedures());

  AlignmentOptions Base;
  Base.ComputeBounds = false;
  Base.Cache = CacheMode::Disk;
  Base.CachePath = Dir;

  TextTable T;
  T.addColumn("run");
  T.addColumn("threads", TextTable::AlignKind::Right);
  T.addColumn("wall-s", TextTable::AlignKind::Right);
  T.addColumn("solve-s", TextTable::AlignKind::Right);
  T.addColumn("hits", TextTable::AlignKind::Right);
  T.addColumn("misses", TextTable::AlignKind::Right);
  T.addColumn("identical", TextTable::AlignKind::Right);

  double ColdWall = 0.0;
  double WarmWall = 0.0;
  uint64_t ColdPenalty = 0;

  struct Run {
    const char *Label;
    unsigned Threads;
  };
  for (const Run &R : {Run{"cold", 1}, Run{"warm", 1}, Run{"warm", 8}}) {
    AlignmentOptions Options = Base;
    Options.Threads = R.Threads;
    // A fresh session per run: warm runs reload the store from disk the
    // way a new compiler process would.
    CacheSession Session(Options);
    std::map<std::string, SpanTotal> Spans;
    Stopwatch Wall;
    ProgramAlignment Result = alignTraced(W.Prog, Profile, Options, Spans);
    double WallSeconds = Wall.seconds();
    const SpanTotal &Solve = Spans["stage.solve"];
    std::string Error;
    if (!Session.flush(&Error))
      std::fprintf(stderr, "error: cache flush failed: %s\n", Error.c_str());
    CacheStats Stats = Session.stats();

    bool Identical = true;
    bool IsCold = std::string(R.Label) == "cold";
    if (IsCold) {
      ColdWall = WallSeconds;
      ColdPenalty = Result.totalTspPenalty();
    } else {
      if (R.Threads == 1)
        WarmWall = WallSeconds;
      Identical = Result.totalTspPenalty() == ColdPenalty &&
                  Solve.Count == 0 && Stats.Misses == 0;
      if (!Identical)
        std::fprintf(stderr,
                     "error: warm %u-thread run diverged (penalty %llu vs "
                     "%llu, %zu stage.solve spans, misses %llu)\n",
                     R.Threads,
                     static_cast<unsigned long long>(
                         Result.totalTspPenalty()),
                     static_cast<unsigned long long>(ColdPenalty),
                     Solve.Count,
                     static_cast<unsigned long long>(Stats.Misses));
    }
    T.addRow({R.Label, std::to_string(R.Threads),
              formatFixed(WallSeconds, 3), formatFixed(Solve.Seconds, 3),
              std::to_string(Stats.Hits), std::to_string(Stats.Misses),
              Identical ? "yes" : "NO"});
  }
  std::printf("%s", T.render().c_str());

  double Speedup = WarmWall > 0.0 ? ColdWall / WarmWall : 0.0;
  std::printf("(warm runs replay validated cached results —\n %.1fx faster "
              "end to end with zero solver invocations)\n",
              Speedup);
  std::filesystem::remove_all(Dir);
}

} // namespace

int main() {
  std::printf("=== Table 2: compilation and profiling times (seconds) "
              "===\n");
  std::printf("(worst data set per benchmark; paper columns from SUIF on "
              "an AlphaStation 500/266)\n\n");

  TextTable T;
  T.addColumn("bench");
  T.addColumn("cfg-gen", TextTable::AlignKind::Right);
  T.addColumn("profile-walk", TextTable::AlignKind::Right);
  T.addColumn("greedy", TextTable::AlignKind::Right);
  T.addColumn("tsp-matrix", TextTable::AlignKind::Right);
  T.addColumn("tsp-solver", TextTable::AlignKind::Right);
  T.addColumn("materialize", TextTable::AlignKind::Right);
  T.addColumn("paper solver", TextTable::AlignKind::Right);
  T.addColumn("paper greedy", TextTable::AlignKind::Right);

  // The benchmark with the most solver work hosts the parallel-scaling
  // study after the table.
  WorkloadInstance Largest;
  size_t LargestWorstDs = 0;
  double LargestSolveSeconds = -1.0;

  for (const WorkloadSpec &Spec : benchmarkSuite()) {
    // Time the CFG + data-set construction.
    Stopwatch BuildTimer;
    WorkloadInstance W = buildWorkload(Spec);
    double BuildSeconds = BuildTimer.seconds();

    // The worst (larger-budget) data set.
    size_t Worst =
        W.DataSets[0].BranchBudget >= W.DataSets[1].BranchBudget ? 0 : 1;

    // Re-time the profile walk alone for the worst data set.
    Stopwatch WalkTimer;
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
      Rng WalkRng(P + 1);
      walkProfile(W.Prog.proc(P), W.DataSets[Worst].Behaviors[P], WalkRng,
                  W.DataSets[Worst].Profile.Procs[P].executedBranches(
                      W.Prog.proc(P)));
    }
    double WalkSeconds = WalkTimer.seconds();

    AlignmentOptions Options;
    Options.ComputeBounds = false; // Bounds excluded, as in the paper.
    std::map<std::string, SpanTotal> Spans;
    ProgramAlignment Result =
        alignTraced(W.Prog, W.DataSets[Worst].Profile, Options, Spans);
    double SolveSeconds = Spans["stage.solve"].Seconds;

    Stopwatch MaterializeTimer;
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
      materializeLayout(W.Prog.proc(P), Result.Procs[P].TspLayout,
                        W.DataSets[Worst].Profile.Procs[P], Options.Model);
    double MaterializeSeconds = MaterializeTimer.seconds();

    const PaperRow *Paper = nullptr;
    for (const PaperRow &Row : PaperRows)
      if (Spec.Benchmark == Row.Benchmark)
        Paper = &Row;

    T.addRow({Spec.Benchmark, formatFixed(BuildSeconds, 3),
              formatFixed(WalkSeconds, 3),
              formatFixed(Spans["stage.greedy"].Seconds, 3),
              formatFixed(Spans["stage.matrix"].Seconds, 3),
              formatFixed(SolveSeconds, 3),
              formatFixed(MaterializeSeconds, 3),
              Paper ? formatFixed(Paper->Solver, 1) : "-",
              Paper ? formatFixed(Paper->Greedy, 1) : "-"});

    if (SolveSeconds > LargestSolveSeconds) {
      LargestSolveSeconds = SolveSeconds;
      Largest = std::move(W);
      LargestWorstDs = Worst;
    }
  }
  std::printf("%s\n", T.render().c_str());
  std::printf("shape check: the TSP solver should be the most expensive "
              "alignment stage,\nyet comparable to the rest of the "
              "toolchain — as in the paper.\n");

  runParallelScaling(Largest, LargestWorstDs);
  runCacheColdWarm(Largest, LargestWorstDs);
  return 0;
}
