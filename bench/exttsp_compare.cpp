//===- bench/exttsp_compare.cpp - Objective-diversity comparison ------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Compares five layouts per procedure over the six-benchmark suite (or
// the named benchmarks), self-trained per data set: the original, greedy
// and tsp layouts from one alignProgram call (bounds off, serial), the
// exttsp layouts from a second call with the Ext-TSP primary, and the
// Calder-Grunwald (cg) layouts from CalderGrunwaldAligner. Emits
// BENCH_exttsp.json: per cell, each aligner's paper control penalty,
// Ext-TSP locality score, degenerate fall-through score (Ext-TSP with
// windows of 1 — pure weighted adjacency), simulated I-cache misses, and
// alignment wall time; plus a summary with the per-procedure
// exttsp-vs-greedy win rate and the exttsp/tsp penalty ratio (the two
// acceptance metrics). align_ms is the median of five repetitions: the
// pipeline rows read it off their stage spans (greedy: stage.greedy;
// tsp: stage.matrix + stage.solve; exttsp: stage.chain; original: 0),
// cg off a Stopwatch. CI runs it on `com xli`, checks the JSON's schema
// and every cell but align_ms against the committed BENCH_exttsp.json,
// and asserts exttsp_score >= fallthrough_score for every row (true by
// construction: windowed credits only add to adjacency credit).
//
// Usage: exttsp_compare [output.json [benchmark ...]]
//   defaults: BENCH_exttsp.json over the whole suite
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "align/Aligners.h"
#include "objective/Objective.h"
#include "objective/Penalty.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/Table.h"
#include "support/Timer.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

using namespace balign;
using namespace balign::bench;

namespace {

/// All metrics of one aligner on one (workload, data set) cell.
struct AlignerRow {
  std::string Name;
  uint64_t Penalty = 0;
  double ExtTspScore = 0.0;
  double FallthroughScore = 0.0;
  uint64_t CacheMisses = 0;
  double AlignMs = 0.0;
  std::vector<double> ProcScores; ///< Per-procedure Ext-TSP score.
};

/// One (workload, data set) cell.
struct DataSetResult {
  std::string Label;
  size_t Procedures = 0;
  std::vector<AlignerRow> Rows;
  size_t Wins = 0, Ties = 0, Losses = 0;
};

/// Timed repetitions per cell; each row's align_ms is their median.
constexpr unsigned TimedRepetitions = 5;

/// Scores one aligner's \p Layouts on data set \p Ds of \p W.
AlignerRow scoreLayouts(std::string Name, const std::vector<Layout> &Layouts,
                        double AlignMs, const WorkloadInstance &W, size_t Ds,
                        const MachineModel &Model) {
  const ProgramProfile &Prof = W.DataSets[Ds].Profile;
  AlignerRow Row;
  Row.Name = std::move(Name);
  Row.AlignMs = AlignMs;

  ExtTspObjective Ext(Model);
  MachineModel Degenerate = Model;
  Degenerate.ExtTspForwardWindow = 1;
  Degenerate.ExtTspBackwardWindow = 1;
  ExtTspObjective Fallthrough(Degenerate);
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    Row.Penalty += evaluateLayout(Proc, Layouts[P], Model, Prof.Procs[P],
                                  Prof.Procs[P]);
    double Score = Ext.scoreLayout(Proc, Prof.Procs[P], Layouts[P]);
    Row.ProcScores.push_back(Score);
    Row.ExtTspScore += Score;
    Row.FallthroughScore +=
        Fallthrough.scoreLayout(Proc, Prof.Procs[P], Layouts[P]);
  }

  SimResult Sim = simulateLayouts(W, Layouts, Prof, W.DataSets[Ds], Model);
  Row.CacheMisses = Sim.CacheMisses;
  return Row;
}

DataSetResult evaluateDataSet(const WorkloadInstance &W, size_t Ds,
                              const MachineModel &Model) {
  DataSetResult Result;
  Result.Label = W.dataSetLabel(Ds);
  Result.Procedures = W.Prog.numProcedures();
  const ProgramProfile &Prof = W.DataSets[Ds].Profile;

  AlignmentOptions Options;
  Options.Model = Model;
  Options.ComputeBounds = false;
  AlignmentOptions ChainOptions = Options;
  ChainOptions.Primary = PrimaryAligner::ExtTsp;

  ProgramAlignment Paper, Chain;
  std::vector<Layout> Cg;
  std::vector<double> GreedyMs, TspMs, ChainMs, CgMs;
  std::map<std::string, SpanTotal> Spans;
  for (unsigned Rep = 0; Rep != TimedRepetitions; ++Rep) {
    Paper = alignTraced(W.Prog, Prof, Options, Spans);
    GreedyMs.push_back(1e3 * Spans["stage.greedy"].Seconds);
    TspMs.push_back(1e3 * (Spans["stage.matrix"].Seconds +
                           Spans["stage.solve"].Seconds));
    Chain = alignTraced(W.Prog, Prof, ChainOptions, Spans);
    ChainMs.push_back(1e3 * Spans["stage.chain"].Seconds);
    Stopwatch CgClock;
    Cg.clear();
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
      Cg.push_back(
          CalderGrunwaldAligner().align(W.Prog.proc(P), Prof.Procs[P], Model));
    CgMs.push_back(CgClock.milliseconds());
  }
  Result.Rows.push_back(
      scoreLayouts("original", Paper.originalLayouts(), 0.0, W, Ds, Model));
  Result.Rows.push_back(scoreLayouts("greedy", Paper.greedyLayouts(),
                                     median(GreedyMs), W, Ds, Model));
  Result.Rows.push_back(scoreLayouts("cg", Cg, median(CgMs), W, Ds, Model));
  Result.Rows.push_back(scoreLayouts("tsp", Paper.tspLayouts(),
                                     median(TspMs), W, Ds, Model));
  Result.Rows.push_back(scoreLayouts("exttsp", Chain.tspLayouts(),
                                     median(ChainMs), W, Ds, Model));

  const AlignerRow &Greedy = Result.Rows[1], &ExtTsp = Result.Rows[4];
  for (size_t P = 0; P != Result.Procedures; ++P) {
    double Diff = ExtTsp.ProcScores[P] - Greedy.ProcScores[P];
    if (Diff > 1e-9)
      ++Result.Wins;
    else if (Diff < -1e-9)
      ++Result.Losses;
    else
      ++Result.Ties;
  }
  return Result;
}

void writeJson(std::FILE *Out, const std::vector<DataSetResult> &Cells,
               const MachineModel &Model) {
  size_t Procs = 0, Wins = 0, Ties = 0;
  uint64_t ExtTspPenalty = 0, TspPenalty = 0;
  for (const DataSetResult &Cell : Cells) {
    Procs += Cell.Procedures;
    Wins += Cell.Wins;
    Ties += Cell.Ties;
    for (const AlignerRow &Row : Cell.Rows) {
      if (Row.Name == "exttsp")
        ExtTspPenalty += Row.Penalty;
      if (Row.Name == "tsp")
        TspPenalty += Row.Penalty;
    }
  }
  std::fprintf(Out, "{\n  \"schema\": \"balign-exttsp-v1\",\n");
  std::fprintf(Out,
               "  \"objective\": {\"forward_window\": %u, "
               "\"backward_window\": %u, \"forward_weight\": %.6f, "
               "\"backward_weight\": %.6f},\n",
               Model.ExtTspForwardWindow, Model.ExtTspBackwardWindow,
               Model.ExtTspForwardWeight, Model.ExtTspBackwardWeight);
  std::fprintf(Out, "  \"datasets\": [\n");
  for (size_t C = 0; C != Cells.size(); ++C) {
    const DataSetResult &Cell = Cells[C];
    std::fprintf(Out,
                 "    {\"dataset\": \"%s\", \"procedures\": %zu,\n"
                 "     \"exttsp_vs_greedy\": {\"wins\": %zu, \"ties\": %zu, "
                 "\"losses\": %zu},\n     \"aligners\": [\n",
                 Cell.Label.c_str(), Cell.Procedures, Cell.Wins, Cell.Ties,
                 Cell.Losses);
    for (size_t R = 0; R != Cell.Rows.size(); ++R) {
      const AlignerRow &Row = Cell.Rows[R];
      std::fprintf(Out,
                   "      {\"name\": \"%s\", \"penalty\": %llu, "
                   "\"exttsp_score\": %.4f, \"fallthrough_score\": %.4f, "
                   "\"icache_misses\": %llu, \"align_ms\": %.3f}%s\n",
                   Row.Name.c_str(),
                   static_cast<unsigned long long>(Row.Penalty),
                   Row.ExtTspScore, Row.FallthroughScore,
                   static_cast<unsigned long long>(Row.CacheMisses),
                   Row.AlignMs, R + 1 == Cell.Rows.size() ? "" : ",");
    }
    std::fprintf(Out, "     ]}%s\n", C + 1 == Cells.size() ? "" : ",");
  }
  std::fprintf(Out, "  ],\n");
  // Strict wins and no-worse separately: on cold, near-deterministic
  // procedures the greedy chains already attain the optimum score (no
  // layout beats them), so ties there are a property of the workload,
  // not the aligner; the floor guarantees losses stay at zero.
  std::fprintf(
      Out,
      "  \"summary\": {\"procedures\": %zu, \"exttsp_vs_greedy_wins\": %zu, "
      "\"exttsp_vs_greedy_ties\": %zu, \"exttsp_strict_win_rate\": %.4f, "
      "\"exttsp_no_worse_rate\": %.4f, "
      "\"exttsp_tsp_penalty_ratio\": %.4f}\n}\n",
      Procs, Wins, Ties,
      Procs ? static_cast<double>(Wins) / static_cast<double>(Procs) : 0.0,
      Procs ? static_cast<double>(Wins + Ties) / static_cast<double>(Procs)
            : 0.0,
      TspPenalty ? static_cast<double>(ExtTspPenalty) /
                       static_cast<double>(TspPenalty)
                 : 0.0);
}

} // namespace

int main(int Argc, char **Argv) {
  const char *OutPath = Argc > 1 ? Argv[1] : "BENCH_exttsp.json";
  std::vector<std::string> Benchmarks(Argv + std::min(Argc, 2), Argv + Argc);
  if (Benchmarks.empty())
    for (const WorkloadSpec &Spec : benchmarkSuite())
      Benchmarks.push_back(Spec.Benchmark);
  if (!allKnownBenchmarks(Benchmarks))
    return 1;

  std::printf("=== Ext-TSP objective comparison (all aligners, %s) ===\n\n",
              Argc > 2 ? "named benchmarks" : "full suite");
  MachineModel Model = MachineModel::alpha21164();
  std::vector<DataSetResult> Cells;
  for (const std::string &B : Benchmarks) {
    std::fprintf(stderr, "[setup] building workload %s ...\n", B.c_str());
    WorkloadInstance W = buildWorkloadByName(B);
    for (size_t Ds = 0; Ds != W.DataSets.size(); ++Ds) {
      std::fprintf(stderr, "[setup] evaluating %s ...\n",
                   W.dataSetLabel(Ds).c_str());
      Cells.push_back(evaluateDataSet(W, Ds, Model));
    }
  }

  TextTable T;
  T.addColumn("data set");
  T.addColumn("aligner");
  T.addColumn("penalty", TextTable::AlignKind::Right);
  T.addColumn("exttsp score", TextTable::AlignKind::Right);
  T.addColumn("icache misses", TextTable::AlignKind::Right);
  T.addColumn("align ms", TextTable::AlignKind::Right);
  for (const DataSetResult &Cell : Cells) {
    for (const AlignerRow &Row : Cell.Rows)
      T.addRow({Cell.Label, Row.Name, formatCount(Row.Penalty),
                formatFixed(Row.ExtTspScore, 1), formatCount(Row.CacheMisses),
                formatFixed(Row.AlignMs, 2)});
    T.addSeparator();
  }
  std::printf("%s\n", T.render().c_str());

  size_t Procs = 0, Wins = 0;
  uint64_t ExtTspPenalty = 0, TspPenalty = 0;
  for (const DataSetResult &Cell : Cells) {
    Procs += Cell.Procedures;
    Wins += Cell.Wins;
    for (const AlignerRow &Row : Cell.Rows) {
      if (Row.Name == "exttsp")
        ExtTspPenalty += Row.Penalty;
      if (Row.Name == "tsp")
        TspPenalty += Row.Penalty;
    }
  }
  std::printf("exttsp never scores below greedy (floor) and strictly beats "
              "it on %zu of %zu procedure cells (%.0f%%; the rest are "
              "plateau ties where greedy is already optimal); exttsp/tsp "
              "penalty ratio %.4f (acceptance: <= 1.02).\n",
              Wins, Procs,
              Procs ? 100.0 * static_cast<double>(Wins) /
                          static_cast<double>(Procs)
                    : 0.0,
              TspPenalty ? static_cast<double>(ExtTspPenalty) /
                               static_cast<double>(TspPenalty)
                         : 0.0);

  std::FILE *Out = std::fopen(OutPath, "w");
  if (!Out) {
    std::fprintf(stderr, "cannot open %s for writing\n", OutPath);
    return 1;
  }
  writeJson(Out, Cells, Model);
  std::fclose(Out);
  std::printf("wrote %s\n", OutPath);
  return 0;
}
