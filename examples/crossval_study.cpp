//===- examples/crossval_study.cpp - Train/test data-set study --------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Reproduces the paper's Section 4.2 methodology on one benchmark: align
// with the profile of one data set (training) and evaluate the resulting
// layouts under the other (testing). Prints the four normalized penalty
// numbers the Figure 3 bars are made of — self-trained and cross-trained,
// for greedy and TSP — so you can see the dilution directly.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "objective/Penalty.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/Table.h"
#include "workloads/Workloads.h"

#include <cstdio>
#include <cstdint>
#include <string>

using namespace balign;

int main(int Argc, char **Argv) {
  std::string Benchmark = "xli";
  unsigned Threads = 1;
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    if (Arg == "--threads") {
      uint64_t N = 0;
      if (!flagUInt("--threads", Argc, Argv, I, N, UINT32_MAX))
        return 1;
      Threads = static_cast<unsigned>(N);
    } else if (!Arg.empty() && Arg[0] != '-') {
      Benchmark = Arg;
    } else {
      std::fprintf(stderr, "usage: crossval_study [benchmark] "
                   "[--threads N]\n");
      return 1;
    }
  }
  bool Known = false;
  for (const WorkloadSpec &Spec : benchmarkSuite())
    Known |= Spec.Benchmark == Benchmark;
  if (!Known) {
    std::fprintf(stderr,
                 "unknown benchmark '%s' (try com dod eqn esp su2 xli)\n",
                 Benchmark.c_str());
    return 1;
  }

  std::printf("building workload %s ...\n", Benchmark.c_str());
  WorkloadInstance W = buildWorkloadByName(Benchmark);
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  Options.Threads = Threads; // Bit-identical results at every setting.

  TextTable T;
  T.addColumn("test set");
  T.addColumn("trained on");
  T.addColumn("greedy", TextTable::AlignKind::Right);
  T.addColumn("tsp", TextTable::AlignKind::Right);

  for (size_t TestIdx = 0; TestIdx != 2; ++TestIdx) {
    const ProgramProfile &Test = W.DataSets[TestIdx].Profile;
    std::vector<Layout> Original;
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
      Original.push_back(Layout::original(W.Prog.proc(P)));

    for (size_t TrainIdx = 0; TrainIdx != 2; ++TrainIdx) {
      const ProgramProfile &Train = W.DataSets[TrainIdx].Profile;
      // Baseline: original layout on the testing counts with this row's
      // (training-profile) static predictions, so the ratio isolates
      // the layout effect.
      uint64_t Base = evaluateProgramPenalty(W.Prog, Original,
                                             Options.Model, Train, Test);
      ProgramAlignment Result = alignProgram(W.Prog, Train, Options);
      uint64_t Greedy = evaluateProgramPenalty(
          W.Prog, Result.greedyLayouts(), Options.Model, Train, Test);
      uint64_t Tsp = evaluateProgramPenalty(
          W.Prog, Result.tspLayouts(), Options.Model, Train, Test);
      std::string Kind = TrainIdx == TestIdx ? " (self)" : " (cross)";
      T.addRow({W.dataSetLabel(TestIdx),
                W.dataSetLabel(TrainIdx) + Kind,
                formatNormalized(static_cast<double>(Greedy) /
                                 static_cast<double>(Base)),
                formatNormalized(static_cast<double>(Tsp) /
                                 static_cast<double>(Base))});
    }
    T.addSeparator();
  }
  std::printf("\ncontrol penalties, normalized to the original layout "
              "evaluated on the same test set:\n%s",
              T.render().c_str());
  std::printf("\nself rows reproduce Figure 2; cross rows reproduce "
              "Figure 3's dilution.\n");
  return 0;
}
