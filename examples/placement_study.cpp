//===- examples/placement_study.cpp - Two-level placement walkthrough -------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Demonstrates the full two-level code-placement pipeline the paper's
// conclusion sketches: first align basic blocks *within* each procedure
// (the paper's contribution), then order the procedures themselves with
// the same TSP machinery (the Section 6 interprocedural future-work
// direction), and show how each level contributes to simulated cycles.
//
// Usage: placement_study [benchmark] [--threads N] (default xli; N is
// 0 to 1024, 0 = all hardware threads)
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "interproc/Interleave.h"
#include "interproc/Placement.h"
#include "interproc/ProcOrder.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/Table.h"
#include "support/ThreadPool.h"
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
      if (!flagUInt("--threads", Argc, Argv, I, N, MaxToolThreads))
        return 1;
      Threads = static_cast<unsigned>(N);
    } else if (!Arg.empty() && Arg[0] != '-') {
      Benchmark = Arg;
    } else {
      std::fprintf(stderr, "usage: placement_study [benchmark] "
                   "[--threads N]  (N in 0..1024, 0 = all hardware "
                   "threads)\n");
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

  std::printf("building %s and aligning every procedure ...\n",
              Benchmark.c_str());
  WorkloadInstance W = buildWorkloadByName(Benchmark);
  const WorkloadDataSet &Ds = W.DataSets[1]; // The larger data set.
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  Options.Threads = Threads; // Bit-identical results at every setting.
  ProgramAlignment A = alignProgram(W.Prog, Ds.Profile, Options);

  // Materialize both block-layout variants.
  auto materializeAll = [&](const std::vector<Layout> &Layouts) {
    std::vector<MaterializedLayout> Mats;
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
      Mats.push_back(materializeLayout(W.Prog.proc(P), Layouts[P],
                                       Ds.Profile.Procs[P], Options.Model));
    return Mats;
  };
  std::vector<MaterializedLayout> OriginalBlocks =
      materializeAll(A.originalLayouts());
  std::vector<MaterializedLayout> AlignedBlocks =
      materializeAll(A.tspLayouts());

  // One interleaved call sequence shared by every configuration.
  std::vector<uint64_t> Counts = invocationCounts(W.Prog, Ds.Traces);
  InterleaveOptions IOptions;
  CallSequence Sequence = generateCallSequence(Counts, IOptions);
  auto Affinity =
      computeAffinity(Sequence, W.Prog.numProcedures(), /*Window=*/4);
  ProcOrder Ordered = tspOrder(Affinity);
  ProcOrder Identity = originalProcOrder(W.Prog.numProcedures());

  SimConfig Config;
  Config.Model = Options.Model;

  TextTable T;
  T.addColumn("configuration");
  T.addColumn("penalty cycles", TextTable::AlignKind::Right);
  T.addColumn("icache misses", TextTable::AlignKind::Right);
  T.addColumn("total cycles", TextTable::AlignKind::Right);
  T.addColumn("speedup", TextTable::AlignKind::Right);

  double Base = 0.0;
  auto Row = [&](const char *Name,
                 const std::vector<MaterializedLayout> &Mats,
                 const ProcOrder &Order) {
    SimResult R =
        simulatePlacement(W.Prog, Mats, Ds.Traces, Sequence, Order, Config);
    if (Base == 0.0)
      Base = static_cast<double>(R.Cycles);
    T.addRow({Name, formatCount(R.ControlPenaltyCycles),
              std::to_string(R.CacheMisses), formatCount(R.Cycles),
              formatFixed(Base / static_cast<double>(R.Cycles), 4) + "x"});
  };

  Row("original blocks, original order", OriginalBlocks, Identity);
  Row("aligned blocks,  original order", AlignedBlocks, Identity);
  Row("original blocks, tsp order", OriginalBlocks, Ordered);
  Row("aligned blocks,  tsp order", AlignedBlocks, Ordered);

  std::printf("\n%s.%s over %zu procedures:\n%s", Benchmark.c_str(),
              Ds.Name.c_str(), W.Prog.numProcedures(), T.render().c_str());
  std::printf("\nblock alignment removes control-penalty cycles; "
              "procedure ordering removes\ninstruction-cache conflict "
              "misses — the two compose.\n");
  return 0;
}
