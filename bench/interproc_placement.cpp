//===- bench/interproc_placement.cpp - Section 6 interprocedural extension --===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// The paper's closing future-work item: "we would like to try to
// generalize our method to the interprocedural code placement problem."
// This harness does so on the synthetic suite: per-procedure layouts are
// first aligned with the TSP method (the paper's contribution), then the
// procedures themselves are placed in one address space by four orderers
// — original, random, Pettis-Hansen chain merging, and a TSP-based order
// using the same iterated 3-Opt solver — and the whole-program call
// sequence is replayed over a shared instruction cache. A second table
// crosses the two levels: original or aligned blocks, in the original or
// the TSP procedure order, over the same call sequence.
//
// Expected shape: adjacent-affinity rises original < PH <= TSP, and
// instruction-cache misses fall accordingly; control penalties are
// identical across orders (procedure placement cannot change them), so
// block alignment removes penalty cycles and procedure ordering removes
// conflict misses.
//
// Usage: interproc_placement [benchmark ...] (default com xli esp)
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "interproc/Interleave.h"
#include "interproc/Placement.h"
#include "interproc/ProcOrder.h"
#include "support/Format.h"
#include "support/Table.h"

using namespace balign;
using namespace balign::bench;

int main(int Argc, char **Argv) {
  std::vector<std::string> Benchmarks(Argv + 1, Argv + Argc);
  if (Benchmarks.empty())
    Benchmarks = {"com", "xli", "esp"};
  if (!allKnownBenchmarks(Benchmarks))
    return 1;

  std::printf("=== Interprocedural placement (Section 6 future work) "
              "===\n\n");
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  Options.Threads = 0; // Every core; results are identical at any count.

  for (const std::string &Benchmark : Benchmarks) {
    WorkloadInstance W = buildWorkloadByName(Benchmark);
    const WorkloadDataSet &Ds = W.DataSets[1]; // The larger data set.
    ProgramAlignment A = alignProgram(W.Prog, Ds.Profile, Options);

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

    std::vector<uint64_t> Counts = invocationCounts(W.Prog, Ds.Traces);
    InterleaveOptions IOptions;
    IOptions.Seed = 0x1e11 + W.Prog.numProcedures();
    CallSequence Sequence = generateCallSequence(Counts, IOptions);
    auto Affinity =
        computeAffinity(Sequence, W.Prog.numProcedures(), /*Window=*/4);

    SimConfig Config;
    Config.Model = Options.Model;
    auto simulate = [&](const std::vector<MaterializedLayout> &Mats,
                        const ProcOrder &Order) {
      return simulatePlacement(W.Prog, Mats, Ds.Traces, Sequence, Order,
                               Config);
    };

    size_t N = W.Prog.numProcedures();
    ProcOrder Identity = originalProcOrder(N);
    ProcOrder Tsp = tspOrder(Affinity);
    SimResult AlignedIdentity = simulate(AlignedBlocks, Identity);
    SimResult AlignedTsp = simulate(AlignedBlocks, Tsp);

    double IdentityCycles = static_cast<double>(AlignedIdentity.Cycles);
    TextTable T;
    T.addColumn("order");
    T.addColumn("adjacent affinity", TextTable::AlignKind::Right);
    T.addColumn("icache misses", TextTable::AlignKind::Right);
    T.addColumn("cycles", TextTable::AlignKind::Right);
    T.addColumn("vs original", TextTable::AlignKind::Right);
    auto Row = [&](const char *Name, const ProcOrder &Order,
                   const SimResult &R) {
      T.addRow({Name, std::to_string(adjacentAffinity(Order, Affinity)),
                std::to_string(R.CacheMisses), formatCount(R.Cycles),
                formatNormalized(static_cast<double>(R.Cycles) /
                                 IdentityCycles)});
    };
    ProcOrder Random = randomProcOrder(N, 17);
    ProcOrder PettisHansen = pettisHansenOrder(Affinity);
    Row("original", Identity, AlignedIdentity);
    Row("random", Random, simulate(AlignedBlocks, Random));
    Row("pettis-hansen", PettisHansen, simulate(AlignedBlocks, PettisHansen));
    Row("tsp", Tsp, AlignedTsp);

    std::printf("-- %s.%s (%zu procedures; per-procedure blocks already "
                "TSP-aligned) --\n%s\n",
                Benchmark.c_str(), Ds.Name.c_str(), N, T.render().c_str());

    TextTable Both;
    Both.addColumn("configuration");
    Both.addColumn("penalty cycles", TextTable::AlignKind::Right);
    Both.addColumn("icache misses", TextTable::AlignKind::Right);
    Both.addColumn("total cycles", TextTable::AlignKind::Right);
    Both.addColumn("speedup", TextTable::AlignKind::Right);
    SimResult Base = simulate(OriginalBlocks, Identity);
    double BaseCycles = static_cast<double>(Base.Cycles);
    auto BothRow = [&](const char *Name, const SimResult &R) {
      double Speedup = BaseCycles / static_cast<double>(R.Cycles);
      Both.addRow({Name, formatCount(R.ControlPenaltyCycles),
                   std::to_string(R.CacheMisses), formatCount(R.Cycles),
                   formatFixed(Speedup, 4) + "x"});
    };
    BothRow("original blocks, original order", Base);
    BothRow("aligned blocks,  original order", AlignedIdentity);
    BothRow("original blocks, tsp order", simulate(OriginalBlocks, Tsp));
    BothRow("aligned blocks,  tsp order", AlignedTsp);
    std::printf("-- %s.%s, both levels --\n%s\n", Benchmark.c_str(),
                Ds.Name.c_str(), Both.render().c_str());
  }
  return 0;
}
