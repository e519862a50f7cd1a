//===- bench/ablation_models.cpp - Design-choice ablations ------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Ablations for the design choices DESIGN.md calls out and the paper's
// Section 6 future-work directions:
//
//  1. Machine-model sensitivity ("we would like to investigate applying
//     our method to other machine models"): penalty removal under the
//     Alpha 21164, a deep speculative pipeline, and a cheap-branch core.
//  2. BTFNT hardware prediction (footnote 3's excluded case): how much
//     of the computed benefit survives when the hardware ignores the
//     compiler's predictions.
//  3. The aligner ladder: frequency-greedy vs cost-model greedy
//     (Calder-Grunwald) vs TSP.
//  4. Solver budget: runs x iterations sweep of iterated 3-Opt against
//     the Held-Karp bound (is the paper's 10x2N protocol overkill?).
//
// Every greedy and tsp layout is alignProgram's; the Calder-Grunwald
// layouts, which no pipeline rung produces, come from its class. Each
// benchmark is aligned once under the default model and solver, and
// every section that keeps them reads that one alignment.
//
//===--------------------------------------------------------------------===//

#include "BenchCommon.h"
#include "align/Aligners.h"
#include "align/OutcomeCosts.h"
#include "machine/Btb.h"
#include "tsp/IteratedOpt.h"
#include "support/Format.h"
#include "support/Statistics.h"
#include "support/Table.h"

using namespace balign;
using namespace balign::bench;

namespace {

/// \p Penalty normalized to the original layout's.
double normalized(uint64_t Penalty, uint64_t Original) {
  return Original ? static_cast<double>(Penalty) /
                        static_cast<double>(Original)
                  : 1.0;
}

/// The pipeline's alignment of \p W's first data set under \p Model,
/// without bounds.
ProgramAlignment alignFirstDataSet(const WorkloadInstance &W,
                                   const MachineModel &Model) {
  AlignmentOptions Options;
  Options.Model = Model;
  Options.ComputeBounds = false;
  return alignProgram(W.Prog, W.DataSets[0].Profile, Options);
}

/// CalderGrunwaldAligner's penalty on \p W's first data set under
/// \p Model, normalized to the original layout.
double normalizedCgPenalty(const WorkloadInstance &W,
                           const MachineModel &Model) {
  const ProgramProfile &Train = W.DataSets[0].Profile;
  uint64_t Aligned = 0, Original = 0;
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    Layout L = CalderGrunwaldAligner().align(Proc, Train.Procs[P], Model);
    Aligned += evaluateLayout(Proc, L, Model, Train.Procs[P],
                              Train.Procs[P]);
    Original += evaluateLayout(Proc, Layout::original(Proc), Model,
                               Train.Procs[P], Train.Procs[P]);
  }
  return normalized(Aligned, Original);
}

} // namespace

int main() {
  std::printf("=== Ablations: machine models, prediction hardware, "
              "aligners, solver budget ===\n\n");
  // eqn + dod: one loop-dominated and one branch-unfriendly benchmark.
  WorkloadInstance Eqn = buildWorkloadByName("eqn");
  WorkloadInstance Dod = buildWorkloadByName("dod");
  // Each benchmark's alignment under the default model and solver,
  // without bounds: §1's alpha21164 row and §§2 to 3b all read these.
  const AlignmentOptions Defaults;
  const MachineModel &Alpha = Defaults.Model;
  const ProgramAlignment EqnA = alignFirstDataSet(Eqn, Alpha);
  const ProgramAlignment DodA = alignFirstDataSet(Dod, Alpha);

  // --- 1. Machine-model sensitivity -------------------------------------
  {
    TextTable T;
    T.addColumn("model");
    T.addColumn("eqn.fx tsp pen", TextTable::AlignKind::Right);
    T.addColumn("dod.re tsp pen", TextTable::AlignKind::Right);
    auto AddRow = [&T](const std::string &Model, const ProgramAlignment &E,
                       const ProgramAlignment &D) {
      T.addRow({Model,
                formatNormalized(normalized(E.totalTspPenalty(),
                                            E.totalOriginalPenalty())),
                formatNormalized(normalized(D.totalTspPenalty(),
                                            D.totalOriginalPenalty()))});
    };
    AddRow(Alpha.Name, EqnA, DodA);
    for (const MachineModel &Model :
         {MachineModel::deepPipeline(), MachineModel::cheapBranch()})
      AddRow(Model.Name, alignFirstDataSet(Eqn, Model),
             alignFirstDataSet(Dod, Model));
    std::printf("-- machine models (normalized TSP penalty; lower = more "
                "headroom exploited) --\n%s\n",
                T.render().c_str());
  }

  // --- 2. BTFNT hardware prediction -------------------------------------
  {
    TextTable T;
    T.addColumn("prediction");
    T.addColumn("orig cycles", TextTable::AlignKind::Right);
    T.addColumn("tsp cycles", TextTable::AlignKind::Right);
    T.addColumn("tsp speedup", TextTable::AlignKind::Right);
    for (PredictorKind Kind :
         {PredictorKind::ProfileStatic, PredictorKind::Btfnt,
          PredictorKind::Bimodal2Bit}) {
      std::vector<MaterializedLayout> MatsOrig, MatsTsp;
      for (size_t P = 0; P != Dod.Prog.numProcedures(); ++P) {
        MatsOrig.push_back(materializeLayout(
            Dod.Prog.proc(P), Layout::original(Dod.Prog.proc(P)),
            Dod.DataSets[0].Profile.Procs[P], Alpha));
        MatsTsp.push_back(materializeLayout(
            Dod.Prog.proc(P), DodA.Procs[P].TspLayout,
            Dod.DataSets[0].Profile.Procs[P], Alpha));
      }
      SimConfig Config;
      Config.Predictor = Kind;
      SimResult Orig = simulateProgram(Dod.Prog, MatsOrig,
                                       Dod.DataSets[0].Traces, Config);
      SimResult Tsp = simulateProgram(Dod.Prog, MatsTsp,
                                      Dod.DataSets[0].Traces, Config);
      const char *Name = Kind == PredictorKind::ProfileStatic
                             ? "profile-trained"
                             : Kind == PredictorKind::Btfnt ? "btfnt"
                                                            : "bimodal-2bit";
      T.addRow({Name, formatCount(Orig.Cycles), formatCount(Tsp.Cycles),
                formatPercent(1.0 - static_cast<double>(Tsp.Cycles) /
                                        static_cast<double>(Orig.Cycles))});
    }
    std::printf("-- prediction-hardware ablation (dod.re; the DTSP model "
                "assumes the hardware\nhonors static predictions — "
                "footnotes 3 and 6) --\n%s\n",
                T.render().c_str());
  }

  // --- 2b. Branch target buffer -----------------------------------------
  {
    TextTable T;
    T.addColumn("frontend");
    T.addColumn("orig cycles", TextTable::AlignKind::Right);
    T.addColumn("tsp cycles", TextTable::AlignKind::Right);
    T.addColumn("tsp speedup", TextTable::AlignKind::Right);
    for (bool UseBtb : {false, true}) {
      std::vector<MaterializedLayout> MatsOrig, MatsTsp;
      for (size_t P = 0; P != Eqn.Prog.numProcedures(); ++P) {
        MatsOrig.push_back(materializeLayout(
            Eqn.Prog.proc(P), Layout::original(Eqn.Prog.proc(P)),
            Eqn.DataSets[0].Profile.Procs[P], Alpha));
        MatsTsp.push_back(materializeLayout(
            Eqn.Prog.proc(P), EqnA.Procs[P].TspLayout,
            Eqn.DataSets[0].Profile.Procs[P], Alpha));
      }
      SimConfig Config;
      Config.UseBtb = UseBtb;
      SimResult Orig = simulateProgram(Eqn.Prog, MatsOrig,
                                       Eqn.DataSets[0].Traces, Config);
      SimResult Tsp = simulateProgram(Eqn.Prog, MatsTsp,
                                      Eqn.DataSets[0].Traces, Config);
      T.addRow({UseBtb ? std::to_string(BtbEntries) + "-entry btb" : "no btb",
                formatCount(Orig.Cycles), formatCount(Tsp.Cycles),
                formatPercent(1.0 - static_cast<double>(Tsp.Cycles) /
                                        static_cast<double>(Orig.Cycles))});
    }
    std::printf("-- branch-target-buffer ablation (eqn.fx): a BTB hides "
                "the misfetch bubbles\nbranch alignment also removes, so "
                "it shrinks the software benefit --\n%s\n",
                T.render().c_str());
  }

  // --- 3. The aligner ladder ----------------------------------------------
  {
    TextTable T;
    T.addColumn("aligner");
    T.addColumn("eqn.fx pen", TextTable::AlignKind::Right);
    T.addColumn("dod.re pen", TextTable::AlignKind::Right);
    T.addRow({"greedy",
              formatNormalized(normalized(EqnA.totalGreedyPenalty(),
                                          EqnA.totalOriginalPenalty())),
              formatNormalized(normalized(DodA.totalGreedyPenalty(),
                                          DodA.totalOriginalPenalty()))});
    T.addRow({"cg", formatNormalized(normalizedCgPenalty(Eqn, Alpha)),
              formatNormalized(normalizedCgPenalty(Dod, Alpha))});
    T.addRow({"tsp",
              formatNormalized(normalized(EqnA.totalTspPenalty(),
                                          EqnA.totalOriginalPenalty())),
              formatNormalized(normalized(DodA.totalTspPenalty(),
                                          DodA.totalOriginalPenalty()))});
    std::printf("-- aligner ladder (normalized penalty, alpha21164) "
                "--\n%s\n",
                T.render().c_str());
  }

  // --- 3b. Trace-driven prediction-outcome costs (Section 6) -------------
  {
    // Judge dod.re's default alignment (the static cost model) against
    // one re-solved with costs derived from a trace-driven
    // bimodal-predictor simulation (the paper's proposed refinement),
    // both under the bimodal simulator.
    const WorkloadDataSet &Ds = Dod.DataSets[0];

    std::vector<MaterializedLayout> MatsStatic, MatsDynamic;
    for (size_t P = 0; P != Dod.Prog.numProcedures(); ++P) {
      const Procedure &Proc = Dod.Prog.proc(P);
      const ProcedureProfile &Profile = Ds.Profile.Procs[P];
      MatsStatic.push_back(materializeLayout(
          Proc, DodA.Procs[P].TspLayout, Profile, Alpha));
      // Dynamic costs: measure outcomes on the original layout, build
      // the generalized Section 2.2 matrix, re-solve.
      MaterializedLayout OrigMat =
          materializeLayout(Proc, Layout::original(Proc), Profile, Alpha);
      OutcomeCounts Outcomes =
          collectOutcomeCounts(Proc, OrigMat, Ds.Traces[P]);
      AlignmentTsp Atsp = buildOutcomeTsp(Proc, Outcomes, Alpha);
      IteratedOptOptions SolverOptions = Defaults.Solver;
      SolverOptions.Seed = 0xd15c + P;
      DtspSolution Solution = solveDirectedTsp(Atsp.Tsp, SolverOptions);
      MatsDynamic.push_back(materializeLayout(
          Proc, layoutFromTour(Proc, Atsp, Solution.Tour), Profile, Alpha));
    }
    SimConfig Config;
    Config.Predictor = PredictorKind::Bimodal2Bit;
    SimResult RStatic =
        simulateProgram(Dod.Prog, MatsStatic, Ds.Traces, Config);
    SimResult RDynamic =
        simulateProgram(Dod.Prog, MatsDynamic, Ds.Traces, Config);
    TextTable T;
    T.addColumn("cost model");
    T.addColumn("penalty cycles under bimodal hw", TextTable::AlignKind::Right);
    T.addColumn("total cycles", TextTable::AlignKind::Right);
    T.addRow({"static (paper main model)",
              formatCount(RStatic.ControlPenaltyCycles),
              formatCount(RStatic.Cycles)});
    T.addRow({"trace-driven outcomes (Section 6)",
              formatCount(RDynamic.ControlPenaltyCycles),
              formatCount(RDynamic.Cycles)});
    std::printf("-- trace-driven cost model (dod.re, judged under bimodal "
                "prediction hardware) --\n%s\n",
                T.render().c_str());
  }

  // --- 4. Solver budget sweep ----------------------------------------------
  {
    TextTable T;
    T.addColumn("protocol");
    T.addColumn("eqn.fx tsp pen", TextTable::AlignKind::Right);
    T.addColumn("solver sec", TextTable::AlignKind::Right);
    struct Budget {
      const char *Name;
      unsigned GreedyStarts, NnStarts;
      double Factor;
    };
    for (const Budget &B :
         {Budget{"1 run, 0.5N iters", 1, 0, 0.5},
          Budget{"3 runs, 1N iters", 2, 1, 1.0},
          Budget{"10 runs, 2N iters (paper)", 5, 4, 2.0},
          Budget{"10 runs, 8N iters", 5, 4, 8.0}}) {
      AlignmentOptions Options;
      Options.ComputeBounds = false;
      Options.Solver.GreedyStarts = B.GreedyStarts;
      Options.Solver.NearestNeighborStarts = B.NnStarts;
      Options.Solver.IterationsFactor = B.Factor;
      Options.Solver.MinIterationsPerRun =
          B.Factor < 1.0 ? 5 : Options.Solver.MinIterationsPerRun;
      std::map<std::string, SpanTotal> Spans;
      ProgramAlignment A =
          alignTraced(Eqn.Prog, Eqn.DataSets[0].Profile, Options, Spans);
      double Norm = static_cast<double>(A.totalTspPenalty()) /
                    static_cast<double>(A.totalOriginalPenalty());
      T.addRow({B.Name, formatNormalized(Norm),
                formatFixed(Spans["stage.solve"].Seconds, 3)});
    }
    std::printf("-- iterated 3-Opt budget sweep (eqn.fx) --\n%s\n",
                T.render().c_str());
  }
  return 0;
}
