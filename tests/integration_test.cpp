//===- tests/integration_test.cpp - Whole-pipeline integration tests ----------===//

#include "align/Pipeline.h"
#include "analysis/PipelineVerifier.h"
#include "objective/Penalty.h"
#include "sim/Simulator.h"
#include "workloads/Workloads.h"

#include "StageSpans.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

/// A reduced-budget copy of a suite benchmark so integration tests run in
/// seconds.
WorkloadInstance smallWorkload(const std::string &Name,
                               uint64_t BudgetCap = 4000) {
  for (WorkloadSpec Spec : benchmarkSuite()) {
    if (Spec.Benchmark != Name)
      continue;
    for (DataSetSpec &Ds : Spec.DataSets)
      Ds.BranchBudget = std::min(Ds.BranchBudget, BudgetCap);
    return buildWorkload(Spec);
  }
  ADD_FAILURE() << "unknown benchmark " << Name;
  return WorkloadInstance();
}

/// alignProgram with balign-verify's verify-each hook installed:
/// integration tests always run under full verification, so any
/// pipeline regression that violates a reduction invariant fails here
/// even if the aggregate numbers still look plausible.
ProgramAlignment verifiedAlign(const Program &Prog,
                               const ProgramProfile &Train,
                               AlignmentOptions Options) {
  DiagnosticEngine Diags;
  ProgramAlignment Result =
      alignProgramVerified(Prog, Train, Options, Diags, VerifyOptions());
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  return Result;
}

/// Field-by-field bit-identity of two whole-program alignments: layouts,
/// penalties, bounds, and solver statistics.
void expectAlignmentsIdentical(const ProgramAlignment &A,
                               const ProgramAlignment &B,
                               const std::string &What) {
  ASSERT_EQ(A.Procs.size(), B.Procs.size()) << What;
  for (size_t P = 0; P != A.Procs.size(); ++P) {
    const ProcedureAlignment &PA = A.Procs[P];
    const ProcedureAlignment &PB = B.Procs[P];
    EXPECT_EQ(PA.OriginalLayout.Order, PB.OriginalLayout.Order)
        << What << " proc " << P;
    EXPECT_EQ(PA.GreedyLayout.Order, PB.GreedyLayout.Order)
        << What << " proc " << P;
    EXPECT_EQ(PA.TspLayout.Order, PB.TspLayout.Order)
        << What << " proc " << P;
    EXPECT_EQ(PA.OriginalPenalty, PB.OriginalPenalty) << What << " proc " << P;
    EXPECT_EQ(PA.GreedyPenalty, PB.GreedyPenalty) << What << " proc " << P;
    EXPECT_EQ(PA.TspPenalty, PB.TspPenalty) << What << " proc " << P;
    EXPECT_EQ(PA.Bounds.HeldKarp, PB.Bounds.HeldKarp) << What << " proc " << P;
    EXPECT_EQ(PA.Bounds.Assignment, PB.Bounds.Assignment)
        << What << " proc " << P;
    EXPECT_EQ(PA.Bounds.AssignmentCycles, PB.Bounds.AssignmentCycles)
        << What << " proc " << P;
    EXPECT_EQ(PA.SolverRuns, PB.SolverRuns) << What << " proc " << P;
    EXPECT_EQ(PA.RunsFindingBest, PB.RunsFindingBest) << What << " proc " << P;
  }
}

} // namespace

TEST(PipelineTest, OrderingInvariantHoldsOnCom) {
  WorkloadInstance W = smallWorkload("com");
  AlignmentOptions Options;
  ProgramAlignment Result =
      verifiedAlign(W.Prog, W.DataSets[0].Profile, Options);
  ASSERT_EQ(Result.Procs.size(), W.Prog.numProcedures());

  for (size_t P = 0; P != Result.Procs.size(); ++P) {
    const ProcedureAlignment &PA = Result.Procs[P];
    EXPECT_TRUE(PA.GreedyLayout.isValid(W.Prog.proc(P)));
    EXPECT_TRUE(PA.TspLayout.isValid(W.Prog.proc(P)));
    // TSP <= greedy <= original may fail per-procedure for greedy (it is
    // a heuristic) but the bound ordering must always hold:
    EXPECT_LE(PA.Bounds.HeldKarp,
              static_cast<double>(PA.TspPenalty) + 1e-6);
    EXPECT_LE(PA.Bounds.Assignment,
              static_cast<int64_t>(PA.TspPenalty));
    EXPECT_LE(PA.TspPenalty, PA.OriginalPenalty);
  }
  // Aggregate ordering (the Figure 2 skeleton).
  EXPECT_LE(Result.totalHeldKarpBound(),
            static_cast<double>(Result.totalTspPenalty()) + 1e-6);
  EXPECT_LE(Result.totalTspPenalty(), Result.totalGreedyPenalty());
  EXPECT_LE(Result.totalGreedyPenalty(), Result.totalOriginalPenalty());
  EXPECT_GT(Result.totalOriginalPenalty(), 0u);
}

TEST(PipelineTest, SignificantPenaltyReductionOnUnfriendlyCode) {
  // dod models branch-unfriendly source layout; alignment must remove a
  // large share of penalties (the paper removes ~2/3 on doduc).
  WorkloadInstance W = smallWorkload("dod");
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  ProgramAlignment Result =
      verifiedAlign(W.Prog, W.DataSets[0].Profile, Options);
  double Ratio = static_cast<double>(Result.totalTspPenalty()) /
                 static_cast<double>(Result.totalOriginalPenalty());
  EXPECT_LT(Ratio, 0.7);
}

TEST(PipelineTest, CrossValidationDilutesButPreservesBenefit) {
  WorkloadInstance W = smallWorkload("dod", /*BudgetCap=*/8000);
  const ProgramProfile &Train = W.DataSets[0].Profile;
  const ProgramProfile &Test = W.DataSets[1].Profile;
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  ProgramAlignment Result = verifiedAlign(W.Prog, Train, Options);

  std::vector<Layout> Tsp = Result.tspLayouts();
  std::vector<Layout> Original = Result.originalLayouts();

  uint64_t SelfTsp =
      evaluateProgramPenalty(W.Prog, Tsp, Options.Model, Train, Train);
  uint64_t SelfOrig =
      evaluateProgramPenalty(W.Prog, Original, Options.Model, Train, Train);
  uint64_t CrossTsp =
      evaluateProgramPenalty(W.Prog, Tsp, Options.Model, Train, Test);
  uint64_t CrossOrig =
      evaluateProgramPenalty(W.Prog, Original, Options.Model, Train, Test);

  double SelfRatio =
      static_cast<double>(SelfTsp) / static_cast<double>(SelfOrig);
  double CrossRatio =
      static_cast<double>(CrossTsp) / static_cast<double>(CrossOrig);
  // Cross-validated benefit is diluted but most of it remains.
  EXPECT_GT(CrossRatio, SelfRatio - 0.05);
  EXPECT_LT(CrossRatio, (1.0 + SelfRatio) / 2.0)
      << "the bulk of the benefit should remain";
}

/// Under full verification every profiled procedure still records each
/// stage span exactly once: the verify hook's replays in the drain add
/// verify.* spans, never a second stage span.
TEST(PipelineTest, VerifiedRunRecordsEachStageSpanOnce) {
  WorkloadInstance W = smallWorkload("com", 1000);
  const ProgramProfile &Train = W.DataSets[0].Profile;
  AlignmentOptions Options;
  TraceSession Session;
  Session.install();
  verifiedAlign(W.Prog, Train, Options);
  Session.uninstall();
  TracedAlignment Run;
  Run.Spans = Session.drainSpans();

  const std::vector<std::string> Full = {"stage.greedy", "stage.matrix",
                                         "stage.solve", "stage.bounds"};
  size_t Profiled = 0;
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
    bool Hot = Train.Procs[P].executedBranches(W.Prog.proc(P)) != 0;
    Profiled += Hot;
    EXPECT_EQ(Run.stages(P), Hot ? Full : std::vector<std::string>())
        << W.Prog.proc(P).getName();
  }
  EXPECT_GT(Profiled, 0u);
  EXPECT_EQ(Run.count("stage.solve"), Profiled);
  EXPECT_EQ(Run.count("verify.determinism"), Profiled);
}

TEST(IntegrationTest, SimulatedTimesFollowPenaltyOrdering) {
  WorkloadInstance W = smallWorkload("dod", 3000);
  const WorkloadDataSet &Ds = W.DataSets[0];
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  ProgramAlignment Result = verifiedAlign(W.Prog, Ds.Profile, Options);

  auto simulate = [&](const std::vector<Layout> &Layouts) {
    std::vector<MaterializedLayout> Mats;
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
      Mats.push_back(materializeLayout(W.Prog.proc(P), Layouts[P],
                                       Ds.Profile.Procs[P], Options.Model));
    SimConfig Config;
    return simulateProgram(W.Prog, Mats, Ds.Traces, Config);
  };

  SimResult Orig = simulate(Result.originalLayouts());
  SimResult Tsp = simulate(Result.tspLayouts());
  EXPECT_LT(Tsp.ControlPenaltyCycles, Orig.ControlPenaltyCycles);
  EXPECT_LT(Tsp.Cycles, Orig.Cycles);
  // Simulated penalties equal evaluator penalties (whole-program scale).
  EXPECT_EQ(Orig.ControlPenaltyCycles, Result.totalOriginalPenalty());
  EXPECT_EQ(Tsp.ControlPenaltyCycles, Result.totalTspPenalty());
}

/// The determinism matrix (tentpole contract): every benchmark of the
/// suite aligned at Threads in {1, 2, 8} — serial path, real
/// parallelism, and more workers than this machine has cores — must
/// produce bit-identical alignments, bounds included.
TEST(PipelineTest, ThreadCountNeverChangesResults) {
  bool BoundsChecked = false;
  for (const WorkloadSpec &Spec : benchmarkSuite()) {
    WorkloadInstance W = smallWorkload(Spec.Benchmark, /*BudgetCap=*/800);
    AlignmentOptions Options;
    // Bound determinism is covered once (Held-Karp subgradient descent is
    // the most expensive stage by far); layouts/penalties/statistics are
    // compared on every benchmark.
    Options.ComputeBounds = !BoundsChecked;
    BoundsChecked = true;
    Options.Threads = 1;
    ProgramAlignment Serial =
        alignProgram(W.Prog, W.DataSets[0].Profile, Options);
    for (unsigned Threads : {2u, 8u}) {
      Options.Threads = Threads;
      ProgramAlignment Parallel =
          alignProgram(W.Prog, W.DataSets[0].Profile, Options);
      expectAlignmentsIdentical(Serial, Parallel,
                                Spec.Benchmark + " threads=" +
                                    std::to_string(Threads));
    }
  }
}

/// The verify hook (PipelineVerifier) must see a coherent, serialized
/// stream of procedures at any thread count — and instrumentation must
/// not change results.
TEST(PipelineTest, ThreadedRunIdenticalUnderVerifyHooks) {
  WorkloadInstance W = smallWorkload("com", /*BudgetCap=*/2000);
  AlignmentOptions Options;
  ProgramAlignment Serial =
      alignProgram(W.Prog, W.DataSets[0].Profile, Options);
  for (unsigned Threads : {1u, 8u}) {
    AlignmentOptions Instrumented;
    Instrumented.Threads = Threads;
    DiagnosticEngine Diags;
    ProgramAlignment Result = alignProgramVerified(
        W.Prog, W.DataSets[0].Profile, Instrumented, Diags, VerifyOptions());
    EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
    expectAlignmentsIdentical(Serial, Result,
                              "verified threads=" + std::to_string(Threads));
  }
}

TEST(IntegrationTest, RunsFindingBestStatisticsPopulated) {
  WorkloadInstance W = smallWorkload("com", 2000);
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  ProgramAlignment Result =
      verifiedAlign(W.Prog, W.DataSets[1].Profile, Options);
  for (const ProcedureAlignment &PA : Result.Procs) {
    EXPECT_GE(PA.SolverRuns, 1u);
    EXPECT_GE(PA.RunsFindingBest, 1u);
    EXPECT_LE(PA.RunsFindingBest, PA.SolverRuns);
  }
}
