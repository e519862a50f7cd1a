//===- tests/pipeline_unit_test.cpp - Pipeline policy unit tests --------------===//

#include "align/Pipeline.h"
#include "ir/CFGBuilder.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "tsp/Construct.h"
#include "tsp/IteratedOpt.h"
#include "workloads/Generator.h"

#include "StageSpans.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

Program twoProcs(uint64_t Seed) {
  Program Prog("two");
  for (int P = 0; P != 2; ++P) {
    Rng R(Seed + P);
    GenParams Params;
    Params.TargetBranchSites = 5;
    Prog.addProcedure(generateProcedure("p" + std::to_string(P), Params,
                                        R).Proc);
  }
  return Prog;
}

} // namespace

TEST(PipelineUnitTest, UnprofiledProceduresKeepOriginalLayout) {
  Program Prog = twoProcs(3);
  ProgramProfile Train;
  // Proc 0 profiled, proc 1 completely cold.
  {
    Rng TraceRng(9);
    Train.Procs.push_back(walkProfile(Prog.proc(0),
                                      BranchBehavior::uniform(Prog.proc(0)),
                                      TraceRng, 300));
  }
  Train.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(1)));

  AlignmentOptions Options;
  Options.ComputeBounds = false;
  ProgramAlignment Result = alignProgram(Prog, Train, Options);
  // Cold procedure: untouched by both aligners.
  EXPECT_EQ(Result.Procs[1].GreedyLayout.Order,
            Layout::original(Prog.proc(1)).Order);
  EXPECT_EQ(Result.Procs[1].TspLayout.Order,
            Layout::original(Prog.proc(1)).Order);
  EXPECT_EQ(Result.Procs[1].TspPenalty, 0u);
  // Hot procedure still aligned normally.
  EXPECT_LE(Result.Procs[0].TspPenalty, Result.Procs[0].OriginalPenalty);
}

TEST(PipelineUnitTest, AllTiesKeepCompilerOrder) {
  // On an all-zero cost matrix every tour is optimal; the canonical
  // start must win so the layout stays put.
  DirectedTsp Zero(9);
  IteratedOptOptions Options;
  DtspSolution Solution = solveDirectedTsp(Zero, Options);
  EXPECT_EQ(Solution.Cost, 0);
  EXPECT_EQ(Solution.Tour, canonicalTour(9));
  EXPECT_EQ(Solution.RunsFindingBest, Solution.NumRuns);
}

TEST(PipelineUnitTest, SeedChangesSolverStreamNotDeterminism) {
  Program Prog = twoProcs(11);
  ProgramProfile Train;
  for (int P = 0; P != 2; ++P) {
    Rng TraceRng(21 + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, 400));
  }
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  ProgramAlignment A = alignProgram(Prog, Train, Options);
  ProgramAlignment B = alignProgram(Prog, Train, Options);
  for (int P = 0; P != 2; ++P) {
    EXPECT_EQ(A.Procs[P].TspLayout.Order, B.Procs[P].TspLayout.Order)
        << "alignProgram must be deterministic";
    EXPECT_EQ(A.Procs[P].TspPenalty, B.Procs[P].TspPenalty);
  }
}

TEST(PipelineUnitTest, EvaluateProgramPenaltySums) {
  Program Prog = twoProcs(17);
  ProgramProfile Train;
  for (int P = 0; P != 2; ++P) {
    Rng TraceRng(31 + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, 200));
  }
  std::vector<Layout> Layouts = {Layout::original(Prog.proc(0)),
                                 Layout::original(Prog.proc(1))};
  MachineModel Model = MachineModel::alpha21164();
  uint64_t Sum = evaluateProgramPenalty(Prog, Layouts, Model, Train, Train);
  uint64_t Manual =
      evaluateLayout(Prog.proc(0), Layouts[0], Model, Train.Procs[0],
                     Train.Procs[0]) +
      evaluateLayout(Prog.proc(1), Layouts[1], Model, Train.Procs[1],
                     Train.Procs[1]);
  EXPECT_EQ(Sum, Manual);
}

/// The stage spans are the pipeline's only stage timers: each profiled
/// procedure's track records exactly the stages its path ran, once each
/// and in order, at any thread count — and an unprofiled procedure
/// records none.
TEST(PipelineUnitTest, StageSpansFollowEachProceduresPath) {
  Program Prog("three");
  for (int P = 0; P != 3; ++P) {
    Rng R(29 + P);
    GenParams Params;
    Params.TargetBranchSites = 5;
    Prog.addProcedure(generateProcedure("p" + std::to_string(P), Params,
                                        R).Proc);
  }
  // Proc 0 hot, proc 1 profiled but cold, proc 2 never executed.
  ProgramProfile Train;
  for (uint64_t Budget : {500u, 8u}) {
    size_t P = Train.Procs.size();
    Rng TraceRng(41 + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, Budget));
  }
  Train.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(2)));
  ASSERT_GE(Train.Procs[0].executedBranches(Prog.proc(0)),
            ColdProcBranchThreshold);
  ASSERT_GT(Train.Procs[1].executedBranches(Prog.proc(1)), 0u);
  ASSERT_LT(Train.Procs[1].executedBranches(Prog.proc(1)),
            ColdProcBranchThreshold);

  using Stages = std::vector<std::string>;
  const Stages Tsp = {"stage.greedy", "stage.matrix", "stage.solve",
                      "stage.bounds"};
  for (unsigned Threads : {1u, 4u}) {
    SCOPED_TRACE("threads=" + std::to_string(Threads));
    AlignmentOptions Options;
    Options.ComputeBounds = true;
    Options.Threads = Threads;

    TracedAlignment Run = alignTraced(Prog, Train, Options);
    EXPECT_EQ(Run.stages(0), Tsp);
    EXPECT_EQ(Run.stages(1), Tsp);
    EXPECT_EQ(Run.stages(2), Stages());

    AlignmentOptions Ext = Options;
    Ext.Primary = PrimaryAligner::ExtTsp;
    Run = alignTraced(Prog, Train, Ext);
    const Stages Chain = {"stage.greedy", "stage.chain", "stage.bounds"};
    EXPECT_EQ(Run.stages(0), Chain);
    EXPECT_EQ(Run.stages(1), Chain);
    EXPECT_EQ(Run.stages(2), Stages());

    AlignmentOptions ShortLong = Options;
    ShortLong.Model.Encoding = BranchEncoding::ShortLong;
    Run = alignTraced(Prog, Train, ShortLong);
    const Stages Displace = {"stage.greedy", "stage.matrix", "stage.solve",
                             "stage.displace", "stage.bounds"};
    EXPECT_EQ(Run.stages(0), Displace);
    EXPECT_EQ(Run.stages(1), Displace);
    EXPECT_EQ(Run.stages(2), Stages());

    AlignmentOptions ColdGreedy = Options;
    ColdGreedy.Effort = EffortPolicy::ScaledColdGreedy;
    Run = alignTraced(Prog, Train, ColdGreedy);
    EXPECT_EQ(Run.stages(0), Tsp);
    EXPECT_EQ(Run.stages(1), Stages{"stage.greedy"});
    EXPECT_EQ(Run.stages(2), Stages());
  }
}

/// Thread counts beyond the procedure count (and 0 = hardware default)
/// are safe and change nothing.
TEST(PipelineUnitTest, OversubscribedAndDefaultThreadCountsIdentical) {
  Program Prog = twoProcs(37);
  ProgramProfile Train;
  for (int P = 0; P != 2; ++P) {
    Rng TraceRng(51 + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, 300));
  }
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  Options.Threads = 1;
  ProgramAlignment Serial = alignProgram(Prog, Train, Options);
  for (unsigned Threads : {0u, 16u}) {
    Options.Threads = Threads;
    ProgramAlignment Other = alignProgram(Prog, Train, Options);
    ASSERT_EQ(Other.Procs.size(), Serial.Procs.size());
    for (size_t P = 0; P != Serial.Procs.size(); ++P) {
      EXPECT_EQ(Other.Procs[P].TspLayout.Order,
                Serial.Procs[P].TspLayout.Order)
          << "threads=" << Threads;
      EXPECT_EQ(Other.Procs[P].GreedyLayout.Order,
                Serial.Procs[P].GreedyLayout.Order)
          << "threads=" << Threads;
      EXPECT_EQ(Other.Procs[P].TspPenalty, Serial.Procs[P].TspPenalty)
          << "threads=" << Threads;
    }
  }
}

/// Kick-seeded restarts must not regress solution quality on small
/// instances: still exactly optimal (cross-checked in tsp_solver_test
/// against DP); here we check the restart path at least matches the
/// full-requeue path's cost on a mid-size instance.
TEST(PipelineUnitTest, SeededRestartQualityHolds) {
  Rng R(71);
  DirectedTsp D(24);
  for (City I = 0; I != 24; ++I)
    for (City J = 0; J != 24; ++J)
      if (I != J)
        D.setCost(I, J, static_cast<int64_t>(R.nextBelow(1000)));
  IteratedOptOptions Fast; // Default: seeded restarts.
  Fast.Seed = 5;
  IteratedOptOptions Thorough = Fast;
  Thorough.IterationsFactor = 8.0;
  DtspSolution SFast = solveDirectedTsp(D, Fast);
  DtspSolution SThorough = solveDirectedTsp(D, Thorough);
  EXPECT_LE(static_cast<double>(SFast.Cost),
            static_cast<double>(SThorough.Cost) * 1.03 + 1.0)
      << "2N-iteration seeded restarts should be within a few percent "
         "of an 8N budget";
}
