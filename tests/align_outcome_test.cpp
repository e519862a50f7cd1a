//===- tests/align_outcome_test.cpp - Trace-driven cost-model tests ------------===//

#include "align/OutcomeCosts.h"
#include "align/Reduction.h"
#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "tsp/IteratedOpt.h"
#include "workloads/Generator.h"

#include "ProfileOracles.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

const MachineModel Alpha = MachineModel::alpha21164();

struct OutcomeFixture {
  Procedure Proc{"empty"};
  ProcedureProfile Profile;
  ExecutionTrace Trace;
  MaterializedLayout Mat;

  explicit OutcomeFixture(uint64_t Seed, unsigned Sites = 6,
                          uint64_t Budget = 2000) {
    Rng StructureRng(Seed * 3 + 7);
    GenParams Params;
    Params.TargetBranchSites = Sites;
    Params.MultiwayFraction = 0.1;
    GeneratedProcedure Gen = generateProcedure("o", Params, StructureRng);
    Proc = std::move(Gen.Proc);
    Rng TraceRng(Seed * 5 + 9);
    Profile = walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng,
                          Budget, &Trace);
    Mat = materializeLayout(Proc, Layout::original(Proc), Profile, Alpha);
  }
};

} // namespace

TEST(OutcomeCountsTest, SumsMatchEdgeProfile) {
  OutcomeFixture F(1);
  OutcomeCounts Outcomes = collectOutcomeCounts(F.Proc, F.Mat, F.Trace);
  for (BlockId B = 0; B != F.Proc.numBlocks(); ++B) {
    for (size_t S = 0; S != F.Proc.successors(B).size(); ++S) {
      EXPECT_EQ(Outcomes.Correct[B][S] + Outcomes.Incorrect[B][S],
                F.Profile.edgeCount(B, S))
          << "block " << B << " succ " << S;
    }
  }
}

TEST(OutcomeCountsTest, UnconditionalsAlwaysCorrect) {
  OutcomeFixture F(2);
  OutcomeCounts Outcomes = collectOutcomeCounts(F.Proc, F.Mat, F.Trace);
  for (BlockId B = 0; B != F.Proc.numBlocks(); ++B) {
    if (F.Proc.block(B).Kind != TerminatorKind::Unconditional)
      continue;
    EXPECT_EQ(Outcomes.Incorrect[B][0], 0u);
  }
}

TEST(OutcomeCountsTest, MultiwayPredictsMostCommonArm) {
  OutcomeFixture F(3, /*Sites=*/8);
  OutcomeCounts Outcomes = collectOutcomeCounts(F.Proc, F.Mat, F.Trace);
  for (BlockId B = 0; B != F.Proc.numBlocks(); ++B) {
    if (F.Proc.block(B).Kind != TerminatorKind::Multiway)
      continue;
    // Exactly one arm has Correct counts; it is the most executed one.
    size_t CorrectArms = 0;
    uint64_t CorrectCount = 0;
    for (size_t S = 0; S != F.Proc.successors(B).size(); ++S) {
      if (Outcomes.Correct[B][S] != 0) {
        ++CorrectArms;
        CorrectCount = Outcomes.Correct[B][S];
      }
    }
    if (F.Profile.blockCount(B) == 0)
      continue;
    EXPECT_LE(CorrectArms, 1u);
    for (size_t S = 0; S != F.Proc.successors(B).size(); ++S)
      EXPECT_LE(Outcomes.Incorrect[B][S], CorrectCount)
          << "predicted arm must be the most common";
  }
}

TEST(OutcomeCountsTest, WellPredictedLoopsBeatStaticAssumption) {
  // A 90%-biased loop: the bimodal predictor mispredicts roughly the
  // minority executions, like the static assumption — but a strictly
  // alternating branch fools the 2-bit counter far more than a static
  // majority prediction would. Verify the counters behave sanely on a
  // hand-built alternating trace.
  CFGBuilder B("alt");
  BlockId C = B.cond(2);
  BlockId T = B.jump(1);
  BlockId R = B.ret(1);
  B.branches(C, T, R);
  B.edge(T, C);
  Procedure Proc = B.take();
  // Trace: C T C T ... C R repeated (alternating taken/not-taken at C
  // would need 2 successors swapping; here C->T dominates, so the
  // predictor should learn it).
  ExecutionTrace Trace;
  for (int Rep = 0; Rep != 50; ++Rep) {
    for (int Iter = 0; Iter != 9; ++Iter) {
      Trace.Blocks.push_back(C);
      Trace.Blocks.push_back(T);
    }
    Trace.Blocks.push_back(C);
    Trace.Blocks.push_back(R);
    ++Trace.Invocations;
  }
  ProcedureProfile Profile = collectProfile(Proc, Trace);
  MaterializedLayout Mat =
      materializeLayout(Proc, Layout::original(Proc), Profile, Alpha);
  OutcomeCounts Outcomes = collectOutcomeCounts(Proc, Mat, Trace);
  // The hot edge C->T is learned: nearly all correct.
  EXPECT_GT(Outcomes.Correct[C][0], 400u);
  // The loop exits are the surprising direction: mostly mispredicted.
  EXPECT_GT(Outcomes.Incorrect[C][1], Outcomes.Correct[C][1]);
}

TEST(OutcomeTspTest, StructureMatchesStaticReduction) {
  OutcomeFixture F(4);
  OutcomeCounts Outcomes = collectOutcomeCounts(F.Proc, F.Mat, F.Trace);
  AlignmentTsp Dynamic = buildOutcomeTsp(F.Proc, Outcomes, Alpha);
  AlignmentTsp Static = buildAlignmentTsp(F.Proc, F.Profile, Alpha);
  EXPECT_EQ(Dynamic.Tsp.numCities(), Static.Tsp.numCities());
  EXPECT_EQ(Dynamic.DummyCity, Static.DummyCity);
  EXPECT_EQ(Dynamic.Tsp.cost(Dynamic.DummyCity, F.Proc.entry()), 0);
  // Entry pin dominates real rows in both.
  for (BlockId B = 1; B != F.Proc.numBlocks(); ++B)
    EXPECT_EQ(Dynamic.Tsp.cost(Dynamic.DummyCity, B), Dynamic.EntryPin);
}

TEST(OutcomeTspTest, SolvableAndLayoutValid) {
  for (uint64_t Seed = 1; Seed != 6; ++Seed) {
    OutcomeFixture F(Seed * 11);
    OutcomeCounts Outcomes = collectOutcomeCounts(F.Proc, F.Mat, F.Trace);
    AlignmentTsp Atsp = buildOutcomeTsp(F.Proc, Outcomes, Alpha);
    IteratedOptOptions Options;
    Options.Seed = Seed;
    DtspSolution Solution = solveDirectedTsp(Atsp.Tsp, Options);
    Layout L = layoutFromTour(F.Proc, Atsp, Solution.Tour);
    EXPECT_TRUE(L.isValid(F.Proc));
    EXPECT_GE(Solution.Cost, 0);
  }
}

TEST(OutcomeTspTest, PerfectPredictionLeavesOnlyStructuralCosts) {
  // With every conditional outcome correct, the only penalties left are
  // taken-branch misfetches and jump costs — mispredicts contribute 0.
  CFGBuilder B("perfect");
  BlockId C = B.cond(2);
  BlockId T = B.jump(1);
  BlockId E = B.ret(1);
  B.branches(C, T, E);
  B.edge(T, E);
  Procedure Proc = B.take();
  OutcomeCounts Outcomes = OutcomeCounts::zeroed(Proc);
  Outcomes.Correct[C] = {70, 30};
  Outcomes.Correct[T] = {70};
  AlignmentTsp Atsp = buildOutcomeTsp(Proc, Outcomes, Alpha);
  // Layout C,T: T falls through (70 x pNN = 0), E taken-correct
  // (30 x pTT = 30).
  EXPECT_EQ(Atsp.Tsp.cost(C, T), 30);
  // Layout C,E: E falls through free, T taken-correct 70.
  EXPECT_EQ(Atsp.Tsp.cost(C, E), 70);
}
