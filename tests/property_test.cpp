//===- tests/property_test.cpp - Cross-cutting property tests -----------------===//

#include "align/Aligners.h"
#include "interproc/ProcOrder.h"
#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "sim/ICache.h"
#include "tsp/Transform.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace balign;

// --- Workload data-set coherence -------------------------------------------

TEST(WorkloadPropertyTest, StronglyBiasedBranchesAgreeAcrossDataSets) {
  // DESIGN.md: only weakly-biased branches may flip direction between
  // inputs. Verify on the built suite: wherever both data sets give a
  // conditional a bias >= 0.88, they favor the same successor.
  WorkloadInstance W = buildWorkloadByName("esp");
  size_t Checked = 0;
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      if (Proc.block(B).Kind != TerminatorKind::Conditional)
        continue;
      const std::vector<double> &PA = W.DataSets[0].Behaviors[P].Probs[B];
      const std::vector<double> &PB = W.DataSets[1].Behaviors[P].Probs[B];
      double MaxA = std::max(PA[0], PA[1]);
      double MaxB = std::max(PB[0], PB[1]);
      if (MaxA < 0.88 || MaxB < 0.88)
        continue;
      ++Checked;
      EXPECT_EQ(PA[0] > PA[1], PB[0] > PB[1])
          << "proc " << P << " block " << B
          << ": strongly biased branch flipped between data sets";
    }
  }
  EXPECT_GT(Checked, 100u) << "the property must actually be exercised";
}

TEST(WorkloadPropertyTest, LoopHeadersStayLoopBiasedInBothDataSets) {
  WorkloadInstance W = buildWorkloadByName("su2");
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
    const GeneratedProcedure &Gen = W.Generated[P];
    for (BlockId B = 0; B != Gen.Proc.numBlocks(); ++B) {
      if (Gen.LoopStayIndex[B] < 0)
        continue;
      for (const WorkloadDataSet &Ds : W.DataSets) {
        double Stay = Ds.Behaviors[P]
                          .Probs[B][static_cast<size_t>(Gen.LoopStayIndex[B])];
        EXPECT_GT(Stay, 0.5) << "a loop must iterate more than it exits";
      }
    }
  }
}

// --- Penalty model under other machine models -------------------------------

class DeepPipelinePenalty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DeepPipelinePenalty, ScalesWithModelParameters) {
  // The same layout decisions, re-costed under the deep pipeline, must
  // equal the hand-computed values (the model is pure arithmetic).
  uint64_t HotCount = 10 * GetParam();
  uint64_t ColdCount = 3 * GetParam();
  CFGBuilder B("m");
  BlockId C = B.cond(4);
  BlockId T = B.ret(1);
  BlockId E = B.ret(1);
  B.branches(C, T, E);
  Procedure Proc = B.take();
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.EdgeCounts[0] = {HotCount, ColdCount};
  Profile.BlockCounts = {HotCount + ColdCount, HotCount, ColdCount};

  MachineModel Deep = MachineModel::deepPipeline();
  EXPECT_EQ(blockLayoutPenalty(Proc, Deep, Profile, Profile, C, T),
            ColdCount * Deep.CondMispredict);
  EXPECT_EQ(blockLayoutPenalty(Proc, Deep, Profile, Profile, C, E),
            HotCount * Deep.CondTakenCorrect +
                ColdCount * Deep.CondMispredict);
  // Fixup case: min of the two orientations.
  uint64_t TakenToHot = HotCount * Deep.CondTakenCorrect +
                        ColdCount * (Deep.CondMispredict + Deep.UncondBranch);
  uint64_t FallToHot = HotCount * (Deep.CondFallThrough + Deep.UncondBranch) +
                       ColdCount * Deep.CondMispredict;
  EXPECT_EQ(
      blockLayoutPenalty(Proc, Deep, Profile, Profile, C, InvalidBlock),
      std::min(TakenToHot, FallToHot));
}

INSTANTIATE_TEST_SUITE_P(Scales, DeepPipelinePenalty,
                         ::testing::Values(1, 7, 100, 12345));

// --- Cache geometry edge cases ----------------------------------------------

TEST(ICachePropertyTest, FullCoverageSweep) {
  // Touching an entire cache-sized region misses exactly once per line,
  // for several geometries.
  for (uint64_t Size : {256u, 1024u, 8192u}) {
    for (uint64_t Line : {16u, 32u, 64u}) {
      ICacheConfig Config;
      Config.SizeBytes = Size;
      Config.LineBytes = Line;
      ICache Cache(Config);
      EXPECT_EQ(Cache.accessRange(0, Size), Size / Line);
      EXPECT_EQ(Cache.accessRange(0, Size), 0u) << "everything warm";
      // A second cache-sized region aliases every set.
      EXPECT_EQ(Cache.accessRange(Size, Size), Size / Line);
      EXPECT_EQ(Cache.accessRange(0, Size), Size / Line) << "fully evicted";
    }
  }
}

// --- Symmetric transform with negative and skewed costs ----------------------

TEST(TransformPropertyTest, NegativeCostsSurviveRoundTrip) {
  DirectedTsp D(5);
  int64_t V = -40;
  for (City I = 0; I != 5; ++I)
    for (City J = 0; J != 5; ++J)
      if (I != J)
        D.setCost(I, J, V += 17);
  SymmetricTransform T = transformToSymmetric(D);
  std::vector<City> Tour = {0, 3, 1, 4, 2};
  EXPECT_EQ(T.toDirectedCost(T.tourCost(T.toSymmetricTour(Tour))),
            D.tourCost(Tour));
  EXPECT_GT(T.LockBonus, 0);
}

// --- Calder-Grunwald exhaustive chain order ----------------------------------

TEST(CalderGrunwaldPropertyTest, FindsBestChainPermutationOnCraftedCase) {
  // Three independent hot diamonds; the exhaustive chain-order search
  // must tie or beat plain concatenation for every seedless input.
  CFGBuilder B("three");
  BlockId Entry = B.jump(2);
  std::vector<BlockId> Conds, Joins;
  for (int I = 0; I != 3; ++I) {
    BlockId C = B.cond(3);
    BlockId T = B.jump(2);
    BlockId E = B.jump(2);
    BlockId J = B.jump(1);
    B.branches(C, T, E);
    B.edge(T, J).edge(E, J);
    Conds.push_back(C);
    Joins.push_back(J);
  }
  BlockId Exit = B.ret(1);
  B.edge(Entry, Conds[0]);
  B.edge(Joins[0], Conds[1]);
  B.edge(Joins[1], Conds[2]);
  B.edge(Joins[2], Exit);
  Procedure Proc = B.take();

  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  uint64_t F = 1000;
  Profile.BlockCounts.assign(Proc.numBlocks(), 0);
  Profile.BlockCounts[Entry] = F;
  for (int I = 0; I != 3; ++I) {
    Profile.EdgeCounts[Conds[I]] = {F * 9 / 10, F / 10};
    Profile.EdgeCounts[Conds[I] + 1] = {F * 9 / 10}; // then arm
    Profile.EdgeCounts[Conds[I] + 2] = {F / 10};     // else arm
    Profile.EdgeCounts[Joins[I]] = {F};
    Profile.BlockCounts[Conds[I]] = F;
    Profile.BlockCounts[Conds[I] + 1] = F * 9 / 10;
    Profile.BlockCounts[Conds[I] + 2] = F / 10;
    Profile.BlockCounts[Joins[I]] = F;
  }
  Profile.EdgeCounts[Entry] = {F};
  Profile.BlockCounts[Exit] = F;

  MachineModel Alpha = MachineModel::alpha21164();
  CalderGrunwaldAligner Cg;
  GreedyAligner Greedy;
  uint64_t CgPenalty = evaluateLayout(
      Proc, Cg.align(Proc, Profile, Alpha), Alpha, Profile, Profile);
  uint64_t GreedyPenalty = evaluateLayout(
      Proc, Greedy.align(Proc, Profile, Alpha), Alpha, Profile, Profile);
  EXPECT_LE(CgPenalty, GreedyPenalty);
}

// --- TSP procedure order cuts at the lightest adjacency ----------------------

TEST(ProcOrderPropertyTest, TspOrderCutsLightestTourEdge) {
  // A ring affinity: 0-1-2-3-4-0 with one weak link (3-4). The tour is
  // the ring; the linearization must break at the weak link, keeping
  // all heavy adjacencies.
  std::vector<std::vector<uint64_t>> Affinity(5,
                                              std::vector<uint64_t>(5, 0));
  auto Set = [&](size_t A, size_t B, uint64_t W) {
    Affinity[A][B] = Affinity[B][A] = W;
  };
  Set(0, 1, 100);
  Set(1, 2, 100);
  Set(2, 3, 100);
  Set(3, 4, 5); // Weak link.
  Set(4, 0, 100);
  ProcOrder Order = tspOrder(Affinity);
  EXPECT_EQ(adjacentAffinity(Order, Affinity), 400u)
      << "all four heavy edges kept; the weak one cut";
}
