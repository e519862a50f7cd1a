//===- tests/align_aligners_test.cpp - Layout algorithm tests -----------------===//

#include "AlignOne.h"
#include "align/Aligners.h"
#include "align/Reduction.h"
#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "tsp/Exact.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <optional>
#include <utility>

using namespace balign;

namespace {

const MachineModel Alpha = MachineModel::alpha21164();

/// A random procedure plus a random-behavior profile.
struct RandomCase {
  Procedure Proc{"empty"};
  ProcedureProfile Profile;

  explicit RandomCase(uint64_t Seed, unsigned Sites = 6) {
    Rng StructureRng(Seed * 3 + 1);
    GenParams Params;
    Params.TargetBranchSites = Sites;
    Params.MultiwayFraction = 0.08;
    GeneratedProcedure Gen =
        generateProcedure("rand", Params, StructureRng);
    Proc = std::move(Gen.Proc);
    Rng TraceRng(Seed * 5 + 2);
    Profile = walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, 500);
  }
};

} // namespace

TEST(OriginalAlignerTest, IdentityLayout) {
  RandomCase C(1);
  ProcedureAlignment A = alignOne(C.Proc, C.Profile);
  EXPECT_EQ(A.OriginalLayout.Order, Layout::original(C.Proc).Order);
  EXPECT_EQ(A.OriginalPenalty,
            evaluateLayout(C.Proc, Layout::original(C.Proc), Alpha,
                           C.Profile, C.Profile));
}

TEST(GreedyAlignerTest, ProducesValidLayouts) {
  for (uint64_t Seed = 1; Seed != 12; ++Seed) {
    RandomCase C(Seed);
    Layout L = GreedyAligner().align(C.Proc, C.Profile, Alpha);
    EXPECT_TRUE(L.isValid(C.Proc)) << "seed " << Seed;
  }
}

TEST(GreedyAlignerTest, HotEdgeBecomesAdjacent) {
  // entry(cond) -> {hot, cold}; hot -> join, cold -> join; join -> ret.
  CFGBuilder B("hot");
  BlockId C = B.cond(4);
  BlockId Cold = B.jump(4); // Created first: original fall-through.
  BlockId Hot = B.jump(4);
  BlockId Join = B.jump(2);
  BlockId Exit = B.ret(1);
  B.branches(C, Cold, Hot);
  B.edge(Cold, Join).edge(Hot, Join).edge(Join, Exit);
  Procedure Proc = B.take();
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.EdgeCounts[C] = {5, 95};
  Profile.EdgeCounts[Cold] = {5};
  Profile.EdgeCounts[Hot] = {95};
  Profile.EdgeCounts[Join] = {100};
  Profile.BlockCounts = {100, 5, 95, 100, 100};

  Layout L = GreedyAligner().align(Proc, Profile, Alpha);
  ASSERT_TRUE(L.isValid(Proc));
  // The hot successor must directly follow the conditional.
  size_t PosC = 0;
  for (size_t I = 0; I != L.Order.size(); ++I)
    if (L.Order[I] == C)
      PosC = I;
  ASSERT_LT(PosC + 1, L.Order.size());
  EXPECT_EQ(L.Order[PosC + 1], Hot);
}

TEST(GreedyAlignerTest, NeverWorseThanHalfOfOriginalOnSkewedCode) {
  // Sanity: on random procedures with skewed profiles, greedy should
  // never *increase* the penalty dramatically; check it at least ties
  // the original layout in aggregate.
  uint64_t GreedyTotal = 0, OriginalTotal = 0;
  for (uint64_t Seed = 1; Seed != 15; ++Seed) {
    RandomCase C(Seed);
    Layout L = GreedyAligner().align(C.Proc, C.Profile, Alpha);
    GreedyTotal += evaluateLayout(C.Proc, L, Alpha, C.Profile, C.Profile);
    OriginalTotal += evaluateLayout(C.Proc, Layout::original(C.Proc), Alpha,
                                    C.Profile, C.Profile);
  }
  EXPECT_LE(GreedyTotal, OriginalTotal);
}

/// Property sweep: on small procedures the pipeline's TSP layout is
/// exactly optimal (verified against exact DP on the reduction), and
/// therefore no worse than greedy.
class TspAlignerOptimality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(TspAlignerOptimality, MatchesExactOptimumAndBeatsGreedy) {
  uint64_t Seed = GetParam();
  RandomCase C(Seed, /*Sites=*/4); // Small: DTSP stays <= 18 cities.
  if (C.Proc.numBlocks() + 1 > MaxExactCities)
    GTEST_SKIP() << "instance too large for the exact oracle";

  // The tour cost is the solver's, observed through the verify hook.
  std::optional<int64_t> TourCost;
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  Options.AfterProcedure = [&](size_t, const Procedure &,
                               const ProcedureProfile &,
                               const ProcedureAlignment &,
                               const SolveArtifacts *Artifacts) {
    if (Artifacts)
      TourCost = Artifacts->Solution.Cost;
  };
  ProcedureAlignment A = alignOne(C.Proc, C.Profile, Options);
  ASSERT_TRUE(A.TspLayout.isValid(C.Proc));
  ASSERT_TRUE(TourCost) << "the tsp path did not solve seed " << Seed;
  uint64_t TspPenalty =
      evaluateLayout(C.Proc, A.TspLayout, Alpha, C.Profile, C.Profile);
  EXPECT_EQ(TspPenalty, A.TspPenalty);
  EXPECT_EQ(static_cast<int64_t>(TspPenalty), *TourCost);

  AlignmentTsp Atsp = buildAlignmentTsp(C.Proc, C.Profile, Alpha);
  int64_t Optimal = solveExactDirected(Atsp.Tsp);
  EXPECT_EQ(*TourCost, Optimal) << "seed " << Seed;

  GreedyAligner Greedy;
  Layout G = Greedy.align(C.Proc, C.Profile, Alpha);
  EXPECT_LE(TspPenalty,
            evaluateLayout(C.Proc, G, Alpha, C.Profile, C.Profile));
}

INSTANTIATE_TEST_SUITE_P(Seeds, TspAlignerOptimality,
                         ::testing::Range<uint64_t>(1, 16));

TEST(TspAlignerTest, ReportsRunStatistics) {
  RandomCase C(3);
  ProcedureAlignment A = alignOne(C.Proc, C.Profile);
  EXPECT_GE(A.SolverRuns, 1u);
  EXPECT_GE(A.RunsFindingBest, 1u);
  EXPECT_LE(A.RunsFindingBest, A.SolverRuns);
}

TEST(CalderGrunwaldTest, ValidAndCompetitiveWithGreedy) {
  uint64_t CgTotal = 0, GreedyTotal = 0;
  for (uint64_t Seed = 1; Seed != 12; ++Seed) {
    RandomCase C(Seed);
    CalderGrunwaldAligner Cg;
    GreedyAligner Greedy;
    Layout LCg = Cg.align(C.Proc, C.Profile, Alpha);
    Layout LG = Greedy.align(C.Proc, C.Profile, Alpha);
    ASSERT_TRUE(LCg.isValid(C.Proc));
    CgTotal += evaluateLayout(C.Proc, LCg, Alpha, C.Profile, C.Profile);
    GreedyTotal += evaluateLayout(C.Proc, LG, Alpha, C.Profile, C.Profile);
  }
  // Cost-model-guided greedy with exhaustive chain ordering should not
  // lose to frequency greedy in aggregate.
  EXPECT_LE(CgTotal, GreedyTotal);
}

TEST(AlignersTest, EntryAlwaysFirst) {
  for (uint64_t Seed = 20; Seed != 26; ++Seed) {
    RandomCase C(Seed);
    ProcedureAlignment Pipeline = alignOne(C.Proc, C.Profile);
    std::pair<const char *, Layout> Layouts[] = {
        {"original", Pipeline.OriginalLayout},
        {"greedy", GreedyAligner().align(C.Proc, C.Profile, Alpha)},
        {"tsp", Pipeline.TspLayout},
        {"cg", CalderGrunwaldAligner().align(C.Proc, C.Profile, Alpha)},
        {"exttsp", ExtTspAligner().align(C.Proc, C.Profile, Alpha)}};
    for (const auto &[Name, L] : Layouts)
      EXPECT_EQ(L.Order.front(), C.Proc.entry()) << Name;
  }
}
