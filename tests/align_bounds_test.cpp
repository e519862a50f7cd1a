//===- tests/align_bounds_test.cpp - Penalty lower-bound tests ----------------===//

#include "align/Aligners.h"
#include "align/Bounds.h"
#include "align/Reduction.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "tsp/Exact.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

const MachineModel Alpha = MachineModel::alpha21164();

struct RandomCase {
  Procedure Proc{"empty"};
  ProcedureProfile Profile;

  explicit RandomCase(uint64_t Seed, unsigned Sites) {
    Rng StructureRng(Seed * 3 + 11);
    GenParams Params;
    Params.TargetBranchSites = Sites;
    GeneratedProcedure Gen = generateProcedure("b", Params, StructureRng);
    Proc = std::move(Gen.Proc);
    Rng TraceRng(Seed * 7 + 13);
    Profile = walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, 400);
  }
};

} // namespace

/// Property sweep: both bounds sit at or below the exact optimal penalty.
class BoundsValidity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundsValidity, BoundsBelowExactOptimum) {
  uint64_t Seed = GetParam();
  RandomCase C(Seed, /*Sites=*/4);
  if (C.Proc.numBlocks() + 1 > MaxExactCities)
    GTEST_SKIP() << "too large for the exact oracle";

  AlignmentTsp Atsp = buildAlignmentTsp(C.Proc, C.Profile, Alpha);
  int64_t Optimal = solveExactDirected(Atsp.Tsp);
  ASSERT_GE(Optimal, 0);

  PenaltyBounds Bounds = computePenaltyBounds(
      C.Proc, C.Profile, Alpha, static_cast<uint64_t>(Optimal));
  EXPECT_LE(Bounds.HeldKarp, static_cast<double>(Optimal) + 1e-6);
  EXPECT_LE(Bounds.Assignment, Optimal);
  EXPECT_GE(Bounds.HeldKarp, 0.0);
  EXPECT_GE(Bounds.Assignment, 0);
  EXPECT_GE(Bounds.AssignmentCycles, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsValidity,
                         ::testing::Range<uint64_t>(1, 13));

TEST(BoundsTest, HeldKarpTightOnAlignmentInstances) {
  // The paper: HK bounds average within 0.3% of the tours found. Check
  // the aggregate gap against the TSP aligner on random procedures.
  double TourTotal = 0.0, BoundTotal = 0.0;
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    RandomCase C(Seed, /*Sites=*/8);
    TspAligner Aligner;
    TspAligner::Result R = Aligner.alignWithStats(C.Proc, C.Profile, Alpha);
    PenaltyBounds Bounds = computePenaltyBounds(
        C.Proc, C.Profile, Alpha, static_cast<uint64_t>(R.TourCost));
    TourTotal += static_cast<double>(R.TourCost);
    BoundTotal += Bounds.HeldKarp;
    EXPECT_LE(Bounds.HeldKarp, static_cast<double>(R.TourCost) + 1e-6);
  }
  ASSERT_GT(TourTotal, 0.0);
  EXPECT_GT(BoundTotal / TourTotal, 0.95)
      << "HK bound should be within a few percent of the tours in sum";
}

TEST(BoundsTest, ZeroProfileGivesZeroBounds) {
  RandomCase C(99, 3);
  ProcedureProfile Zero = ProcedureProfile::zeroed(C.Proc);
  PenaltyBounds Bounds = computePenaltyBounds(C.Proc, Zero, Alpha, 0);
  EXPECT_DOUBLE_EQ(Bounds.HeldKarp, 0.0);
  EXPECT_EQ(Bounds.Assignment, 0);
}
