//===- tests/align_penalty_test.cpp - Penalty model and reduction tests -------===//

#include "align/Reduction.h"
#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <limits>

using namespace balign;

namespace {

/// cond entry with successors {taken=1, fall=2}, both returning.
struct CondFixture {
  Procedure Proc;
  ProcedureProfile Profile;

  CondFixture(uint64_t CountTaken, uint64_t CountFall)
      : Proc([] {
          CFGBuilder B("cond");
          BlockId C = B.cond(4);
          BlockId T = B.ret(2);
          BlockId F = B.ret(2);
          B.branches(C, T, F);
          return B.take();
        }()) {
    Profile = ProcedureProfile::zeroed(Proc);
    Profile.EdgeCounts[0] = {CountTaken, CountFall};
    Profile.BlockCounts = {CountTaken + CountFall, CountTaken, CountFall};
  }
};

const MachineModel Alpha = MachineModel::alpha21164();

/// A jump into a return, executed \p Count times. Its only priced cell
/// is entry -> dummy (the jump stays, 2 cycles a run), so EntryPin is
/// 2 * Count + 1.
struct JumpFixture {
  Procedure Proc;
  ProcedureProfile Profile;

  explicit JumpFixture(uint64_t Count)
      : Proc([] {
          CFGBuilder B("jump");
          BlockId J = B.jump(3);
          BlockId R = B.ret(1);
          B.edge(J, R);
          return B.take();
        }()) {
    Profile = ProcedureProfile::zeroed(Proc);
    Profile.BlockCounts = {Count, Count};
    Profile.EdgeCounts[0] = {Count};
  }
};

} // namespace

TEST(PenaltyTest, ReturnBlocksCostNothing) {
  CondFixture F(10, 5);
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 1, 2),
            0u);
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 2,
                               InvalidBlock),
            0u);
}

TEST(PenaltyTest, UnconditionalBlock) {
  CFGBuilder B("uncond");
  BlockId J = B.jump(3);
  BlockId R = B.ret(1);
  B.edge(J, R);
  Procedure Proc = B.take();
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.EdgeCounts[0] = {42};
  Profile.BlockCounts = {42, 42};
  // Falls through: free.
  EXPECT_EQ(blockLayoutPenalty(Proc, Alpha, Profile, Profile, J, R), 0u);
  // Anything else: a 2-cycle jump per execution.
  EXPECT_EQ(
      blockLayoutPenalty(Proc, Alpha, Profile, Profile, J, InvalidBlock),
      42u * 2);
}

TEST(PenaltyTest, ConditionalAllLayoutCases) {
  // Taken edge hotter: 100 vs 30; prediction = successor 0 (block 1).
  CondFixture F(100, 30);
  // Predicted successor (block 1) follows: only the cold edge
  // mispredicts: 30 * 5.
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 0, 1),
            30u * 5);
  // Other successor follows: hot edge pays the misfetch (100 * 1) plus
  // cold mispredicts (30 * 5).
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 0, 2),
            100u * 1 + 30u * 5);
  // Neither follows: fixup. Orientation (a): 100*1 + 30*(5+2) = 310.
  // Orientation (b): 100*(0+2) + 30*5 = 350. Min = 310.
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 0,
                               InvalidBlock),
            310u);
  EXPECT_TRUE(fixupTakenToPredicted(F.Proc, Alpha, F.Profile, 0));
}

TEST(PenaltyTest, FixupOrientationFlipsWhenFallThroughCheaper) {
  // With a nearly-balanced branch the inverted orientation wins:
  // (a) = 55*1 + 45*7 = 370; (b) = 55*2 + 45*5 = 335.
  CondFixture F(55, 45);
  EXPECT_FALSE(fixupTakenToPredicted(F.Proc, Alpha, F.Profile, 0));
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 0,
                               InvalidBlock),
            335u);
}

TEST(PenaltyTest, PredictionTieBreaksTowardLowerIndex) {
  CondFixture F(50, 50);
  // Tie: successor 0 predicted. Laying out successor 0 next pays only
  // the 50 mispredicts of edge 1.
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 0, 1),
            50u * 5);
  EXPECT_EQ(blockLayoutPenalty(F.Proc, Alpha, F.Profile, F.Profile, 0, 2),
            50u * 1 + 50u * 5);
}

TEST(PenaltyTest, CrossProfileChargesTestCounts) {
  // Train predicts successor 0 (hot in training); the test profile flips
  // the direction, so the formerly-cold edge now mispredicts en masse.
  CondFixture Train(90, 10);
  CondFixture Test(20, 80);
  // Layout puts block 1 (trained-predicted) next: test charges 80 * 5.
  EXPECT_EQ(blockLayoutPenalty(Train.Proc, Alpha, Train.Profile,
                               Test.Profile, 0, 1),
            80u * 5);
  // Same-data-set evaluation would have charged 10 * 5.
  EXPECT_EQ(blockLayoutPenalty(Train.Proc, Alpha, Train.Profile,
                               Train.Profile, 0, 1),
            10u * 5);
}

TEST(PenaltyTest, MultiwayIsLayoutIndependent) {
  CFGBuilder B("multi");
  BlockId M = B.multi(4);
  BlockId A0 = B.ret(1);
  BlockId A1 = B.ret(1);
  BlockId A2 = B.ret(1);
  B.edge(M, A0).edge(M, A1).edge(M, A2);
  Procedure Proc = B.take();
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.EdgeCounts[0] = {10, 70, 20};
  Profile.BlockCounts = {100, 10, 70, 20};
  // Predicted arm = successor 1 (70): 70*1 + (10+20)*3 = 160.
  uint64_t Expected = 70 * 1 + 30 * 3;
  for (BlockId X : {A0, A1, A2, InvalidBlock})
    EXPECT_EQ(blockLayoutPenalty(Proc, Alpha, Profile, Profile, 0, X),
              Expected);
}

TEST(ReductionTest, DummyRowPinsEntry) {
  CondFixture F(100, 30);
  AlignmentTsp Atsp = buildAlignmentTsp(F.Proc, F.Profile, Alpha);
  EXPECT_EQ(Atsp.Tsp.numCities(), 4u);
  EXPECT_EQ(Atsp.DummyCity, 3u);
  EXPECT_EQ(Atsp.Tsp.cost(Atsp.DummyCity, 0), 0);
  EXPECT_EQ(Atsp.Tsp.cost(Atsp.DummyCity, 1), Atsp.EntryPin);
  EXPECT_EQ(Atsp.Tsp.cost(Atsp.DummyCity, 2), Atsp.EntryPin);
  EXPECT_GT(Atsp.EntryPin, 0);
}

TEST(ReductionTest, EntryPinMustFitThreeTimesInInt64) {
  // 2^60 runs: the pin is 2^61 + 1, and three of it fit int64.
  JumpFixture Fits(uint64_t(1) << 60);
  AlignmentTsp Atsp = buildAlignmentTsp(Fits.Proc, Fits.Profile, Alpha);
  EXPECT_EQ(Atsp.EntryPin, (int64_t(1) << 61) + 1);
  EXPECT_EQ(Atsp.Tsp.cost(0, Atsp.DummyCity), int64_t(1) << 61);
  // 2^61 runs: a pin of 2^62 + 1 fits int64 once but not three times.
  JumpFixture Over(uint64_t(1) << 61);
  EXPECT_THROW(buildAlignmentTsp(Over.Proc, Over.Profile, Alpha),
               ResourceCapError);
}

TEST(ReductionTest, EntryPinBoundaryIsAThirdOfInt64) {
  constexpr uint64_t MaxPin = std::numeric_limits<int64_t>::max() / 3;
  JumpFixture F(1);
  auto pinFor = [&](uint64_t DummyCost, uint64_t OtherCost) {
    return buildPinnedTsp(F.Proc, [&](BlockId B, BlockId X) {
             if (B != 0)
               return uint64_t(0);
             return X == InvalidBlock ? DummyCost : OtherCost;
           })
        .EntryPin;
  };
  EXPECT_EQ(pinFor(MaxPin - 1, 0), static_cast<int64_t>(MaxPin));
  EXPECT_THROW(pinFor(MaxPin, 0), ResourceCapError);
  // A cell past int64, and a row maximum that would wrap the uint64 sum
  // back below the limit, are caught before any cell is cast.
  EXPECT_THROW(pinFor(0, ~uint64_t(0)), ResourceCapError);
  EXPECT_THROW(buildPinnedTsp(F.Proc,
                              [](BlockId B, BlockId) {
                                return B == 0 ? uint64_t(1) : ~uint64_t(0);
                              }),
               ResourceCapError);
}

TEST(ReductionTest, MatrixEntriesMatchPenaltyModel) {
  CondFixture F(100, 30);
  AlignmentTsp Atsp = buildAlignmentTsp(F.Proc, F.Profile, Alpha);
  EXPECT_EQ(Atsp.Tsp.cost(0, 1), 150);          // 30 * 5.
  EXPECT_EQ(Atsp.Tsp.cost(0, 2), 250);          // 100 + 150.
  EXPECT_EQ(Atsp.Tsp.cost(0, Atsp.DummyCity), 310); // Fixup case.
  EXPECT_EQ(Atsp.Tsp.cost(1, 2), 0);            // Returns are free.
}

TEST(ReductionTest, LayoutFromTourRotatesAndRepairs) {
  CondFixture F(100, 30);
  AlignmentTsp Atsp = buildAlignmentTsp(F.Proc, F.Profile, Alpha);
  Layout L = layoutFromTour(F.Proc, Atsp, {1, Atsp.DummyCity, 0, 2});
  EXPECT_TRUE(L.isValid(F.Proc));
  EXPECT_EQ(L.Order, (std::vector<BlockId>{0, 2, 1}));
  // A tour where the dummy exits into a non-entry block gets repaired.
  Layout Repaired = layoutFromTour(F.Proc, Atsp, {Atsp.DummyCity, 1, 0, 2});
  EXPECT_TRUE(Repaired.isValid(F.Proc));
  EXPECT_EQ(Repaired.Order.front(), F.Proc.entry());
}

/// The central reduction invariant, swept over random procedures: for
/// every layout, the DTSP walk cost equals the evaluator's penalty.
class ReductionEquivalence : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ReductionEquivalence, WalkCostEqualsEvaluatedPenalty) {
  uint64_t Seed = GetParam();
  Rng StructureRng(Seed * 91 + 1);
  GenParams Params;
  Params.TargetBranchSites = 3 + Seed % 8;
  Params.MultiwayFraction = 0.1;
  GeneratedProcedure Gen =
      generateProcedure("rand", Params, StructureRng);
  const Procedure &Proc = Gen.Proc;

  Rng TraceRng(Seed * 77 + 2);
  ProcedureProfile Profile =
      walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, 300);

  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Alpha);
  Rng LayoutRng(Seed * 13 + 3);
  for (int Trial = 0; Trial != 10; ++Trial) {
    Layout L = Layout::original(Proc);
    // Random layout keeping the entry first.
    for (size_t I = L.Order.size() - 1; I > 1; --I)
      std::swap(L.Order[I], L.Order[1 + LayoutRng.nextIndex(I)]);
    ASSERT_TRUE(L.isValid(Proc));

    // Walk: dummy -> blocks in order (entry first, so pin cost is 0).
    std::vector<City> Walk;
    Walk.push_back(Atsp.DummyCity);
    for (BlockId B : L.Order)
      Walk.push_back(B);
    int64_t WalkCost = Atsp.Tsp.tourCost(Walk);
    EXPECT_EQ(static_cast<uint64_t>(WalkCost),
              evaluateLayout(Proc, L, Alpha, Profile, Profile))
        << "seed " << Seed << " trial " << Trial;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ReductionEquivalence,
                         ::testing::Range<uint64_t>(1, 16));
