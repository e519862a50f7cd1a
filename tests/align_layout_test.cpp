//===- tests/align_layout_test.cpp - Layout materializer tests ----------------===//

#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

const MachineModel Alpha = MachineModel::alpha21164();

/// cond entry -> {A, B}; both jump to a shared return.
struct Diamond {
  Procedure Proc;
  ProcedureProfile Profile;
  BlockId C = 0, A = 1, B = 2, R = 3;

  Diamond(uint64_t CountA, uint64_t CountB)
      : Proc([] {
          CFGBuilder Builder("diamond");
          BlockId C = Builder.cond(4);
          BlockId A = Builder.jump(3);
          BlockId B = Builder.jump(5);
          BlockId R = Builder.ret(2);
          Builder.branches(C, A, B);
          Builder.edge(A, R).edge(B, R);
          return Builder.take();
        }()) {
    Profile = ProcedureProfile::zeroed(Proc);
    Profile.EdgeCounts[0] = {CountA, CountB};
    Profile.EdgeCounts[1] = {CountA};
    Profile.EdgeCounts[2] = {CountB};
    Profile.BlockCounts = {CountA + CountB, CountA, CountB, CountA + CountB};
  }
};

} // namespace

TEST(LayoutTest, OriginalAndValidity) {
  Diamond D(60, 40);
  Layout L = Layout::original(D.Proc);
  EXPECT_TRUE(L.isValid(D.Proc));
  EXPECT_EQ(L.Order, (std::vector<BlockId>{0, 1, 2, 3}));

  Layout Bad;
  Bad.Order = {1, 0, 2, 3}; // Entry not first.
  EXPECT_FALSE(Bad.isValid(D.Proc));
  Bad.Order = {0, 1, 1, 3}; // Duplicate.
  EXPECT_FALSE(Bad.isValid(D.Proc));
  Bad.Order = {0, 1, 2}; // Missing block.
  EXPECT_FALSE(Bad.isValid(D.Proc));
}

TEST(MaterializeTest, PredictedFallThroughNeedsNoFixup) {
  Diamond D(80, 20);
  // Layout: C, A (predicted, hot), B, R.
  Layout L;
  L.Order = {0, 1, 2, 3};
  MaterializedLayout Mat = materializeLayout(D.Proc, L, D.Profile, Alpha);
  EXPECT_EQ(Mat.NumFixups, 0u);
  EXPECT_EQ(Mat.Items.size(), 4u);
  const BranchArrangement &Arr = Mat.Arrangements[D.C];
  EXPECT_EQ(Arr.FallThroughTarget, D.A);
  EXPECT_EQ(Arr.TakenTarget, D.B);
  EXPECT_FALSE(Arr.PredictTaken);
  EXPECT_FALSE(Arr.FallThroughViaFixup);
}

TEST(MaterializeTest, InvertedBranchWhenColdSuccessorFollows) {
  Diamond D(80, 20);
  // Layout: C, B (cold), A, R: branch must take to A (predicted taken).
  Layout L;
  L.Order = {0, 2, 1, 3};
  MaterializedLayout Mat = materializeLayout(D.Proc, L, D.Profile, Alpha);
  EXPECT_EQ(Mat.NumFixups, 0u);
  const BranchArrangement &Arr = Mat.Arrangements[D.C];
  EXPECT_EQ(Arr.TakenTarget, D.A);
  EXPECT_EQ(Arr.FallThroughTarget, D.B);
  EXPECT_TRUE(Arr.PredictTaken);
}

TEST(MaterializeTest, FixupInsertedWhenNeitherSuccessorFollows) {
  Diamond D(80, 20);
  // Layout: C, R, A, B: neither successor of C follows it.
  Layout L;
  L.Order = {0, 3, 1, 2};
  MaterializedLayout Mat = materializeLayout(D.Proc, L, D.Profile, Alpha);
  EXPECT_EQ(Mat.NumFixups, 1u);
  EXPECT_EQ(Mat.Items.size(), 5u);
  const BranchArrangement &Arr = Mat.Arrangements[D.C];
  EXPECT_TRUE(Arr.FallThroughViaFixup);
  // Skewed 80/20: taking to the predicted successor is cheaper, so the
  // fixup jump realizes the cold edge.
  EXPECT_TRUE(Arr.PredictTaken);
  EXPECT_EQ(Arr.TakenTarget, D.A);
  EXPECT_EQ(Arr.FallThroughTarget, D.B);
  // The fixup sits directly after the conditional.
  const LayoutItem &Fixup = Mat.Items[Mat.ItemOfBlock[D.C] + 1];
  EXPECT_TRUE(Fixup.isFixup());
  EXPECT_EQ(Fixup.FixupTarget, D.B);
  EXPECT_EQ(Fixup.SizeInstrs, 1u);
}

TEST(MaterializeTest, AddressesAreContiguousMultiplesOfInstrSize) {
  Diamond D(50, 50);
  Layout L;
  L.Order = {0, 3, 1, 2}; // Forces a fixup.
  MaterializedLayout Mat = materializeLayout(D.Proc, L, D.Profile, Alpha);
  uint64_t Expect = 0;
  for (const LayoutItem &Item : Mat.Items) {
    EXPECT_EQ(Item.Address, Expect);
    Expect += static_cast<uint64_t>(Item.SizeInstrs) * BytesPerInstr;
  }
  EXPECT_EQ(Mat.TotalBytes, Expect);
  EXPECT_EQ(Mat.blockAddress(0), 0u);
}

TEST(MaterializeTest, FixupCountMatchesPenaltyModelOverRandomLayouts) {
  // Sweep random procedures/layouts: a fixup exists exactly when the
  // penalty model charged the fixup case.
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    Rng StructureRng(Seed);
    GenParams Params;
    Params.TargetBranchSites = 6;
    GeneratedProcedure Gen = generateProcedure("m", Params, StructureRng);
    const Procedure &Proc = Gen.Proc;
    Rng TraceRng(Seed + 100);
    ProcedureProfile Profile = walkProfile(Proc, BranchBehavior::uniform(Proc),
                                           TraceRng, 200);
    Layout L = Layout::original(Proc);
    Rng Shuffler(Seed + 200);
    for (size_t I = L.Order.size() - 1; I > 1; --I)
      std::swap(L.Order[I], L.Order[1 + Shuffler.nextIndex(I)]);

    MaterializedLayout Mat = materializeLayout(Proc, L, Profile, Alpha);
    size_t ExpectedFixups = 0;
    for (size_t I = 0; I != L.Order.size(); ++I) {
      BlockId B = L.Order[I];
      if (Proc.block(B).Kind != TerminatorKind::Conditional)
        continue;
      BlockId Next =
          I + 1 != L.Order.size() ? L.Order[I + 1] : InvalidBlock;
      const std::vector<BlockId> &Succs = Proc.successors(B);
      if (Next != Succs[0] && Next != Succs[1])
        ++ExpectedFixups;
    }
    EXPECT_EQ(Mat.NumFixups, ExpectedFixups) << "seed " << Seed;
    // Every original block is present exactly once.
    size_t RealBlocks = 0;
    for (const LayoutItem &Item : Mat.Items)
      RealBlocks += !Item.isFixup();
    EXPECT_EQ(RealBlocks, Proc.numBlocks());
  }
}

TEST(MaterializeTest, MultiwayPredictionRecorded) {
  CFGBuilder B("multi");
  BlockId M = B.multi(4);
  BlockId A0 = B.ret(1);
  BlockId A1 = B.ret(1);
  BlockId A2 = B.ret(1);
  B.edge(M, A0).edge(M, A1).edge(M, A2);
  Procedure Proc = B.take();
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.EdgeCounts[0] = {5, 80, 15};
  Profile.BlockCounts = {100, 5, 80, 15};
  MaterializedLayout Mat =
      materializeLayout(Proc, Layout::original(Proc), Profile, Alpha);
  EXPECT_EQ(Mat.MultiwayPrediction[M], 1u);
  EXPECT_EQ(Mat.NumFixups, 0u);
}
