//===- tests/profile_test.cpp - Trace and profile tests -----------------------===//

#include "ir/CFGBuilder.h"
#include "profile/Profile.h"
#include "profile/Trace.h"

#include "ProfileOracles.h"

#include <gtest/gtest.h>

#include <limits>

using namespace balign;

namespace {

/// entry -> loop header -> body -> header; header exits to ret.
Procedure makeLoop() {
  CFGBuilder B("loop");
  BlockId Entry = B.jump(2);
  BlockId Header = B.cond(2);
  BlockId Body = B.jump(4);
  BlockId Exit = B.ret(1);
  B.edge(Entry, Header);
  B.branches(Header, Body, Exit);
  B.edge(Body, Header);
  return B.take();
}

BranchBehavior loopBehavior(const Procedure &P, double StayProb) {
  BranchBehavior Behavior = BranchBehavior::uniform(P);
  Behavior.Probs[1] = {StayProb, 1.0 - StayProb};
  return Behavior;
}

} // namespace

TEST(BehaviorTest, UniformIsValid) {
  Procedure P = makeLoop();
  BranchBehavior B = BranchBehavior::uniform(P);
  EXPECT_TRUE(B.isValid(P));
  EXPECT_EQ(B.Probs[1].size(), 2u);
  EXPECT_DOUBLE_EQ(B.Probs[1][0], 0.5);
}

TEST(BehaviorTest, InvalidShapesRejected) {
  Procedure P = makeLoop();
  BranchBehavior B = BranchBehavior::uniform(P);
  B.Probs[1] = {0.9, 0.9}; // Does not sum to 1.
  EXPECT_FALSE(B.isValid(P));
  B.Probs[1] = {1.2, -0.2}; // Out of range.
  EXPECT_FALSE(B.isValid(P));
  B.Probs.pop_back(); // Wrong arity.
  EXPECT_FALSE(B.isValid(P));
}

// Every comparison with NaN is false, so range and sum checks written as
// "reject if P < 0 or P > 1" let a NaN entry through.
TEST(BehaviorTest, NonFiniteRowsRejected) {
  Procedure P = makeLoop();
  const double NaN = std::numeric_limits<double>::quiet_NaN();
  const double Inf = std::numeric_limits<double>::infinity();
  const std::vector<double> Rows[] = {
      {NaN, 0.5}, {0.5, NaN}, {NaN, NaN}, {Inf, 0.0},
      {0.0, Inf}, {-Inf, 1.0}, {Inf, -Inf}, {1.0, -Inf},
  };
  for (const std::vector<double> &Row : Rows) {
    BranchBehavior B = BranchBehavior::uniform(P);
    B.Probs[1] = Row;
    EXPECT_FALSE(B.isValid(P)) << "{" << Row[0] << ", " << Row[1] << "}";
  }
  BranchBehavior B = BranchBehavior::uniform(P);
  B.Probs[1] = {0.25, 0.75};
  EXPECT_TRUE(B.isValid(P));
}

TEST(TraceTest, WalksFollowCfgEdges) {
  Procedure P = makeLoop();
  Rng R(3);
  ExecutionTrace Trace;
  walkProfile(P, loopBehavior(P, 0.8), R, 500, &Trace);
  ASSERT_FALSE(Trace.empty());
  EXPECT_EQ(Trace.Blocks.front(), P.entry());
  for (size_t I = 0; I + 1 < Trace.Blocks.size(); ++I) {
    BlockId Cur = Trace.Blocks[I];
    BlockId Next = Trace.Blocks[I + 1];
    if (P.block(Cur).Kind == TerminatorKind::Return) {
      EXPECT_EQ(Next, P.entry()); // New invocation.
      continue;
    }
    bool IsSucc = false;
    for (BlockId S : P.successors(Cur))
      IsSucc |= S == Next;
    EXPECT_TRUE(IsSucc) << "trace step " << I << " not a CFG edge";
  }
}

TEST(TraceTest, RespectsBranchBudget) {
  Procedure P = makeLoop();
  Rng R(5);
  ProcedureProfile Profile = walkProfile(P, loopBehavior(P, 0.5), R, 1000);
  uint64_t Branches = Profile.executedBranches(P);
  EXPECT_GE(Branches, 1000u);
  EXPECT_LT(Branches, 1200u); // Overshoot bounded by one invocation.
}

TEST(TraceTest, DeterministicGivenSeed) {
  Procedure P = makeLoop();
  Rng A(9), B(9);
  ExecutionTrace TA, TB;
  ProcedureProfile PA = walkProfile(P, loopBehavior(P, 0.7), A, 100, &TA);
  ProcedureProfile PB = walkProfile(P, loopBehavior(P, 0.7), B, 100, &TB);
  EXPECT_EQ(PA.EdgeCounts, PB.EdgeCounts);
  EXPECT_EQ(PA.BlockCounts, PB.BlockCounts);
  EXPECT_EQ(TA.Blocks, TB.Blocks);
  EXPECT_EQ(TA.Invocations, TB.Invocations);
}

TEST(ProfileTest, FlowConsistencyFromTrace) {
  Procedure P = makeLoop();
  Rng R(11);
  ExecutionTrace Trace;
  ProcedureProfile Profile =
      walkProfile(P, loopBehavior(P, 0.9), R, 2000, &Trace);
  EXPECT_TRUE(isFlowConsistent(Profile, P));
  // Loop body executions match the header->body edge count.
  EXPECT_EQ(Profile.blockCount(2), Profile.edgeCount(1, 0));
  // Every invocation enters and exits once.
  EXPECT_EQ(Profile.blockCount(0), Trace.Invocations);
  EXPECT_EQ(Profile.blockCount(3), Trace.Invocations);
}

TEST(ProfileTest, HottestSuccessorAndStats) {
  Procedure P = makeLoop();
  ProcedureProfile Profile = ProcedureProfile::zeroed(P);
  Profile.EdgeCounts[1] = {30, 70};
  Profile.BlockCounts[1] = 100;
  EXPECT_EQ(Profile.hottestSuccessor(1), 1u);
  Profile.EdgeCounts[1] = {70, 30};
  EXPECT_EQ(Profile.hottestSuccessor(1), 0u);
  Profile.EdgeCounts[1] = {50, 50}; // Tie goes to the lower index.
  EXPECT_EQ(Profile.hottestSuccessor(1), 0u);

  Profile.BlockCounts = {10, 100, 90, 10};
  EXPECT_EQ(Profile.executedBranches(P), 100u);
  EXPECT_EQ(Profile.branchSitesTouched(P), 1u);
  EXPECT_EQ(dynamicInstructions(Profile, P),
            10u * 2 + 100u * 2 + 90u * 4 + 10u * 1);
}

TEST(ProfileTest, ExpectedProfileMatchesFlow) {
  Procedure P = makeLoop();
  // Stay probability 0.9 => expected 9 body executions per invocation.
  ProcedureProfile Profile =
      expectedProfile(P, loopBehavior(P, 0.9), 1000, 1e-7);
  EXPECT_TRUE(isFlowConsistent(Profile, P));
  EXPECT_EQ(Profile.blockCount(0), 1000u);
  EXPECT_NEAR(static_cast<double>(Profile.blockCount(2)), 9000.0, 10.0);
  EXPECT_NEAR(static_cast<double>(Profile.blockCount(3)), 1000.0, 2.0);
}

TEST(ProfileTest, ProgramAggregation) {
  Program Prog("agg");
  Prog.addProcedure(makeLoop());
  Prog.addProcedure(makeLoop());
  ProgramProfile Profile;
  for (int I = 0; I != 2; ++I) {
    Rng R(20 + I);
    Profile.Procs.push_back(
        walkProfile(Prog.proc(I), loopBehavior(Prog.proc(I), 0.5), R, 100));
  }
  EXPECT_EQ(Profile.executedBranches(Prog),
            Profile.Procs[0].executedBranches(Prog.proc(0)) +
                Profile.Procs[1].executedBranches(Prog.proc(1)));
  EXPECT_EQ(Profile.branchSitesTouched(Prog), 2u);
  EXPECT_GT(dynamicInstructions(Profile, Prog), 0u);
}
