//===- tests/shield_degenerate_test.cpp - degenerate sizes down the ladder --===//
//
// Degenerate problem sizes through every rung of the degradation ladder:
// empty and single-city DTSP instances straight into the solver, empty
// programs, single-block procedures, and a self-looping two-block
// procedure aligned through the full path, the greedy rung, and the
// original rung — all of which must produce the identical trivial
// layout, with and without injected faults.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "ir/CFGBuilder.h"
#include "robust/FaultInjector.h"
#include "tsp/IteratedOpt.h"

#include "ProfileOracles.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

using ScopedFault = FaultInjector::ScopedFault;

/// A procedure that is one conditional block spinning on itself plus the
/// exit it eventually falls through to — the smallest CFG with a
/// profiled branch, and one whose only legal layouts are [0, 1].
Procedure selfLoopProc() {
  CFGBuilder B("spin");
  BlockId Head = B.cond(4, "head");
  BlockId Done = B.ret(2, "done");
  B.branches(Head, Head, Done); // Taken edge spins; fall-through exits.
  return B.take();
}

ProcedureProfile selfLoopProfile(const Procedure &Proc) {
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.BlockCounts[0] = 10; // 1 entry + 9 taken self-loops.
  Profile.BlockCounts[1] = 1;
  Profile.EdgeCounts[0][0] = 9; // head -> head (taken).
  Profile.EdgeCounts[0][1] = 1; // head -> done (fall-through).
  return Profile;
}

/// A single-block procedure: nothing to reorder, no branches to profile.
Procedure singleBlockProc() {
  CFGBuilder B("leaf");
  B.ret(3, "only");
  return B.take();
}

} // namespace

TEST(ShieldDegenerateTest, SolverHandlesEmptyAndTrivialInstances) {
  // N = 0: nothing to tour. The alignment reduction never builds this
  // (every instance has at least the dummy city), but the solver is a
  // public entry point and must not trip UB on it.
  DirectedTsp Empty(0);
  DtspSolution S0 = solveDirectedTsp(Empty, IteratedOptOptions());
  EXPECT_TRUE(S0.Tour.empty());
  EXPECT_EQ(S0.Cost, 0);

  // N = 1 and N = 2: the canonical order is the only tour.
  DirectedTsp One(1);
  DtspSolution S1 = solveDirectedTsp(One, IteratedOptOptions());
  EXPECT_EQ(S1.Tour, (std::vector<City>{0}));
  EXPECT_EQ(S1.Cost, 0);

  DirectedTsp Two(2);
  Two.setCost(0, 1, 5);
  Two.setCost(1, 0, 7);
  DtspSolution S2 = solveDirectedTsp(Two, IteratedOptOptions());
  EXPECT_EQ(S2.Tour, (std::vector<City>{0, 1}));
  EXPECT_EQ(S2.Cost, 12);
}

TEST(ShieldDegenerateTest, EmptyProgramAlignsToNothingEvenUnderFaults) {
  FaultInjector::instance().reset();
  Program Prog("empty");
  ProgramProfile Train;
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Abort;
  ScopedFault Fault(FaultSite::PoolTask, FaultSpec::always());
  ProgramAlignment Result = alignProgram(Prog, Train, Options);
  EXPECT_TRUE(Result.Procs.empty());
  EXPECT_TRUE(Result.Failures.empty());
}

TEST(ShieldDegenerateTest, SingleBlockProcedureIsUntouchableAtEveryRung) {
  FaultInjector::instance().reset();
  Program Prog("single");
  Prog.addProcedure(singleBlockProc());
  ProgramProfile Train;
  Train.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(0)));
  Train.Procs[0].BlockCounts[0] = 100; // Executed, but branch-free.

  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;
  // Branch-free procedures take the unprofiled keep-original path, so
  // even an always-firing task fault cannot touch them.
  ScopedFault Fault(FaultSite::PoolTask, FaultSpec::always());
  ProgramAlignment Result = alignProgram(Prog, Train, Options);
  ASSERT_EQ(Result.Procs.size(), 1u);
  EXPECT_TRUE(Result.Failures.empty());
  EXPECT_EQ(Result.Procs[0].Rung, LadderRung::Tsp);
  EXPECT_EQ(Result.Procs[0].TspLayout.Order, (std::vector<BlockId>{0}));
  EXPECT_EQ(Result.Procs[0].GreedyLayout.Order, (std::vector<BlockId>{0}));
  EXPECT_EQ(Result.Procs[0].TspPenalty, 0u);
}

TEST(ShieldDegenerateTest, SelfLoopProcedureIsIdenticalDownTheWholeLadder) {
  FaultInjector::instance().reset();
  Program Prog("spin");
  Prog.addProcedure(selfLoopProc());
  ProgramProfile Train;
  Train.Procs.push_back(selfLoopProfile(Prog.proc(0)));
  ASSERT_TRUE(isFlowConsistent(Train.Procs[0], Prog.proc(0)));

  const std::vector<BlockId> Trivial{0, 1};
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;

  // Rung 1: the full path. Entry pinning forces the only legal layout.
  ProgramAlignment Full = alignProgram(Prog, Train, Options);
  ASSERT_EQ(Full.Procs.size(), 1u);
  EXPECT_TRUE(Full.Failures.empty());
  EXPECT_EQ(Full.Procs[0].Rung, LadderRung::Tsp);
  EXPECT_EQ(Full.Procs[0].TspLayout.Order, Trivial);

  // Rung 2: greedy, via a solver fault.
  uint64_t GreedyPenalty;
  {
    ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
    ProgramAlignment Greedy = alignProgram(Prog, Train, Options);
    ASSERT_EQ(Greedy.Failures.size(), 1u);
    EXPECT_EQ(Greedy.Procs[0].Rung, LadderRung::Greedy);
    EXPECT_EQ(Greedy.Procs[0].TspLayout.Order, Trivial);
    GreedyPenalty = Greedy.Procs[0].TspPenalty;
  }

  // Rung 3: original, via solver + greedy faults.
  {
    ScopedFault SolveFault(FaultSite::TspSolve, FaultSpec::always());
    ScopedFault GreedyFault(FaultSite::AlignGreedy, FaultSpec::always());
    ProgramAlignment Original = alignProgram(Prog, Train, Options);
    ASSERT_EQ(Original.Failures.size(), 1u);
    EXPECT_EQ(Original.Procs[0].Rung, LadderRung::Original);
    EXPECT_EQ(Original.Procs[0].TspLayout.Order, Trivial);
    // On a two-block procedure every rung's layout — and therefore its
    // penalty — is identical; degradation costs nothing here.
    EXPECT_EQ(Original.Procs[0].TspPenalty, Full.Procs[0].TspPenalty);
    EXPECT_EQ(GreedyPenalty, Full.Procs[0].TspPenalty);
  }
}

TEST(ShieldDegenerateTest, SelfLoopSurvivesResourceCapsAndDeadlines) {
  FaultInjector::instance().reset();
  Program Prog("spin");
  Prog.addProcedure(selfLoopProc());
  ProgramProfile Train;
  Train.Procs.push_back(selfLoopProfile(Prog.proc(0)));
  const std::vector<BlockId> Trivial{0, 1};

  // Spun 3 x 2^60 times, the head's dearest DTSP cell alone is past a
  // third of the int64 range: the entry pin overflows and even this
  // instance trips the resource cap.
  ProgramProfile Hot = Train;
  const uint64_t Spins = uint64_t(3) << 60;
  Hot.Procs[0].BlockCounts[0] = Spins + 1;
  Hot.Procs[0].EdgeCounts[0][0] = Spins;
  AlignmentOptions Capped;
  Capped.OnError = OnErrorPolicy::Fallback;
  ProgramAlignment A = alignProgram(Prog, Hot, Capped);
  ASSERT_EQ(A.Failures.size(), 1u);
  EXPECT_EQ(A.Failures.Failures[0].Kind, FailureKind::ResourceCap);
  EXPECT_EQ(A.Procs[0].TspLayout.Order, Trivial);

  // An already-expired run deadline degrades it the same way.
  ManualClock Clock;
  Deadline RunDeadline(1, Clock.fn());
  Clock.advance(2);
  AlignmentOptions Timed;
  Timed.OnError = OnErrorPolicy::Skip;
  Timed.RunDeadline = &RunDeadline;
  ProgramAlignment B = alignProgram(Prog, Train, Timed);
  ASSERT_EQ(B.Failures.size(), 1u);
  EXPECT_EQ(B.Failures.Failures[0].Kind, FailureKind::Deadline);
  EXPECT_TRUE(B.Failures.Failures[0].Skipped);
  EXPECT_EQ(B.Procs[0].TspLayout.Order, Trivial);
}
