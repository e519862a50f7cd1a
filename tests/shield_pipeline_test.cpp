//===- tests/shield_pipeline_test.cpp - failure isolation & the ladder ------===//
//
// Pipeline-level tests for balign-shield: per-procedure failure
// isolation, the graceful-degradation ladder (iterated 3-Opt -> greedy
// -> original), the three OnErrorPolicy modes, deterministic deadline
// and resource-cap trips, failure determinism across thread counts, and
// the fallback-results-are-never-cached rule.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "analysis/PipelineVerifier.h"
#include "ir/CFGBuilder.h"
#include "profile/Trace.h"
#include "robust/FaultInjector.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <memory>

using namespace balign;

namespace {

using ScopedFault = FaultInjector::ScopedFault;

Program twoProcs(uint64_t Seed) {
  Program Prog("shielded");
  for (int P = 0; P != 2; ++P) {
    Rng R(Seed + P);
    GenParams Params;
    Params.TargetBranchSites = 5;
    Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  return Prog;
}

ProgramProfile profileAll(const Program &Prog, uint64_t Seed) {
  ProgramProfile Train;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    Rng TraceRng(Seed + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, 300));
  }
  return Train;
}

/// A ProcedureResultCache that never hits and counts store offers, for
/// asserting the never-cache-fallbacks rule without the cache library.
class CountingCache : public ProcedureResultCache {
public:
  bool lookup(const Procedure &, const ProcedureProfile &,
              const AlignmentOptions &, size_t,
              ProcedureAlignment &) override {
    return false;
  }
  void store(const Procedure &, const ProcedureProfile &,
             const AlignmentOptions &, size_t,
             const ProcedureAlignment &) override {
    ++Stores;
  }
  unsigned Stores = 0;
};

} // namespace

TEST(ShieldPipelineTest, SolverFaultFallsBackToGreedy) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(3);
  ProgramProfile Train = profileAll(Prog, 9);
  AlignmentOptions Options;
  Options.ComputeBounds = true;
  Options.OnError = OnErrorPolicy::Fallback;

  ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
  ProgramAlignment Result = alignProgram(Prog, Train, Options);

  ASSERT_EQ(Result.Failures.size(), 2u);
  EXPECT_EQ(Result.Failures.summary(Prog.numProcedures()),
            "procs=2 tsp=0 greedy=2 original=0 skipped=0 failures=2");
  for (size_t P = 0; P != 2; ++P) {
    const ProcedureAlignment &PA = Result.Procs[P];
    const ProcedureFailure &F = Result.Failures.Failures[P];
    EXPECT_EQ(F.ProcIndex, P) << "failures arrive in program order";
    EXPECT_EQ(F.ProcName, Prog.proc(P).getName());
    EXPECT_EQ(F.Kind, FailureKind::Fault);
    EXPECT_EQ(F.Rung, LadderRung::Greedy);
    EXPECT_FALSE(F.Skipped);
    EXPECT_EQ(PA.Rung, LadderRung::Greedy);
    // The greedy rung ships in the chosen (Tsp) slot.
    EXPECT_EQ(PA.TspLayout.Order, PA.GreedyLayout.Order);
    EXPECT_EQ(PA.TspPenalty, PA.GreedyPenalty);
    EXPECT_EQ(PA.SolverRuns, 0u) << "full-path stats are reset";
    EXPECT_EQ(PA.Bounds.AssignmentCycles, 0u);
  }
}

TEST(ShieldPipelineTest, LadderBottomsOutAtOriginalWhenGreedyAlsoFails) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(5);
  ProgramProfile Train = profileAll(Prog, 11);
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;

  ScopedFault SolveFault(FaultSite::TspSolve, FaultSpec::always());
  ScopedFault GreedyFault(FaultSite::AlignGreedy, FaultSpec::always());
  ProgramAlignment Result = alignProgram(Prog, Train, Options);

  ASSERT_EQ(Result.Failures.size(), 2u);
  for (size_t P = 0; P != 2; ++P) {
    const ProcedureAlignment &PA = Result.Procs[P];
    EXPECT_EQ(PA.Rung, LadderRung::Original);
    EXPECT_EQ(Result.Failures.Failures[P].Rung, LadderRung::Original);
    EXPECT_EQ(PA.TspLayout.Order, PA.OriginalLayout.Order);
    EXPECT_EQ(PA.TspPenalty, PA.OriginalPenalty);
    EXPECT_EQ(PA.GreedyLayout.Order, PA.OriginalLayout.Order);
  }
  // The greedy fault fired in the full path: the first failure names the
  // earliest stage that threw (greedy runs before the solver).
  EXPECT_EQ(Result.Failures.Failures[0].Kind, FailureKind::Fault);
  EXPECT_NE(Result.Failures.Failures[0].What.find("align.greedy"),
            std::string::npos);
}

TEST(ShieldPipelineTest, SkipPolicyKeepsOriginalWithoutWalkingTheLadder) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(7);
  ProgramProfile Train = profileAll(Prog, 13);
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Skip;

  ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
  ProgramAlignment Result = alignProgram(Prog, Train, Options);

  ASSERT_EQ(Result.Failures.size(), 2u);
  EXPECT_EQ(Result.Failures.countSkipped(), 2u);
  EXPECT_EQ(Result.Failures.summary(2),
            "procs=2 tsp=0 greedy=0 original=2 skipped=2 failures=2");
  for (size_t P = 0; P != 2; ++P) {
    EXPECT_TRUE(Result.Failures.Failures[P].Skipped);
    EXPECT_EQ(Result.Procs[P].Rung, LadderRung::Original);
    EXPECT_EQ(Result.Procs[P].TspLayout.Order,
              Result.Procs[P].OriginalLayout.Order);
  }
}

TEST(ShieldPipelineTest, AbortPolicyThrowsTheFirstFailureInProgramOrder) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(9);
  ProgramProfile Train = profileAll(Prog, 15);
  AlignmentOptions Options; // OnError defaults to Abort.

  ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
  for (unsigned Threads : {1u, 4u}) {
    Options.Threads = Threads;
    try {
      alignProgram(Prog, Train, Options);
      FAIL() << "expected AlignmentAborted (threads=" << Threads << ")";
    } catch (const AlignmentAborted &E) {
      // Both procedures fail; the abort must carry the first in program
      // order at any thread count.
      EXPECT_EQ(E.failure().ProcIndex, 0u) << "threads=" << Threads;
      EXPECT_EQ(E.failure().Kind, FailureKind::Fault);
      EXPECT_NE(std::string(E.what()).find("p0"), std::string::npos);
      EXPECT_NE(std::string(E.what()).find("tsp.solve"), std::string::npos);
    }
  }
}

TEST(ShieldPipelineTest, AbortRecordsTheFailureWithoutWalkingTheLadder) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(9);
  ProgramProfile Train = profileAll(Prog, 15);
  uint64_t Profiled = 0;
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Profiled += Train.Procs[P].executedBranches(Prog.proc(P)) != 0;
  ASSERT_EQ(Profiled, 2u);
  AlignmentOptions Options; // OnError defaults to Abort.

  ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
  for (unsigned Threads : {1u, 4u}) {
    Options.Threads = Threads;
    uint64_t Before = FaultInjector::instance().hits(FaultSite::AlignGreedy);
    try {
      alignProgram(Prog, Train, Options);
      FAIL() << "expected AlignmentAborted (threads=" << Threads << ")";
    } catch (const AlignmentAborted &E) {
      // Nothing ships under Abort, so the message names no rung.
      EXPECT_STREQ("proc 'p0': fault: injected fault at 'tsp.solve'",
                   E.what());
      EXPECT_EQ(std::string(E.what()).find("rung="), std::string::npos);
    }
    // Every procedure still runs its full path, whose greedy stage
    // precedes the solve; no ladder builds a second greedy layout.
    EXPECT_EQ(FaultInjector::instance().hits(FaultSite::AlignGreedy) - Before,
              Profiled)
        << "threads=" << Threads;
  }
}

TEST(ShieldPipelineTest, PerProcedureBudgetTripsOnAnInjectedClock) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(11);
  ProgramProfile Train = profileAll(Prog, 17);
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;
  Options.ProcBudgetMs = 5;
  // Every clock read advances 10ms, so each procedure's budget has
  // expired by its first solver poll — deterministically, no sleeping.
  auto Ticks = std::make_shared<uint64_t>(0);
  Options.Clock = [Ticks] { return *Ticks += 10; };

  ProgramAlignment Result = alignProgram(Prog, Train, Options);
  ASSERT_EQ(Result.Failures.size(), 2u);
  for (size_t P = 0; P != 2; ++P) {
    EXPECT_EQ(Result.Failures.Failures[P].Kind, FailureKind::Deadline);
    EXPECT_NE(Result.Failures.Failures[P].What.find("deadline"),
              std::string::npos);
    EXPECT_EQ(Result.Procs[P].Rung, LadderRung::Greedy)
        << "greedy is not budget-polled, so the ladder still ships it";
  }
}

TEST(ShieldPipelineTest, ExpiredRunDeadlineDegradesEveryProcedure) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(13);
  ProgramProfile Train = profileAll(Prog, 19);
  ManualClock Clock;
  Deadline RunDeadline(5, Clock.fn());
  Clock.advance(10); // The whole-run deadline is already gone.

  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;
  Options.RunDeadline = &RunDeadline;
  ProgramAlignment Result = alignProgram(Prog, Train, Options);

  ASSERT_EQ(Result.Failures.size(), 2u);
  for (const ProcedureFailure &F : Result.Failures.Failures) {
    EXPECT_EQ(F.Kind, FailureKind::Deadline);
    EXPECT_NE(F.What.find("whole-run alignment"), std::string::npos);
    EXPECT_EQ(F.Rung, LadderRung::Greedy);
  }

  // Under Abort the same expiry kills the run with the first procedure.
  Options.OnError = OnErrorPolicy::Abort;
  EXPECT_THROW(alignProgram(Prog, Train, Options), AlignmentAborted);
}

TEST(ShieldPipelineTest, OverflowingEntryPinFailsAsResourceCap) {
  // A flow-consistent diamond run 2^61 times: its DTSP entry pin is about
  // 1.27e19, past int64. The procedure must fail at once as resource-cap
  // instead of solving on wrapped costs (which never terminated).
  FaultInjector::instance().reset();
  CFGBuilder B("hot");
  BlockId Entry = B.cond(4, "entry");
  BlockId L = B.jump(3, "a");
  BlockId R = B.jump(3, "b");
  BlockId Exit = B.ret(1, "c");
  B.branches(Entry, L, R).edge(L, Exit).edge(R, Exit);
  Program Prog("overflow");
  Prog.addProcedure(B.take());
  const uint64_t Half = uint64_t(1) << 60;
  ProgramProfile Train;
  Train.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(0)));
  Train.Procs[0].BlockCounts = {2 * Half, Half, Half, 2 * Half};
  Train.Procs[0].EdgeCounts = {{Half, Half}, {Half}, {Half}, {}};

  AlignmentOptions Options;
  try {
    alignProgram(Prog, Train, Options);
    ADD_FAILURE() << "an overflowing pin must abort the run";
  } catch (const AlignmentAborted &E) {
    EXPECT_EQ(E.failure().Kind, FailureKind::ResourceCap);
    EXPECT_NE(E.failure().What.find("entry pin"), std::string::npos);
  }

  // The shield degrades it like any other resource cap, under either
  // primary aligner (Ext-TSP's bounds build the DTSP too).
  Options.OnError = OnErrorPolicy::Fallback;
  for (PrimaryAligner Primary : {PrimaryAligner::Tsp, PrimaryAligner::ExtTsp}) {
    Options.Primary = Primary;
    ProgramAlignment A = alignProgram(Prog, Train, Options);
    ASSERT_EQ(A.Failures.size(), 1u);
    EXPECT_EQ(A.Failures.Failures[0].Kind, FailureKind::ResourceCap);
    EXPECT_EQ(A.Procs[0].Rung, LadderRung::Greedy);
    EXPECT_EQ(A.Procs[0].TspLayout.Order,
              GreedyAligner().align(Prog.proc(0), Train.Procs[0],
                                    Options.Model)
                  .Order);
  }
}

TEST(ShieldPipelineTest, DegradationIsBitIdenticalAcrossThreadCounts) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(17);
  ProgramProfile Train = profileAll(Prog, 23);
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;

  ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
  Options.Threads = 1;
  ProgramAlignment Serial = alignProgram(Prog, Train, Options);
  Options.Threads = 8;
  ProgramAlignment Parallel = alignProgram(Prog, Train, Options);

  ASSERT_EQ(Serial.Failures.size(), Parallel.Failures.size());
  for (size_t F = 0; F != Serial.Failures.size(); ++F) {
    EXPECT_EQ(Serial.Failures.Failures[F].ProcIndex,
              Parallel.Failures.Failures[F].ProcIndex);
    EXPECT_EQ(Serial.Failures.Failures[F].Kind,
              Parallel.Failures.Failures[F].Kind);
    EXPECT_EQ(Serial.Failures.Failures[F].Rung,
              Parallel.Failures.Failures[F].Rung);
  }
  for (size_t P = 0; P != 2; ++P) {
    EXPECT_EQ(Serial.Procs[P].TspLayout.Order,
              Parallel.Procs[P].TspLayout.Order);
    EXPECT_EQ(Serial.Procs[P].TspPenalty, Parallel.Procs[P].TspPenalty);
    EXPECT_EQ(Serial.Procs[P].Rung, Parallel.Procs[P].Rung);
  }
}

TEST(ShieldPipelineTest, PoliciesAreBitIdenticalWhenNothingFails) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(19);
  ProgramProfile Train = profileAll(Prog, 25);

  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Abort;
  ProgramAlignment Baseline = alignProgram(Prog, Train, Options);
  EXPECT_TRUE(Baseline.Failures.empty());

  for (OnErrorPolicy Policy :
       {OnErrorPolicy::Fallback, OnErrorPolicy::Skip}) {
    Options.OnError = Policy;
    ProgramAlignment Other = alignProgram(Prog, Train, Options);
    EXPECT_TRUE(Other.Failures.empty());
    for (size_t P = 0; P != 2; ++P) {
      EXPECT_EQ(Other.Procs[P].TspLayout.Order,
                Baseline.Procs[P].TspLayout.Order);
      EXPECT_EQ(Other.Procs[P].GreedyLayout.Order,
                Baseline.Procs[P].GreedyLayout.Order);
      EXPECT_EQ(Other.Procs[P].TspPenalty, Baseline.Procs[P].TspPenalty);
      EXPECT_EQ(Other.Procs[P].Rung, LadderRung::Tsp);
    }
  }
}

TEST(ShieldPipelineTest, FallbackResultsAreNeverCached) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(21);
  ProgramProfile Train = profileAll(Prog, 27);
  CountingCache Cache;
  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;
  Options.Cache = CacheMode::Memory;
  Options.CacheImpl = &Cache;

  {
    ScopedFault Fault(FaultSite::TspSolve, FaultSpec::always());
    ProgramAlignment Degraded = alignProgram(Prog, Train, Options);
    ASSERT_EQ(Degraded.Failures.size(), 2u);
    EXPECT_EQ(Cache.Stores, 0u)
        << "a degraded result is not what recomputation would produce";
  }
  // With the fault gone, every full-path result is offered for caching.
  ProgramAlignment Clean = alignProgram(Prog, Train, Options);
  EXPECT_TRUE(Clean.Failures.empty());
  EXPECT_EQ(Cache.Stores, 2u);
}

TEST(ShieldPipelineTest, UnprofiledProceduresBypassTheShield) {
  FaultInjector::instance().reset();
  Program Prog = twoProcs(23);
  ProgramProfile Train;
  {
    Rng TraceRng(29);
    Train.Procs.push_back(walkProfile(Prog.proc(0),
                                      BranchBehavior::uniform(Prog.proc(0)),
                                      TraceRng, 300));
  }
  Train.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(1)));

  AlignmentOptions Options;
  Options.OnError = OnErrorPolicy::Fallback;
  // pool.task guards every shielded task; the unprofiled keep-original
  // path runs before the probe, so only the profiled procedure fails.
  ScopedFault Fault(FaultSite::PoolTask, FaultSpec::always());
  ProgramAlignment Result = alignProgram(Prog, Train, Options);

  ASSERT_EQ(Result.Failures.size(), 1u);
  EXPECT_EQ(Result.Failures.Failures[0].ProcIndex, 0u);
  EXPECT_EQ(Result.Procs[0].Rung, LadderRung::Greedy);
  EXPECT_EQ(Result.Procs[1].Rung, LadderRung::Tsp)
      << "keeping an unprofiled layout is designed behavior, not a failure";
  EXPECT_EQ(Result.Procs[1].TspLayout.Order,
            Layout::original(Prog.proc(1)).Order);
}

TEST(ShieldPipelineTest, VerifyReplaysDoNotSkewFaultHitsUnderDeadline) {
  // The satellite regression: --verify=full replays matrix builds and
  // solves through the same production stages that carry fault probes,
  // under ScopedSuppress, while a whole-run deadline may fire
  // mid-procedure. Suppressed replays must neither consume per-site hit
  // counters (skewing a rate=N/D@SEED sequence for later procedures)
  // nor poll the deadline clock (shifting when it expires) — so a
  // verified run and a plain run must observe identical hits, rungs,
  // and failures.
  FaultInjector::instance().reset();
  Program Prog = twoProcs(23);
  ProgramProfile Train = profileAll(Prog, 29);

  struct Outcome {
    uint64_t SolveHits = 0;
    uint64_t TransformHits = 0;
    std::vector<LadderRung> Rungs;
    size_t Failures = 0;
    bool DeadlineTripped = false;
  };
  // A counting clock makes "the deadline fires mid-procedure"
  // deterministic at Threads=1: every poll advances time by 1ms, so
  // expiry lands on the Nth poll regardless of host speed.
  auto runOnce = [&](bool Verified) {
    uint64_t Polls = 0;
    ClockFn Clock = [&Polls] { return ++Polls; };
    Deadline RunDeadline(60, Clock);
    AlignmentOptions Options;
    Options.ComputeBounds = true;
    Options.OnError = OnErrorPolicy::Fallback;
    Options.Threads = 1;
    Options.Clock = Clock;
    Options.RunDeadline = &RunDeadline;
    ScopedFault Solve(FaultSite::TspSolve, FaultSpec::rate(1, 3, 77));
    // Arming resets the tsp.solve hit counter, but tsp.transform is
    // only probed (never armed) here — snapshot it so each run reports
    // its own delta rather than the process-lifetime total.
    uint64_t TransformBefore =
        FaultInjector::instance().hits(FaultSite::TspTransform);
    ProgramAlignment A;
    if (Verified) {
      DiagnosticEngine Diags;
      VerifyOptions V;
      V.Level = VerifyLevel::Full;
      A = alignProgramVerified(Prog, Train, Options, Diags, V);
      EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
    } else {
      A = alignProgram(Prog, Train, Options);
    }
    Outcome O;
    O.SolveHits = FaultInjector::instance().hits(FaultSite::TspSolve);
    O.TransformHits =
        FaultInjector::instance().hits(FaultSite::TspTransform) -
        TransformBefore;
    for (const ProcedureAlignment &P : A.Procs)
      O.Rungs.push_back(P.Rung);
    O.Failures = A.Failures.size();
    for (const ProcedureFailure &F : A.Failures.Failures)
      O.DeadlineTripped |= F.Kind == FailureKind::Deadline;
    return O;
  };

  Outcome Plain = runOnce(false);
  Outcome Verified = runOnce(true);

  EXPECT_EQ(Plain.SolveHits, Verified.SolveHits)
      << "verify replays consumed tsp.solve hits";
  EXPECT_EQ(Plain.TransformHits, Verified.TransformHits)
      << "verify replays consumed tsp.transform hits";
  EXPECT_EQ(Plain.Rungs, Verified.Rungs)
      << "verify replays shifted the deadline's expiry point";
  EXPECT_EQ(Plain.Failures, Verified.Failures);
}
