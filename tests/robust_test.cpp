//===- tests/robust_test.cpp - balign-shield primitive unit tests -----------===//
//
// Unit tests for the robustness primitives: FaultSpec parsing and firing
// semantics, the FaultInjector registry (arming, scoping, suppression,
// hit accounting, and which variable may arm which site), BALIGN_CRASH
// spec parsing, deterministic Deadlines over a ManualClock, and the
// bounded-backoff retry helper. The pipeline-level behavior these enable
// is covered in shield_pipeline_test and shield_cache_test.
//
//===--------------------------------------------------------------------===//

#include "robust/Deadline.h"
#include "robust/FailureReport.h"
#include "robust/FaultInjector.h"
#include "robust/Retry.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

/// Collects the firing pattern of \p Spec over the first \p N hits.
std::vector<bool> firePattern(const FaultSpec &Spec, uint64_t N) {
  std::vector<bool> Fires;
  for (uint64_t Hit = 1; Hit <= N; ++Hit)
    Fires.push_back(Spec.fires(Hit));
  return Fires;
}

} // namespace

//===--------------------------------------------------------------------===//
// FaultSpec
//===--------------------------------------------------------------------===//

TEST(FaultSpecTest, ModesFireOnTheDocumentedHits) {
  EXPECT_EQ(firePattern(FaultSpec::never(), 4),
            (std::vector<bool>{false, false, false, false}));
  EXPECT_EQ(firePattern(FaultSpec::always(), 3),
            (std::vector<bool>{true, true, true}));
  EXPECT_EQ(firePattern(FaultSpec::once(), 3),
            (std::vector<bool>{true, false, false}));
  EXPECT_EQ(firePattern(FaultSpec::nth(3), 5),
            (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(firePattern(FaultSpec::every(2), 6),
            (std::vector<bool>{false, true, false, true, false, true}));
  EXPECT_EQ(firePattern(FaultSpec::count(2), 4),
            (std::vector<bool>{true, true, false, false}));
}

TEST(FaultSpecTest, RateIsSeedDeterministicAndSeedSensitive) {
  FaultSpec Half = FaultSpec::rate(1, 2, 7);
  // Same seed, same hits: the pattern is a pure function of (spec, hit).
  EXPECT_EQ(firePattern(Half, 64), firePattern(Half, 64));
  // Roughly half the hits fail (the exact set is seed-defined; a 1/2
  // rate drifting outside [16, 48] of 64 would mean a broken mix).
  std::vector<bool> P = firePattern(Half, 64);
  size_t Fails = 0;
  for (bool B : P)
    Fails += B;
  EXPECT_GT(Fails, 16u);
  EXPECT_LT(Fails, 48u);
  // A different seed reshuffles which hits fail.
  EXPECT_NE(firePattern(FaultSpec::rate(1, 2, 8), 64), P);
  // rate=0/D never fires; rate=D/D always fires.
  EXPECT_EQ(firePattern(FaultSpec::rate(0, 4, 3), 8),
            firePattern(FaultSpec::never(), 8));
  EXPECT_EQ(firePattern(FaultSpec::rate(4, 4, 3), 8),
            firePattern(FaultSpec::always(), 8));
}

TEST(FaultSpecTest, ParseAcceptsEveryDocumentedMode) {
  struct Case {
    const char *Text;
    FaultSpec::Mode M;
    uint64_t K, D, Seed;
  } Cases[] = {
      {"always", FaultSpec::Mode::Always, 0, 1, 0},
      {"once", FaultSpec::Mode::Once, 0, 1, 0},
      {"nth=3", FaultSpec::Mode::Nth, 3, 1, 0},
      {"every=4", FaultSpec::Mode::Every, 4, 1, 0},
      {"count=2", FaultSpec::Mode::Count, 2, 1, 0},
      {"rate=1/8@42", FaultSpec::Mode::Rate, 1, 8, 42},
      {"nth=18446744073709551615", FaultSpec::Mode::Nth, UINT64_MAX, 1, 0},
  };
  for (const Case &C : Cases) {
    std::optional<FaultSpec> Spec = FaultSpec::parse(C.Text);
    ASSERT_TRUE(Spec.has_value()) << C.Text;
    EXPECT_EQ(Spec->M, C.M) << C.Text;
    EXPECT_EQ(Spec->K, C.K) << C.Text;
    EXPECT_EQ(Spec->D, C.D) << C.Text;
    EXPECT_EQ(Spec->Seed, C.Seed) << C.Text;
  }
}

TEST(FaultSpecTest, ParseRejectsMalformedSpecs) {
  for (const char *Bad : {"", "sometimes", "nth=", "nth=0", "every=0",
                          "count=", "rate=1/0@3", "rate=5@3", "rate=1/2",
                          "nth=abc", "nth=18446744073709551616"}) {
    std::string Error;
    EXPECT_FALSE(FaultSpec::parse(Bad, &Error).has_value()) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
}

//===--------------------------------------------------------------------===//
// BALIGN_CRASH spec parsing (arming only: nothing here probes a site)
//===--------------------------------------------------------------------===//

TEST(CrashSpecTest, ArmFromSpecAcceptsOnlyStrictSpecs) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  for (const char *Bad : {"", "pool.task:", "pool.task:0", "pool.task:3x",
                          "nosuch.site", "pool.task:18446744073709551616"}) {
    std::string Error;
    EXPECT_FALSE(FI.armCrashFromSpec(Bad, &Error)) << Bad;
    EXPECT_FALSE(Error.empty()) << Bad;
  }
  std::string Error;
  EXPECT_TRUE(FI.armCrashFromSpec("pool.task:3", &Error)) << Error;
  FI.reset();
}

//===--------------------------------------------------------------------===//
// FaultInjector
//===--------------------------------------------------------------------===//

TEST(FaultInjectorTest, ArmedSiteFiresAndCountsHits) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  uint64_t Before = FI.hits(FaultSite::TspSolve);
  EXPECT_EQ(Before, 0u);

  FI.arm(FaultSite::TspSolve, FaultSpec::nth(2));
  EXPECT_FALSE(FI.shouldFail(FaultSite::TspSolve)); // Hit 1.
  EXPECT_TRUE(FI.shouldFail(FaultSite::TspSolve));  // Hit 2 fires.
  EXPECT_FALSE(FI.shouldFail(FaultSite::TspSolve)); // Hit 3.
  EXPECT_EQ(FI.hits(FaultSite::TspSolve), 3u);

  // Other sites are untouched.
  EXPECT_EQ(FI.hits(FaultSite::CacheFlush), 0u);
  EXPECT_FALSE(FI.shouldFail(FaultSite::CacheFlush));
  FI.reset();
}

TEST(FaultInjectorTest, ThrowIfFaultCarriesTheSite) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  FaultInjector::ScopedFault Armed(FaultSite::AlignGreedy,
                                   FaultSpec::always());
  try {
    FI.throwIfFault(FaultSite::AlignGreedy);
    FAIL() << "expected FaultInjectedError";
  } catch (const FaultInjectedError &E) {
    EXPECT_EQ(E.site(), FaultSite::AlignGreedy);
    EXPECT_NE(std::string(E.what()).find("align.greedy"), std::string::npos);
  }
  FI.reset();
}

TEST(FaultInjectorTest, ScopedFaultRestoresSpecAndCounter) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  FI.arm(FaultSite::PoolTask, FaultSpec::nth(10));
  EXPECT_FALSE(FI.shouldFail(FaultSite::PoolTask)); // Hit 1 of nth=10.
  {
    FaultInjector::ScopedFault Inner(FaultSite::PoolTask,
                                     FaultSpec::always());
    EXPECT_TRUE(FI.shouldFail(FaultSite::PoolTask));
  }
  // The outer nth=10 spec and its hit counter are back: hits 2..9 pass.
  for (int I = 0; I != 8; ++I)
    EXPECT_FALSE(FI.shouldFail(FaultSite::PoolTask)) << "hit " << I + 2;
  EXPECT_TRUE(FI.shouldFail(FaultSite::PoolTask)); // Hit 10.
  FI.reset();
}

TEST(FaultInjectorTest, ScopedSuppressNeitherFiresNorConsumesHits) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  FaultInjector::ScopedFault Armed(FaultSite::TspTransform,
                                   FaultSpec::nth(2));
  EXPECT_FALSE(FI.shouldFail(FaultSite::TspTransform)); // Hit 1.
  {
    FaultInjector::ScopedSuppress Suppress;
    // Probes inside the suppressed scope see no fault and leave the
    // counter alone — this is what keeps --verify replays from skewing
    // the pipeline's deterministic hit sequence.
    for (int I = 0; I != 5; ++I)
      EXPECT_FALSE(FI.shouldFail(FaultSite::TspTransform));
    EXPECT_EQ(FI.hits(FaultSite::TspTransform), 1u);
  }
  EXPECT_TRUE(FI.shouldFail(FaultSite::TspTransform)); // Still hit 2.
  FI.reset();
}

TEST(FaultInjectorTest, ArmFromSpecParsesListsAndReportsErrors) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  std::string Error;
  ASSERT_TRUE(
      FI.armFromSpec("tsp.solve:once,cache.flush:count=2", &Error))
      << Error;
  EXPECT_TRUE(FI.shouldFail(FaultSite::TspSolve));
  EXPECT_FALSE(FI.shouldFail(FaultSite::TspSolve));
  EXPECT_TRUE(FI.shouldFail(FaultSite::CacheFlush));
  EXPECT_TRUE(FI.shouldFail(FaultSite::CacheFlush));
  EXPECT_FALSE(FI.shouldFail(FaultSite::CacheFlush));

  EXPECT_FALSE(FI.armFromSpec("nosuch.site:always", &Error));
  EXPECT_NE(Error.find("nosuch.site"), std::string::npos);
  EXPECT_FALSE(FI.armFromSpec("tsp.solve", &Error)); // Missing ':mode'.
  EXPECT_FALSE(FI.armFromSpec("tsp.solve:sometimes", &Error));
  FI.reset();
}

TEST(FaultInjectorTest, EachVariableRefusesTheOthersSites) {
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  std::string Error;
  EXPECT_FALSE(FI.armFromSpec("cache.tmp-write:always", &Error));
  EXPECT_EQ("unknown fault site 'cache.tmp-write' (known sites: "
            "profile.parse, tsp.transform, tsp.solve, align.greedy, "
            "pool.task, cache.load, cache.flush, serve.frame, align.chain, "
            "journal.append, client.connect, displace.fixpoint)",
            Error);
  EXPECT_FALSE(FI.armCrashFromSpec("tsp.solve", &Error));
  EXPECT_EQ("unknown crash site 'tsp.solve' (known sites: pool.task, "
            "cache.tmp-write, cache.pre-rename, cache.post-rename, "
            "checkpoint.append, serve.response)",
            Error);
  // Neither refusal armed anything: probes pass and count no hit.
  EXPECT_FALSE(FI.shouldFail(FaultSite::TspSolve));
  EXPECT_EQ(0u, FI.hits(FaultSite::TspSolve));
  FI.reset();
}

TEST(FaultInjectorTest, PoolTaskTakesOneSpecFromOneVariable) {
  // pool.task is the one site both variables may name, and a site holds
  // one spec: whichever parser comes second is refused, naming the site,
  // and the first spec stays armed.
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  std::string Error;
  ASSERT_TRUE(FI.armFromSpec("pool.task:always", &Error)) << Error;
  EXPECT_FALSE(FI.armCrashFromSpec("pool.task", &Error));
  EXPECT_NE(Error.find("'pool.task'"), std::string::npos) << Error;
  EXPECT_TRUE(FI.shouldFail(FaultSite::PoolTask));
  FI.reset();

  ASSERT_TRUE(FI.armCrashFromSpec("pool.task:2", &Error)) << Error;
  Error.clear();
  EXPECT_FALSE(FI.armFromSpec("pool.task:once", &Error));
  EXPECT_NE(Error.find("'pool.task'"), std::string::npos) << Error;
  FI.reset();

  // Each parser may re-arm what it armed itself.
  ASSERT_TRUE(FI.armFromSpec("pool.task:always", &Error)) << Error;
  ASSERT_TRUE(FI.armFromSpec("pool.task:once", &Error)) << Error;
  ASSERT_TRUE(FI.armCrashFromSpec("cache.tmp-write:4", &Error)) << Error;
  ASSERT_TRUE(FI.armCrashFromSpec("cache.tmp-write", &Error)) << Error;
  FI.reset();
}

TEST(FaultInjectorDeathTest, SitesTakeOnlyTheirVariablesSpecs) {
  // However a site is armed, a crash-only site takes no fault spec and a
  // fault-only site no crash spec.
  FaultInjector &FI = FaultInjector::instance();
  FI.reset();
  EXPECT_DEATH(FI.arm(FaultSite::CacheTmpWrite, FaultSpec::always()),
               "balign fatal: site 'cache.tmp-write' takes no fault spec");
  EXPECT_DEATH(FI.arm(FaultSite::TspSolve, FaultSpec::crash()),
               "balign fatal: site 'tsp.solve' takes no crash spec");
}

TEST(FaultInjectorTest, SiteNamesRoundTrip) {
  for (size_t I = 0; I != NumFaultSites; ++I) {
    FaultSite Site = static_cast<FaultSite>(I);
    const char *Name = faultSiteName(Site);
    ASSERT_NE(Name, nullptr);
    std::optional<FaultSite> Back = faultSiteByName(Name);
    ASSERT_TRUE(Back.has_value()) << Name;
    EXPECT_EQ(*Back, Site) << Name;
  }
  EXPECT_FALSE(faultSiteByName("not.a.site").has_value());
}

//===--------------------------------------------------------------------===//
// Deadline
//===--------------------------------------------------------------------===//

TEST(DeadlineTest, UnlimitedDeadlinesNeverExpire) {
  Deadline Unlimited;
  EXPECT_FALSE(Unlimited.expired());
  EXPECT_FALSE(Unlimited.isLimited());
  EXPECT_NO_THROW(Unlimited.check("anything"));

  ManualClock Clock;
  Deadline ZeroBudget(0, Clock.fn()); // 0 = unlimited, the CLI convention.
  Clock.advance(1000000);
  EXPECT_FALSE(ZeroBudget.expired());
  EXPECT_FALSE(ZeroBudget.isLimited());
}

TEST(DeadlineTest, ExpiresExactlyAtTheBudgetOnAManualClock) {
  ManualClock Clock(100);
  Deadline D(50, Clock.fn());
  EXPECT_TRUE(D.isLimited());
  EXPECT_FALSE(D.expired());
  Clock.advance(49);
  EXPECT_FALSE(D.expired());
  EXPECT_EQ(D.elapsedMs(), 49u);
  Clock.advance(1); // Exactly at the budget: expired.
  EXPECT_TRUE(D.expired());
  EXPECT_THROW(D.check("solver"), DeadlineExceeded);
  try {
    D.check("iterated 3-Opt");
  } catch (const DeadlineExceeded &E) {
    EXPECT_NE(std::string(E.what()).find("iterated 3-Opt"),
              std::string::npos);
  }
}

TEST(DeadlineTest, ParentExpiryPropagatesToChildren) {
  ManualClock Clock;
  Deadline Run(100, Clock.fn());
  Clock.advance(10);
  // A generous per-procedure budget chained under the run deadline.
  Deadline Proc(1000, Clock.fn(), &Run);
  EXPECT_TRUE(Proc.isLimited());
  EXPECT_FALSE(Proc.expired());
  Clock.advance(90); // Run deadline (100ms) trips; proc budget has 910ms.
  EXPECT_TRUE(Run.expired());
  EXPECT_TRUE(Proc.expired()) << "child must observe parent expiry";

  // And an unlimited child under a limited parent is limited.
  ManualClock Clock2;
  Deadline Run2(5, Clock2.fn());
  Deadline Proc2(0, Clock2.fn(), &Run2);
  EXPECT_TRUE(Proc2.isLimited());
  Clock2.advance(5);
  EXPECT_TRUE(Proc2.expired());
}

//===--------------------------------------------------------------------===//
// retryWithBackoff
//===--------------------------------------------------------------------===//

TEST(RetryTest, FirstAttemptSuccessNeitherSleepsNorRetries) {
  std::vector<uint64_t> Sleeps;
  RetryOutcome Outcome = retryWithBackoff(
      RetryPolicy{}, [](std::string *) { return true; }, nullptr,
      [&](uint64_t Ms) { Sleeps.push_back(Ms); });
  EXPECT_TRUE(Outcome.Succeeded);
  EXPECT_EQ(Outcome.Attempts, 1u);
  EXPECT_EQ(Outcome.TotalBackoffMs, 0u);
  EXPECT_TRUE(Sleeps.empty());
}

TEST(RetryTest, TransientFailureIsAbsorbedWithDoublingBackoff) {
  unsigned Calls = 0;
  std::vector<uint64_t> Sleeps;
  RetryPolicy Policy;
  Policy.MaxAttempts = 4;
  Policy.InitialBackoffMs = 2;
  Policy.MaxBackoffMs = 100;
  std::string Error;
  RetryOutcome Outcome = retryWithBackoff(
      Policy,
      [&](std::string *E) {
        if (++Calls < 3) {
          *E = "transient";
          return false;
        }
        return true;
      },
      &Error, [&](uint64_t Ms) { Sleeps.push_back(Ms); });
  EXPECT_TRUE(Outcome.Succeeded);
  EXPECT_EQ(Outcome.Attempts, 3u);
  EXPECT_EQ(Sleeps, (std::vector<uint64_t>{2, 4})) << "doubling backoff";
  EXPECT_EQ(Outcome.TotalBackoffMs, 6u);
}

TEST(RetryTest, PersistentFailureStopsAtMaxAttemptsAndKeepsLastError) {
  unsigned Calls = 0;
  std::vector<uint64_t> Sleeps;
  RetryPolicy Policy;
  Policy.MaxAttempts = 5;
  Policy.InitialBackoffMs = 1;
  Policy.MaxBackoffMs = 4; // Cap inside the sequence: 1, 2, 4, 4.
  std::string Error;
  RetryOutcome Outcome = retryWithBackoff(
      Policy,
      [&](std::string *E) {
        *E = "attempt " + std::to_string(++Calls) + " failed";
        return false;
      },
      &Error, [&](uint64_t Ms) { Sleeps.push_back(Ms); });
  EXPECT_FALSE(Outcome.Succeeded);
  EXPECT_EQ(Outcome.Attempts, 5u);
  EXPECT_EQ(Calls, 5u);
  EXPECT_EQ(Sleeps, (std::vector<uint64_t>{1, 2, 4, 4}))
      << "backoff doubles then clamps at MaxBackoffMs";
  EXPECT_EQ(Error, "attempt 5 failed") << "the last error is reported";
}

//===--------------------------------------------------------------------===//
// FailureReport
//===--------------------------------------------------------------------===//

TEST(FailureReportTest, SummaryCountsRungsInTheStableKeyValueForm) {
  FailureReport Report;
  ProcedureFailure Greedy;
  Greedy.ProcIndex = 1;
  Greedy.ProcName = "f";
  Greedy.Kind = FailureKind::Fault;
  Greedy.What = "injected fault at 'tsp.solve'";
  Greedy.Rung = LadderRung::Greedy;
  ProcedureFailure Skipped;
  Skipped.ProcIndex = 3;
  Skipped.ProcName = "g";
  Skipped.Kind = FailureKind::Deadline;
  Skipped.What = "iterated 3-Opt exceeded its deadline";
  Skipped.Rung = LadderRung::Original;
  Skipped.Skipped = true;
  Report.Failures = {Greedy, Skipped};

  EXPECT_EQ(Report.countRung(LadderRung::Greedy), 1u);
  EXPECT_EQ(Report.countRung(LadderRung::Original), 1u);
  EXPECT_EQ(Report.countRung(LadderRung::Tsp), 0u);
  EXPECT_EQ(Report.countSkipped(), 1u);
  EXPECT_EQ(Report.summary(7),
            "procs=7 tsp=5 greedy=1 original=1 skipped=1 failures=2");

  EXPECT_NE(Greedy.str().find("proc 'f'"), std::string::npos);
  EXPECT_NE(Greedy.str().find("fault"), std::string::npos);
  EXPECT_NE(Greedy.str().find("rung=greedy"), std::string::npos);
  EXPECT_NE(Skipped.str().find("skipped"), std::string::npos);
}

TEST(FailureReportTest, StrIsTheCauseAndTheShippedRung) {
  ProcedureFailure F;
  F.ProcIndex = 2;
  F.ProcName = "f";
  F.Kind = FailureKind::Deadline;
  F.What = "iterated 3-Opt exceeded its deadline";
  // The cause alone is what an abort reports: nothing shipped.
  EXPECT_EQ("proc 'f': deadline: iterated 3-Opt exceeded its deadline",
            F.cause());
  F.Rung = LadderRung::Greedy;
  EXPECT_EQ("proc 'f': deadline: iterated 3-Opt exceeded its deadline; "
            "rung=greedy",
            F.str());
  F.Rung = LadderRung::Original;
  EXPECT_EQ("proc 'f': deadline: iterated 3-Opt exceeded its deadline; "
            "rung=original",
            F.str());
  F.Skipped = true;
  EXPECT_EQ("proc 'f': deadline: iterated 3-Opt exceeded its deadline; "
            "skipped (rung=original)",
            F.str());
}

TEST(FailureReportTest, ControlBytesInProcNameAreEscaped) {
  // align_tool prints the text with %s: a raw NUL would end it there.
  ProcedureFailure F;
  F.ProcName = std::string("vm\0_run", 7);
  F.Kind = FailureKind::Fault;
  F.What = "injected fault at 'tsp.solve'";
  F.Rung = LadderRung::Greedy;
  EXPECT_EQ("proc 'vm\\x00_run': fault: injected fault at 'tsp.solve'; "
            "rung=greedy",
            F.str());
}
