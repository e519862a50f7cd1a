//===- tests/shield_cache_test.cpp - cache fault injection & downgrade ------===//
//
// balign-shield coverage of the cache store's disk paths: transient
// flush/load faults absorbed by bounded-backoff retry (with the exact
// deterministic backoff sequence asserted through an injected sleep),
// persistent flush failure downgrading the session to memory-only, and
// persistent load failure degrading to a cold — never wrong — cache.
//
//===--------------------------------------------------------------------===//

#include "cache/Store.h"

#include "align/Pipeline.h"
#include "profile/Trace.h"
#include "robust/FaultInjector.h"
#include "workloads/Generator.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <future>
#include <thread>

using namespace balign;

namespace {

using ScopedFault = FaultInjector::ScopedFault;

std::string storePath(const TempDir &Dir) {
  return Dir / AlignmentCache::StoreFileName;
}

/// A config whose retry sleeps record into \p Sleeps instead of
/// sleeping, so fault-matrix tests take no wall time.
AlignmentCacheConfig recordingConfig(std::vector<uint64_t> &Sleeps) {
  AlignmentCacheConfig Config;
  Config.RetrySleep = [&Sleeps](uint64_t Ms) { Sleeps.push_back(Ms); };
  return Config;
}

/// One profiled procedure plus its ground-truth alignment, for
/// populating stores with a real (validating) entry.
struct Workload {
  Program Prog{"shield_cache"};
  ProgramProfile Train;
  AlignmentOptions Options;
  ProgramAlignment Truth;
};

Workload makeWorkload(uint64_t Seed = 42) {
  Workload W;
  Rng R(Seed);
  GenParams Params;
  Params.TargetBranchSites = 4;
  W.Prog.addProcedure(generateProcedure("p0", Params, R).Proc);
  Rng TraceRng(Seed * 31);
  W.Train.Procs.push_back(walkProfile(W.Prog.proc(0),
                                      BranchBehavior::uniform(W.Prog.proc(0)),
                                      TraceRng, 400));
  W.Truth = alignProgram(W.Prog, W.Train, W.Options);
  return W;
}

} // namespace

TEST(ShieldCacheTest, TransientFlushFaultIsRetriedAway) {
  FaultInjector::instance().reset();
  TempDir Dir("shield_transient_flush");
  std::vector<uint64_t> Sleeps;
  AlignmentCache Cache(Dir.path(), recordingConfig(Sleeps));

  // The first two write attempts fail; the third (of the default
  // MaxAttempts = 3) succeeds.
  ScopedFault Fault(FaultSite::CacheFlush, FaultSpec::count(2));
  std::string Error;
  EXPECT_TRUE(Cache.flush(&Error)) << Error;

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Retries, 2u);
  EXPECT_EQ(Stats.FlushFailures, 0u);
  EXPECT_EQ(Sleeps, (std::vector<uint64_t>{1, 2}))
      << "deterministic doubling backoff, no jitter";
  EXPECT_TRUE(Cache.isDiskBacked());
  EXPECT_TRUE(std::filesystem::exists(storePath(Dir)));
  EXPECT_NE(Stats.BytesWritten, 0u);
}

TEST(ShieldCacheTest, LookupsAndStoresProceedWhileAFlushRetries) {
  FaultInjector::instance().reset();
  TempDir Dir("shield_parked_flush");
  Workload W = makeWorkload();
  Workload Later = makeWorkload(7);
  std::promise<void> Parked, Release;
  std::shared_future<void> Released = Release.get_future().share();
  AlignmentCacheConfig Config;
  Config.RetrySleep = [&](uint64_t) {
    Parked.set_value();
    Released.wait();
  };
  AlignmentCache Cache(Dir.path(), Config);
  Cache.store(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
              W.Truth.Procs[0]);

  // The first write attempt fails, so the flush parks in its backoff
  // sleep with its snapshot taken and the disk write still to come.
  ScopedFault Fault(FaultSite::CacheFlush, FaultSpec::once());
  bool Flushed = false;
  std::string Error;
  std::future<void> ParkedSignal = Parked.get_future();
  std::thread Flusher([&] { Flushed = Cache.flush(&Error); });
  if (ParkedSignal.wait_for(std::chrono::seconds(10)) !=
      std::future_status::ready) {
    Flusher.join();
    FAIL() << "the flush never reached its backoff sleep";
  }
  std::future<bool> Work = std::async(std::launch::async, [&] {
    ProcedureAlignment Out;
    bool Hit =
        Cache.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0, Out);
    Cache.store(Later.Prog.proc(0), Later.Train.Procs[0], Later.Options, 0,
                Later.Truth.Procs[0]);
    return Hit;
  });
  EXPECT_EQ(Work.wait_for(std::chrono::seconds(10)),
            std::future_status::ready)
      << "lookup and store queued behind the flush's disk write";
  Release.set_value();
  Flusher.join();
  EXPECT_TRUE(Work.get());
  EXPECT_TRUE(Flushed) << Error;

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.Retries, 1u);
  EXPECT_EQ(Stats.Hits, 1u);
  EXPECT_EQ(Stats.Stores, 2u);
  EXPECT_TRUE(Cache.isDiskBacked());
  // The parked flush wrote the snapshot it took; the next one adds the
  // entry stored meanwhile.
  EXPECT_EQ(AlignmentCache(Dir.path()).size(), 1u);
  EXPECT_TRUE(Cache.flush(&Error)) << Error;
  EXPECT_EQ(AlignmentCache(Dir.path()).size(), 2u);
}

TEST(ShieldCacheTest, PersistentFlushFaultDowngradesToMemoryOnly) {
  FaultInjector::instance().reset();
  TempDir Dir("shield_persistent_flush");
  std::vector<uint64_t> Sleeps;
  Workload W = makeWorkload();
  AlignmentCache Cache(Dir.path(), recordingConfig(Sleeps));
  Cache.store(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
              W.Truth.Procs[0]);

  {
    ScopedFault Fault(FaultSite::CacheFlush, FaultSpec::always());
    std::string Error;
    EXPECT_FALSE(Cache.flush(&Error));
    EXPECT_NE(Error.find("injected fault at 'cache.flush'"),
              std::string::npos);
    EXPECT_NE(Error.find("downgraded to memory-only"), std::string::npos);
  }

  CacheStats Stats = Cache.stats();
  EXPECT_EQ(Stats.FlushFailures, 1u);
  EXPECT_EQ(Stats.Retries, 2u) << "all three attempts were spent";
  EXPECT_EQ(Sleeps, (std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(Cache.isDiskBacked()) << "downgraded after the failure";
  EXPECT_FALSE(std::filesystem::exists(storePath(Dir)));

  // The downgrade sticks: with the fault gone, flushing is a successful
  // no-op (memory-only), and the in-memory entry still serves hits.
  std::string Error;
  EXPECT_TRUE(Cache.flush(&Error));
  EXPECT_FALSE(std::filesystem::exists(storePath(Dir)));
  ProcedureAlignment Out;
  EXPECT_TRUE(Cache.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
                           Out));
  EXPECT_EQ(Out.TspLayout.Order, W.Truth.Procs[0].TspLayout.Order);
}

TEST(ShieldCacheTest, PersistentLoadFaultYieldsAColdCache) {
  FaultInjector::instance().reset();
  TempDir Dir("shield_persistent_load");
  Workload W = makeWorkload();
  {
    AlignmentCache Writer(Dir.path());
    Writer.store(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
                 W.Truth.Procs[0]);
    ASSERT_TRUE(Writer.flush());
  }
  ASSERT_TRUE(std::filesystem::exists(storePath(Dir)));

  std::vector<uint64_t> Sleeps;
  {
    // Every read attempt fails: the store opens cold instead of failing.
    ScopedFault Fault(FaultSite::CacheLoad, FaultSpec::always());
    AlignmentCache Cold(Dir.path(), recordingConfig(Sleeps));
    CacheStats Stats = Cold.stats();
    EXPECT_EQ(Stats.LoadFailures, 1u);
    EXPECT_EQ(Stats.Retries, 2u);
    EXPECT_EQ(Stats.Entries, 0u);
    EXPECT_EQ(Sleeps, (std::vector<uint64_t>{1, 2}));
    ProcedureAlignment Out;
    EXPECT_FALSE(Cold.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
                             Out))
        << "a cold cache misses; it never serves a wrong hit";
    // Still disk-backed: the next flush repairs the store.
    EXPECT_TRUE(Cold.isDiskBacked());
  }

  // A transient read fault (first attempt only) is absorbed by retry.
  Sleeps.clear();
  {
    ScopedFault Fault(FaultSite::CacheLoad, FaultSpec::once());
    AlignmentCache Warm(Dir.path(), recordingConfig(Sleeps));
    CacheStats Stats = Warm.stats();
    EXPECT_EQ(Stats.LoadFailures, 0u);
    EXPECT_EQ(Stats.Retries, 1u);
    EXPECT_EQ(Stats.Entries, 1u);
    EXPECT_EQ(Sleeps, (std::vector<uint64_t>{1}));
    ProcedureAlignment Out;
    EXPECT_TRUE(Warm.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
                            Out));
    EXPECT_EQ(Out.TspLayout.Order, W.Truth.Procs[0].TspLayout.Order);
  }
}

TEST(ShieldCacheTest, CacheSessionSurvivesFlushFaultsEndToEnd) {
  FaultInjector::instance().reset();
  TempDir Dir("shield_session_flush");
  Workload W = makeWorkload();

  AlignmentOptions Options = W.Options;
  Options.Cache = CacheMode::Disk;
  Options.CachePath = Dir.path();
  std::vector<uint64_t> Sleeps;
  {
    CacheSession Session(Options, recordingConfig(Sleeps));
    ScopedFault Fault(FaultSite::CacheFlush, FaultSpec::always());
    // Alignment itself is unaffected by a broken disk.
    ProgramAlignment Result = alignProgram(W.Prog, W.Train, Options);
    EXPECT_EQ(Result.Procs[0].TspLayout.Order,
              W.Truth.Procs[0].TspLayout.Order);
    EXPECT_TRUE(Result.Failures.empty());

    std::string Error;
    EXPECT_FALSE(Session.flush(&Error));
    EXPECT_NE(Error.find("downgraded to memory-only"), std::string::npos);
    EXPECT_FALSE(Session.cache()->isDiskBacked());
    EXPECT_EQ(Session.stats().FlushFailures, 1u);
    // The session destructor's best-effort flush must not throw (it
    // lands on the downgraded no-op path).
  }
  EXPECT_FALSE(std::filesystem::exists(storePath(Dir)));

  // A fresh session over the same directory works normally again.
  {
    CacheSession Session(Options, recordingConfig(Sleeps));
    ProgramAlignment Result = alignProgram(W.Prog, W.Train, Options);
    EXPECT_EQ(Result.Procs[0].TspLayout.Order,
              W.Truth.Procs[0].TspLayout.Order);
    std::string Error;
    EXPECT_TRUE(Session.flush(&Error)) << Error;
  }
  EXPECT_TRUE(std::filesystem::exists(storePath(Dir)));
}
