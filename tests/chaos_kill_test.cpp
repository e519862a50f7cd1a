//===- tests/chaos_kill_test.cpp - fork-based kill sweep ------------------===//
//
// The balign-sentinel chaos harness: fork a child, arm one BALIGN_CRASH
// site (programmatically — same machinery), let it `_exit(2)` mid-I/O,
// then assert the survivor-side invariants in the parent:
//
//  - the cache store reopens with at most one load casualty and every
//    entry it does serve is byte-identical to the no-cache truth;
//  - the checkpoint journal resumes exactly-once: a program whose append
//    survived is never re-run, a program whose append was torn is never
//    skipped (its work re-runs, the journal ends with one record);
//  - a legacy plain-line checkpoint killed mid-migration is either the
//    untouched old file or the complete journal, listing the same lines;
//  - a server killed mid-response is invisible to a client that retries
//    against its restarted successor.
//
// Each child exiting with CrashExitCode *proves* the armed site sits on
// the real I/O path — a child that exits 0 means the kill never fired
// and fails the sweep.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "profile/Trace.h"
#include "robust/FaultInjector.h"
#include "robust/Journal.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"
#include "serve/Server.h"
#include "workloads/Generator.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <csignal>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <set>
#include <string>
#include <sys/wait.h>
#include <unistd.h>
#include <vector>

using namespace balign;

namespace {

struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

/// A small program + profile + no-cache truth (the cache_store_test
/// workload shape, kept tiny: chaos sweeps fork per site).
struct Workload {
  Program Prog{"chaos"};
  ProgramProfile Train;
  AlignmentOptions Options;
  ProgramAlignment Truth;
};

Workload makeWorkload(uint64_t Seed, size_t NumProcs = 2) {
  Workload W;
  for (size_t P = 0; P != NumProcs; ++P) {
    Rng R(Seed + P);
    GenParams Params;
    Params.TargetBranchSites = 4 + P % 3;
    W.Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  for (size_t P = 0; P != NumProcs; ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    Rng TraceRng(Seed * 31 + P);
    W.Train.Procs.push_back(walkProfile(Proc, BranchBehavior::uniform(Proc),
                                        TraceRng, 300));
  }
  W.Truth = alignProgram(W.Prog, W.Train, W.Options);
  return W;
}

void storeAll(AlignmentCache &Cache, const Workload &W) {
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
    Cache.store(W.Prog.proc(P), W.Train.Procs[P], W.Options, P,
                W.Truth.Procs[P]);
}

/// Forks, runs \p Child in the child (which must end in _exit), waits,
/// and returns the child's exit status (-1 for abnormal death).
template <typename Fn> int runKilledChild(Fn Child) {
  pid_t Pid = ::fork();
  if (Pid == 0) {
    Child();
    ::_exit(0); // The armed crash never fired.
  }
  int Status = 0;
  if (Pid < 0 || ::waitpid(Pid, &Status, 0) != Pid)
    return -1;
  return WIFEXITED(Status) ? WEXITSTATUS(Status) : -1;
}

/// Appends one fsync'd line to \p Path — the durable "work happened"
/// ack the exactly-once assertions read back after a kill.
void appendDurableLine(const std::string &Path, const std::string &Line) {
  int Fd = ::open(Path.c_str(), O_WRONLY | O_APPEND | O_CREAT | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    ::_exit(5);
  std::string Bytes = Line + "\n";
  if (::write(Fd, Bytes.data(), Bytes.size()) !=
          static_cast<ssize_t>(Bytes.size()) ||
      ::fsync(Fd) != 0)
    ::_exit(5);
  ::close(Fd);
}

size_t countLines(const std::string &Path) {
  std::ifstream In(Path);
  size_t N = 0;
  std::string Line;
  while (std::getline(In, Line))
    ++N;
  return N;
}

} // namespace

TEST(ChaosKillTest, CacheStoreSurvivesKillsAtEveryCrashPoint) {
  // One baseline workload (flushed durably up front) and one update
  // workload the child is killed while persisting. Whatever the kill
  // tears, the baseline entries must come back byte-identical and the
  // reopen must count at most one load casualty.
  Workload Baseline = makeWorkload(100, 2);
  Workload Update = makeWorkload(200, 2);

  const FaultSite Sweep[] = {FaultSite::CacheTmpWrite,
                             FaultSite::CachePreRename,
                             FaultSite::CachePostRename,
                             FaultSite::PoolTask};
  for (FaultSite Site : Sweep) {
    std::string DirName = std::string("chaos_") + faultSiteName(Site);
    std::replace(DirName.begin(), DirName.end(), '.', '_');
    TempDir Dir(DirName);
    {
      AlignmentCache Seed(Dir.path());
      storeAll(Seed, Baseline);
      std::string Error;
      ASSERT_TRUE(Seed.flush(&Error)) << Error;
    }

    int Status = runKilledChild([&] {
      AlignmentCache Cache(Dir.path());
      if (Site == FaultSite::PoolTask) {
        // Die inside pipeline task execution: no flush ever runs for
        // the update's results.
        AlignmentOptions Options = Update.Options;
        Options.CacheImpl = &Cache;
        FaultInjector::instance().arm(Site, FaultSpec::crash());
        alignProgram(Update.Prog, Update.Train, Options);
      } else {
        storeAll(Cache, Update);
        FaultInjector::instance().arm(Site, FaultSpec::crash());
        std::string Error;
        Cache.flush(&Error);
      }
    });
    ASSERT_EQ(CrashExitCode, Status)
        << faultSiteName(Site) << " never fired (or died differently)";

    // Survivor invariants. The kill may have torn the tmp file or left
    // the rename half-acknowledged; none of that may cost more than one
    // load casualty, and nothing it serves may be wrong bytes.
    AlignmentCache After(Dir.path());
    EXPECT_LE(After.stats().LoadFailures, 1u) << faultSiteName(Site);
    for (size_t P = 0; P != Baseline.Prog.numProcedures(); ++P) {
      ProcedureAlignment Out;
      ASSERT_TRUE(After.lookup(Baseline.Prog.proc(P),
                               Baseline.Train.Procs[P], Baseline.Options,
                               P, Out))
          << faultSiteName(Site) << " lost baseline proc " << P;
      EXPECT_EQ(Baseline.Truth.Procs[P].TspLayout.Order,
                Out.TspLayout.Order)
          << faultSiteName(Site);
      EXPECT_EQ(Baseline.Truth.Procs[P].TspPenalty, Out.TspPenalty)
          << faultSiteName(Site);
    }

    // The survivor can persist again — the torn state did not wedge the
    // store's write path.
    std::string Error;
    EXPECT_TRUE(After.flush(&Error)) << faultSiteName(Site) << ": "
                                     << Error;
  }
}

TEST(ChaosKillTest, PoolTaskCrashCountsOneHitPerTask) {
  // Three profiled procedures aligned serially, each result flushed as
  // it is stored, and a crash at the second pool.task hit: the first
  // task's entry is durable before the second task dies. An injector
  // that counted two pool.task probes per task would die inside the
  // first task and leave no entry.
  Workload W = makeWorkload(300, 3);
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
    ASSERT_GT(W.Train.Procs[P].executedBranches(W.Prog.proc(P)), 0u) << P;
  TempDir Dir("chaos_pool_task_hit2");

  int Status = runKilledChild([&] {
    AlignmentCacheConfig Config;
    Config.FlushEveryStores = 1;
    AlignmentCache Cache(Dir.path(), Config);
    AlignmentOptions Options = W.Options;
    Options.Threads = 1;
    Options.CacheImpl = &Cache;
    FaultInjector::instance().arm(FaultSite::PoolTask,
                                  FaultSpec::crash(/*Nth=*/2));
    alignProgram(W.Prog, W.Train, Options);
  });
  ASSERT_EQ(CrashExitCode, Status) << "pool.task:2 never fired";

  AlignmentCache After(Dir.path());
  EXPECT_EQ(0u, After.stats().LoadFailures);
  EXPECT_EQ(1u, After.size());
  ProcedureAlignment Out;
  ASSERT_TRUE(After.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options, 0,
                           Out));
  EXPECT_EQ(W.Truth.Procs[0].TspLayout.Order, Out.TspLayout.Order);
}

TEST(ChaosKillTest, ResetDisarmsAnArmedCrash) {
  Workload W = makeWorkload(400, 2);
  TempDir Dir("chaos_reset");
  int Status = runKilledChild([&] {
    FaultInjector::instance().arm(FaultSite::CacheTmpWrite,
                                  FaultSpec::crash());
    FaultInjector::instance().reset();
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    std::string Error;
    if (!Cache.flush(&Error))
      ::_exit(3);
  });
  EXPECT_EQ(0, Status) << "a reset crash spec still fired";
  AlignmentCache After(Dir.path());
  EXPECT_EQ(W.Prog.numProcedures(), After.size());
}

TEST(ChaosKillTest, CheckpointResumeIsExactlyOnceUnderAppendKills) {
  TempDir Dir("chaos_journal");
  std::string JournalPath = Dir / "checkpoint.journal";
  const std::vector<std::string> Programs{"p0", "p1", "p2", "p3"};

  // Each child plays one batch-driver life: open the journal, resume
  // past recorded programs, and for each remaining one do the work
  // (a durable ack line) then journal it — with the *second* append of
  // its life armed to die mid-record. Deterministically, each life
  // completes one program and tears the next one's record.
  int Lives = 0;
  for (; Lives != 10; ++Lives) {
    int Status = runKilledChild([&] {
      AppendJournal Journal;
      if (!Journal.open(JournalPath))
        ::_exit(3);
      std::set<std::string> Done(Journal.records().begin(),
                                 Journal.records().end());
      FaultInjector::instance().arm(FaultSite::CheckpointAppend,
                                    FaultSpec::crash(/*Nth=*/2));
      for (const std::string &Prog : Programs) {
        if (Done.count(Prog))
          continue; // Never re-run completed work.
        appendDurableLine(Dir / (Prog + ".runs"), "ran");
        if (!Journal.append(Prog))
          ::_exit(4);
      }
    });
    if (Status == 0)
      break; // A full pass with no append left to kill: batch done.
    ASSERT_EQ(CrashExitCode, Status) << "life " << Lives;

    // The invariant every intermediate state must satisfy: a journaled
    // program always has its work ack (the journal never gets ahead of
    // the work), torn tails only ever cost re-execution, never skips.
    AppendJournal Check;
    std::string Error;
    ASSERT_TRUE(Check.open(JournalPath, &Error)) << Error;
    for (const std::string &Rec : Check.records())
      EXPECT_GE(countLines(Dir / (Rec + ".runs")), 1u) << Rec;
  }

  // Lives 0..2 each journal one program and tear the next one's record;
  // life 3 journals p3 and exits clean — three kills exactly.
  EXPECT_EQ(3, Lives);

  AppendJournal Final;
  std::string Error;
  ASSERT_TRUE(Final.open(JournalPath, &Error)) << Error;
  EXPECT_EQ(Programs, Final.records()); // Each exactly once, in order.

  // Exactly-once resume, quantified: a program whose append survived is
  // never re-run (p0 ran once); one whose record was torn re-ran exactly
  // once more (never skipped, never thrashed).
  EXPECT_EQ(1u, countLines(Dir / "p0.runs"));
  EXPECT_EQ(2u, countLines(Dir / "p1.runs"));
  EXPECT_EQ(2u, countLines(Dir / "p2.runs"));
  EXPECT_EQ(2u, countLines(Dir / "p3.runs"));
}

TEST(ChaosKillTest, LegacyMigrationSurvivesKillsAtEveryReplaceSite) {
  // Migration rewrites a plain-line checkpoint through the same atomic
  // replace a cache flush uses, so it must reach the same three sites.
  // A kill before the rename leaves the plain-line file byte-identical;
  // a kill after it leaves the finished journal. Either way the reopen
  // lists exactly the legacy lines.
  const std::string Legacy = "old1.cfg\nold2.cfg\n\nold3.cfg";
  const std::vector<std::string> Lines{"old1.cfg", "old2.cfg", "old3.cfg"};
  const FaultSite Sweep[] = {FaultSite::CacheTmpWrite,
                             FaultSite::CachePreRename,
                             FaultSite::CachePostRename};
  for (FaultSite Site : Sweep) {
    std::string DirName = std::string("chaos_migrate_") + faultSiteName(Site);
    std::replace(DirName.begin(), DirName.end(), '.', '_');
    TempDir Dir(DirName);
    std::string Path = Dir / "checkpoint";
    {
      std::ofstream Out(Path, std::ios::binary);
      Out << Legacy;
    }

    int Status = runKilledChild([&] {
      FaultInjector::instance().arm(Site, FaultSpec::crash());
      AppendJournal Journal;
      Journal.open(Path);
    });
    ASSERT_EQ(CrashExitCode, Status)
        << faultSiteName(Site) << " never fired (or died differently)";

    std::string Bytes;
    ASSERT_TRUE(readFileBytes(Path, Bytes));
    bool Renamed = Site == FaultSite::CachePostRename;
    if (Renamed)
      EXPECT_EQ(0, Bytes.compare(0, sizeof(AppendJournal::Magic),
                                 AppendJournal::Magic,
                                 sizeof(AppendJournal::Magic)))
          << faultSiteName(Site);
    else
      EXPECT_EQ(Legacy, Bytes) << faultSiteName(Site);

    AppendJournal After;
    std::string Error;
    ASSERT_TRUE(After.open(Path, &Error)) << faultSiteName(Site) << ": "
                                          << Error;
    EXPECT_EQ(Lines, After.records()) << faultSiteName(Site);
    EXPECT_EQ(!Renamed, After.stats().MigratedLegacy) << faultSiteName(Site);
    EXPECT_FALSE(After.stats().RecoveredTail) << faultSiteName(Site);
  }
}

TEST(ChaosKillTest, ServerKilledMidResponseIsInvisibleThroughRetry) {
  std::string Sock = ::testing::TempDir() + "balign_chaos_serve.sock";
  ::unlink(Sock.c_str());

  // The byte-identity oracle for the request both server generations
  // will answer.
  const char Cfg[] = R"(program chaos
proc main {
  entry: size 3 jump -> loop
  loop:  size 2 cond -> body exit
  body:  size 4 jump -> loop
  exit:  size 1 ret
}
)";
  AlignRequest Request;
  Request.CfgText = Cfg;
  Request.Seed = 11;
  Request.Budget = 700;
  std::string ParseError;
  std::optional<Program> Prog = parseProgram(Cfg, &ParseError);
  ASSERT_TRUE(Prog.has_value()) << ParseError;
  ProgramProfile Counts = synthesizeProfile(*Prog, 11, 700);
  AlignmentOptions Options;
  Options.Solver.Seed = 11;
  ProgramAlignment Result = alignProgram(*Prog, Counts, Options);
  std::string Expected = renderAlignmentReport(*Prog, Counts, Result,
                                               /*ComputeBounds=*/false,
                                               /*EmitDot=*/false);

  auto serveOnce = [&](bool Armed) {
    if (Armed)
      FaultInjector::instance().arm(FaultSite::ServeResponse,
                                    FaultSpec::crash());
    AlignmentOptions Base;
    ServeConfig Config;
    Config.Threads = 1;
    AlignServer Server(Base, Config);
    Server.serveUnixSocket(Sock);
  };

  RetryPolicy Patient;
  Patient.MaxAttempts = 400;
  Patient.InitialBackoffMs = 5;
  Patient.MaxBackoffMs = 5;

  // Generation one dies between computing the response and writing it —
  // the worst spot: the client has no answer yet the work happened.
  pid_t ServerA = ::fork();
  if (ServerA == 0) {
    serveOnce(/*Armed=*/true);
    ::_exit(0);
  }
  ASSERT_GT(ServerA, 0);

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connectUnixRetry(Sock, Patient, &Error)) << Error;
  std::string Report;
  EXPECT_FALSE(Client.align(Request, Report, &Error));
  int Status = 0;
  ASSERT_EQ(ServerA, ::waitpid(ServerA, &Status, 0));
  ASSERT_TRUE(WIFEXITED(Status));
  ASSERT_EQ(CrashExitCode, WEXITSTATUS(Status))
      << "serve.response never fired";

  // Generation two is healthy. The same client object — still holding
  // its dead connection — retries: reconnect, byte-identical resend,
  // correct answer. The restart is invisible to the caller.
  pid_t ServerB = ::fork();
  if (ServerB == 0) {
    serveOnce(/*Armed=*/false);
    ::_exit(0);
  }
  ASSERT_GT(ServerB, 0);

  ASSERT_TRUE(Client.alignWithRetry(Sock, Request, Report, Patient,
                                    &Error))
      << Error;
  EXPECT_EQ(Expected, Report);

  Frame Response;
  ASSERT_TRUE(Client.call(makeFrame(FrameType::Shutdown), Response,
                          &Error))
      << Error;
  EXPECT_EQ(FrameType::ShutdownOk, Response.Type);
  ASSERT_EQ(ServerB, ::waitpid(ServerB, &Status, 0));
  EXPECT_TRUE(WIFEXITED(Status) && WEXITSTATUS(Status) == 0);
}
