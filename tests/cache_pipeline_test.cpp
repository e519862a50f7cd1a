//===- tests/cache_pipeline_test.cpp - Cache/pipeline integration tests ---===//
//
// End-to-end contracts of alignProgram with a CacheSession attached: a
// warm cache must produce bit-identical results with zero solver work,
// at any thread count, through any disk round-trip, with hooks and
// unprofiled procedures behaving exactly as without a cache.
//
//===--------------------------------------------------------------------===//

#include "cache/Store.h"

#include "align/Pipeline.h"
#include "analysis/PipelineVerifier.h"
#include "profile/Trace.h"
#include "workloads/Generator.h"

#include "StageSpans.h"
#include "TempDir.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

using namespace balign;

namespace {

constexpr size_t NumProcs = 5;
constexpr size_t UnprofiledIndex = 2; ///< This procedure gets zero counts.
constexpr size_t ProfiledCount = NumProcs - 1;

struct Workload {
  Program Prog{"cache_pipeline"};
  ProgramProfile Train;
};

Workload makeWorkload(uint64_t Seed = 7) {
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
    Rng TraceRng(Seed * 131 + P);
    uint64_t Budget = P == UnprofiledIndex ? 0 : 350;
    W.Train.Procs.push_back(
        walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, Budget));
  }
  return W;
}

void expectProgramEq(const ProgramAlignment &A, const ProgramAlignment &B) {
  ASSERT_EQ(A.Procs.size(), B.Procs.size());
  for (size_t P = 0; P != A.Procs.size(); ++P) {
    const ProcedureAlignment &X = A.Procs[P];
    const ProcedureAlignment &Y = B.Procs[P];
    EXPECT_EQ(X.OriginalLayout.Order, Y.OriginalLayout.Order) << "proc " << P;
    EXPECT_EQ(X.GreedyLayout.Order, Y.GreedyLayout.Order) << "proc " << P;
    EXPECT_EQ(X.TspLayout.Order, Y.TspLayout.Order) << "proc " << P;
    EXPECT_EQ(X.OriginalPenalty, Y.OriginalPenalty) << "proc " << P;
    EXPECT_EQ(X.GreedyPenalty, Y.GreedyPenalty) << "proc " << P;
    EXPECT_EQ(X.TspPenalty, Y.TspPenalty) << "proc " << P;
    EXPECT_EQ(0, std::memcmp(&X.Bounds.HeldKarp, &Y.Bounds.HeldKarp,
                             sizeof(X.Bounds.HeldKarp)))
        << "proc " << P;
    EXPECT_EQ(X.Bounds.Assignment, Y.Bounds.Assignment) << "proc " << P;
    EXPECT_EQ(X.Bounds.AssignmentCycles, Y.Bounds.AssignmentCycles)
        << "proc " << P;
    EXPECT_EQ(X.SolverRuns, Y.SolverRuns) << "proc " << P;
    EXPECT_EQ(X.RunsFindingBest, Y.RunsFindingBest) << "proc " << P;
  }
}

} // namespace

TEST(CachePipelineTest, WarmMemoryRunDoesZeroSolverWork) {
  Workload W = makeWorkload();
  AlignmentOptions Options;
  Options.Cache = CacheMode::Memory;
  CacheSession Session(Options);
  ASSERT_NE(Session.cache(), nullptr);

  TracedAlignment Cold = alignTraced(W.Prog, W.Train, Options);
  CacheStats ColdStats = Session.stats();
  EXPECT_EQ(ColdStats.Hits, 0u);
  EXPECT_EQ(ColdStats.Misses, ProfiledCount); // Unprofiled never looked up.
  EXPECT_EQ(ColdStats.Stores, ProfiledCount);
  EXPECT_EQ(Cold.count("stage.solve"), ProfiledCount);

  TracedAlignment Warm = alignTraced(W.Prog, W.Train, Options);
  CacheStats WarmStats = Session.stats();
  EXPECT_EQ(WarmStats.Hits, ProfiledCount);
  EXPECT_EQ(WarmStats.Misses, ProfiledCount); // Unchanged from the cold run.

  // The acceptance bar: a warm run performs zero solver invocations —
  // no stage runs at all, so no stage span is recorded.
  EXPECT_EQ(Warm.stageSpans(), 0u);

  expectProgramEq(Cold.Result, Warm.Result);
}

TEST(CachePipelineTest, OffModeSessionIsInert) {
  Workload W = makeWorkload();
  AlignmentOptions Options; // Cache == Off.
  CacheSession Session(Options);
  EXPECT_EQ(Session.cache(), nullptr);
  EXPECT_EQ(Options.CacheImpl, nullptr);
  ProgramAlignment Result = alignProgram(W.Prog, W.Train, Options);
  EXPECT_EQ(Result.Procs.size(), NumProcs);
  CacheStats S = Session.stats();
  EXPECT_EQ(S.Hits + S.Misses + S.Stores, 0u);
  EXPECT_TRUE(Session.flush());
}

TEST(CachePipelineTest, EnablingCacheWithoutSessionIsFatal) {
  Workload W = makeWorkload();
  AlignmentOptions Options;
  Options.Cache = CacheMode::Memory; // But no CacheSession attached.
  EXPECT_DEATH(alignProgram(W.Prog, W.Train, Options),
               "pipeline.cache-not-attached");
}

TEST(CachePipelineTest, ColdWarmSerialParallelAllBitIdentical) {
  Workload W = makeWorkload();
  TempDir Dir("cachepipe_matrix");

  AlignmentOptions Baseline; // No cache, serial: the reference result.
  ProgramAlignment Reference = alignProgram(W.Prog, W.Train, Baseline);

  // Cold disk run, serial; the session destructor flushes the store.
  {
    AlignmentOptions Options;
    Options.Cache = CacheMode::Disk;
    Options.CachePath = Dir.path();
    CacheSession Session(Options);
    TracedAlignment Cold = alignTraced(W.Prog, W.Train, Options);
    EXPECT_EQ(Cold.count("stage.solve"), ProfiledCount);
    expectProgramEq(Reference, Cold.Result);
  }
  ASSERT_TRUE(std::filesystem::exists(
      Dir / AlignmentCache::StoreFileName));

  // Warm runs from a fresh process-equivalent (new session, reloaded
  // store), serial and parallel.
  for (unsigned Threads : {1u, 8u}) {
    AlignmentOptions Options;
    Options.Cache = CacheMode::Disk;
    Options.CachePath = Dir.path();
    Options.Threads = Threads;
    CacheSession Session(Options);
    TracedAlignment Warm = alignTraced(W.Prog, W.Train, Options);
    CacheStats S = Session.stats();
    EXPECT_EQ(S.Hits, ProfiledCount) << "threads=" << Threads;
    EXPECT_EQ(S.Misses, 0u) << "threads=" << Threads;
    EXPECT_EQ(Warm.stageSpans(), 0u) << "threads=" << Threads;
    expectProgramEq(Reference, Warm.Result);
  }

  // And a parallel *cold* run into a fresh directory matches too.
  {
    TempDir Dir2("cachepipe_matrix_par");
    AlignmentOptions Options;
    Options.Cache = CacheMode::Disk;
    Options.CachePath = Dir2.path();
    Options.Threads = 8;
    CacheSession Session(Options);
    ProgramAlignment Cold = alignProgram(W.Prog, W.Train, Options);
    EXPECT_EQ(Session.stats().Misses, ProfiledCount);
    expectProgramEq(Reference, Cold);
  }
}

TEST(CachePipelineTest, VerificationHooksBypassLookupsButWarmTheCache) {
  Workload W = makeWorkload();
  AlignmentOptions Options;
  Options.Cache = CacheMode::Memory;
  CacheSession Session(Options);

  size_t SolvesSeen = 0;
  Options.AfterProcedure = [&](size_t, const Procedure &,
                               const ProcedureProfile &,
                               const ProcedureAlignment &,
                               const SolveArtifacts *Artifacts) {
    SolvesSeen += Artifacts != nullptr;
  };

  TracedAlignment First = alignTraced(W.Prog, W.Train, Options);
  EXPECT_EQ(SolvesSeen, ProfiledCount);
  EXPECT_EQ(First.count("stage.solve"), ProfiledCount);
  ProgramAlignment Second = alignProgram(W.Prog, W.Train, Options);
  EXPECT_EQ(SolvesSeen, 2 * ProfiledCount); // The hook saw real solves twice.
  CacheStats Hooked = Session.stats();
  EXPECT_EQ(Hooked.Hits, 0u); // Lookups were bypassed...
  EXPECT_EQ(Hooked.Stores, 2 * ProfiledCount); // ...but stores refreshed.
  expectProgramEq(First.Result, Second);

  // Dropping the hook re-enables lookups against the store the verified
  // runs populated.
  Options.AfterProcedure = nullptr;
  TracedAlignment Warm = alignTraced(W.Prog, W.Train, Options);
  EXPECT_EQ(Session.stats().Hits, ProfiledCount);
  EXPECT_EQ(Warm.stageSpans(), 0u);
  expectProgramEq(First.Result, Warm.Result);
}

TEST(CachePipelineTest, AfterProcedureHookFiresForEveryProcedureOnAWarmCache) {
  Workload W = makeWorkload();
  AlignmentOptions Options;
  Options.Cache = CacheMode::Memory;
  CacheSession Session(Options);

  // The cold run warms the cache.
  TracedAlignment Cold = alignTraced(W.Prog, W.Train, Options);
  EXPECT_EQ(Cold.count("stage.solve"), ProfiledCount);

  // A warm cache is not consulted while the hook is set: every profiled
  // procedure solves again, so the hook sees its real artifacts.
  std::vector<size_t> SeenIndices;
  std::vector<bool> SeenArtifacts;
  Options.AfterProcedure = [&](size_t ProcIndex, const Procedure &,
                               const ProcedureProfile &,
                               const ProcedureAlignment &Result,
                               const SolveArtifacts *Artifacts) {
    SeenIndices.push_back(ProcIndex);
    SeenArtifacts.push_back(Artifacts != nullptr);
    if (Artifacts) {
      EXPECT_EQ(Artifacts->Solution.NumRuns, Result.SolverRuns);
    }
  };
  TracedAlignment Hooked = alignTraced(W.Prog, W.Train, Options);
  EXPECT_EQ(Session.stats().Hits, 0u);
  EXPECT_EQ(Hooked.count("stage.solve"), ProfiledCount);
  expectProgramEq(Cold.Result, Hooked.Result);
  ASSERT_EQ(SeenIndices.size(), NumProcs); // Fires for every procedure,
  for (size_t P = 0; P != NumProcs; ++P) { // in program order, with
    EXPECT_EQ(SeenIndices[P], P);          // artifacts for the solved ones.
    EXPECT_EQ(SeenArtifacts[P], P != UnprofiledIndex);
  }
}

TEST(CachePipelineTest, CorruptStoreFallsBackToIdenticalRecompute) {
  Workload W = makeWorkload();
  TempDir Dir("cachepipe_corrupt");

  AlignmentOptions Baseline;
  ProgramAlignment Reference = alignProgram(W.Prog, W.Train, Baseline);

  {
    AlignmentOptions Options;
    Options.Cache = CacheMode::Disk;
    Options.CachePath = Dir.path();
    CacheSession Session(Options);
    alignProgram(W.Prog, W.Train, Options);
  }

  // Flip one byte somewhere in the first entry's payload.
  std::string Path = Dir / AlignmentCache::StoreFileName;
  std::vector<uint8_t> File;
  {
    std::ifstream In(Path, std::ios::binary);
    ASSERT_TRUE(In.good());
    File.assign((std::istreambuf_iterator<char>(In)),
                std::istreambuf_iterator<char>());
  }
  ASSERT_GT(File.size(), 64u);
  File[40] ^= 0x55;
  {
    std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
    Out.write(reinterpret_cast<const char *>(File.data()),
              static_cast<std::streamsize>(File.size()));
  }

  AlignmentOptions Options;
  Options.Cache = CacheMode::Disk;
  Options.CachePath = Dir.path();
  CacheSession Session(Options);
  ProgramAlignment Warm = alignProgram(W.Prog, W.Train, Options);
  CacheStats S = Session.stats();
  EXPECT_GE(S.Invalidations, 1u);
  EXPECT_GE(S.Misses, 1u); // The corrupted entry was recomputed...
  EXPECT_EQ(S.Hits + S.Misses, ProfiledCount);
  expectProgramEq(Reference, Warm); // ...to a bit-identical result.

  // The recompute was re-stored; a fresh session sees a repaired store.
  ASSERT_TRUE(Session.flush());
  {
    AlignmentOptions Options2;
    Options2.Cache = CacheMode::Disk;
    Options2.CachePath = Dir.path();
    CacheSession Session2(Options2);
    ProgramAlignment Repaired = alignProgram(W.Prog, W.Train, Options2);
    EXPECT_EQ(Session2.stats().Hits, ProfiledCount);
    EXPECT_EQ(Session2.stats().Invalidations, 0u);
    expectProgramEq(Reference, Repaired);
  }
}

TEST(CachePipelineTest, VerifiedPipelineAgreesWithWarmCache) {
  Workload W = makeWorkload();
  AlignmentOptions Options;
  Options.Cache = CacheMode::Memory;
  CacheSession Session(Options);

  // alignProgramVerified installs the procedure hook, so it always observes
  // (and fully checks) real solves while still warming the cache.
  DiagnosticEngine Diags;
  ProgramAlignment Verified =
      alignProgramVerified(W.Prog, W.Train, Options, Diags);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Session.stats().Hits, 0u);
  EXPECT_EQ(Session.stats().Stores, ProfiledCount);

  ProgramAlignment Warm = alignProgram(W.Prog, W.Train, Options);
  EXPECT_EQ(Session.stats().Hits, ProfiledCount);
  expectProgramEq(Verified, Warm);
}

TEST(CachePipelineTest, ProfileChangeInvalidatesExactlyThatProcedure) {
  Workload W = makeWorkload();
  AlignmentOptions Options;
  Options.Cache = CacheMode::Memory;
  CacheSession Session(Options);
  alignProgram(W.Prog, W.Train, Options);

  // Perturb one profiled procedure's hottest edge count.
  ProgramProfile Retrained = W.Train;
  for (auto &Edges : Retrained.Procs[0].EdgeCounts)
    for (auto &C : Edges)
      C += 1;
  for (auto &C : Retrained.Procs[0].BlockCounts)
    C += 1;

  CacheStats Before = Session.stats();
  alignProgram(W.Prog, Retrained, Options);
  CacheStats After = Session.stats();
  EXPECT_EQ(After.Hits - Before.Hits, ProfiledCount - 1);
  EXPECT_EQ(After.Misses - Before.Misses, 1u);
}
