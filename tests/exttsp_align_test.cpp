//===- tests/exttsp_align_test.cpp - ExtTspAligner contract tests ---------===//
//
// The chain-merging aligner's end-to-end contracts: layouts are valid
// permutations with the entry first, the merge heuristic never scores
// below the greedy chain builder on its own objective, the pipeline's
// PrimaryAligner::ExtTsp path is bit-deterministic across thread counts
// (with the verification hook watching), warm caches replay it
// bit-identically with zero chain-merge work, and the cache fingerprint
// keys every objective parameter (and nothing solver-related, since the
// chain merger never consults the annealer).
//
//===--------------------------------------------------------------------===//

#include "align/Aligners.h"

#include "align/Pipeline.h"
#include "analysis/PipelineVerifier.h"
#include "cache/Fingerprint.h"
#include "cache/Store.h"
#include "objective/Objective.h"
#include "profile/Trace.h"
#include "workloads/Generator.h"

#include "StageSpans.h"
#include "TempDir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

using namespace balign;

namespace {

struct Workload {
  Program Prog{"exttsp_align"};
  ProgramProfile Train;
};

Workload makeWorkload(uint64_t Seed = 11, size_t NumProcs = 6) {
  Workload W;
  for (size_t P = 0; P != NumProcs; ++P) {
    Rng R(Seed * 257 + P);
    GenParams Params;
    Params.TargetBranchSites = 3 + P % 6;
    W.Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  for (size_t P = 0; P != NumProcs; ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    Rng TraceRng(Seed * 131 + P);
    W.Train.Procs.push_back(walkProfile(Proc, BranchBehavior::uniform(Proc),
                                        TraceRng, 400));
  }
  return W;
}

void expectProgramEq(const ProgramAlignment &A, const ProgramAlignment &B) {
  ASSERT_EQ(A.Procs.size(), B.Procs.size());
  for (size_t P = 0; P != A.Procs.size(); ++P) {
    EXPECT_EQ(A.Procs[P].TspLayout.Order, B.Procs[P].TspLayout.Order)
        << "proc " << P;
    EXPECT_EQ(A.Procs[P].GreedyLayout.Order, B.Procs[P].GreedyLayout.Order)
        << "proc " << P;
    EXPECT_EQ(A.Procs[P].TspPenalty, B.Procs[P].TspPenalty) << "proc " << P;
    EXPECT_EQ(A.Procs[P].GreedyPenalty, B.Procs[P].GreedyPenalty)
        << "proc " << P;
  }
}

} // namespace

//===--------------------------------------------------------------------===//
// Layout validity
//===--------------------------------------------------------------------===//

TEST(ExtTspAlignTest, LayoutsAreValidEntryFirstPermutations) {
  MachineModel Model = MachineModel::alpha21164();
  ExtTspAligner Chains;
  for (uint64_t Seed : {3u, 19u, 101u, 977u}) {
    Workload W = makeWorkload(Seed);
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
      const Procedure &Proc = W.Prog.proc(P);
      Layout L = Chains.align(Proc, W.Train.Procs[P], Model);
      EXPECT_TRUE(L.isValid(Proc)) << "seed " << Seed << " proc " << P;
      ASSERT_FALSE(L.Order.empty());
      EXPECT_EQ(L.Order.front(), 0u) << "entry must stay first";
    }
  }
}

//===--------------------------------------------------------------------===//
// Quality floor: never below greedy on the optimized objective
//===--------------------------------------------------------------------===//

TEST(ExtTspAlignTest, NeverScoresBelowGreedyOnExtTspObjective) {
  MachineModel Model = MachineModel::alpha21164();
  ExtTspObjective Obj(Model);
  ExtTspAligner Chains;
  GreedyAligner Greedy;
  size_t Procs = 0, Wins = 0;
  for (uint64_t Seed : {5u, 23u, 71u, 311u, 1213u}) {
    Workload W = makeWorkload(Seed);
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
      const Procedure &Proc = W.Prog.proc(P);
      const ProcedureProfile &Train = W.Train.Procs[P];
      double ChainScore =
          Obj.scoreLayout(Proc, Train, Chains.align(Proc, Train, Model));
      double GreedyScore =
          Obj.scoreLayout(Proc, Train, Greedy.align(Proc, Train, Model));
      EXPECT_GE(ChainScore, GreedyScore - 1e-9)
          << "seed " << Seed << " proc " << P;
      ++Procs;
      if (ChainScore > GreedyScore + 1e-9)
        ++Wins;
    }
  }
  // Not a tautology: strictly better somewhere, or the merger is dead
  // weight. (The >=80% acceptance bar lives in bench/exttsp_compare.)
  EXPECT_GT(Wins, Procs / 4) << Wins << " strict wins of " << Procs;
}

//===--------------------------------------------------------------------===//
// Determinism matrix: threads x verify hook
//===--------------------------------------------------------------------===//

TEST(ExtTspAlignTest, PipelineBitIdenticalAcrossThreadCountsUnderVerify) {
  Workload W = makeWorkload(29, 8);
  ProgramAlignment Baseline;
  bool HaveBaseline = false;
  for (unsigned Threads : {1u, 2u, 8u}) {
    AlignmentOptions Options;
    Options.Primary = PrimaryAligner::ExtTsp;
    Options.Threads = Threads;
    Options.ComputeBounds = true;
    DiagnosticEngine Diags;
    ProgramAlignment Result =
        alignProgramVerified(W.Prog, W.Train, Options, Diags);
    EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
    if (!HaveBaseline) {
      Baseline = std::move(Result);
      HaveBaseline = true;
    } else {
      expectProgramEq(Baseline, Result);
    }
  }
}

TEST(ExtTspAlignTest, ObjectiveChoiceChangesResultsDeterministically) {
  Workload W = makeWorkload(41, 6);
  auto runWith = [&](ObjectiveKind Kind) {
    AlignmentOptions Options;
    Options.Primary = PrimaryAligner::ExtTsp;
    Options.Objective = Kind;
    return alignProgram(W.Prog, W.Train, Options);
  };
  ProgramAlignment ExtA = runWith(ObjectiveKind::ExtTsp);
  ProgramAlignment ExtB = runWith(ObjectiveKind::ExtTsp);
  ProgramAlignment Fall = runWith(ObjectiveKind::Fallthrough);
  expectProgramEq(ExtA, ExtB);
  // The fallthrough-objective run is itself deterministic...
  expectProgramEq(Fall, runWith(ObjectiveKind::Fallthrough));
  // ...and the two objectives disagree somewhere on a workload this
  // size (they optimize different things).
  bool AnyDifference = false;
  for (size_t P = 0; P != ExtA.Procs.size(); ++P)
    AnyDifference |=
        ExtA.Procs[P].TspLayout.Order != Fall.Procs[P].TspLayout.Order;
  EXPECT_TRUE(AnyDifference);
}

//===--------------------------------------------------------------------===//
// Warm cache replays the chain merger bit-identically
//===--------------------------------------------------------------------===//

TEST(ExtTspAlignTest, WarmCacheReplaysExtTspWithZeroChainWork) {
  Workload W = makeWorkload(53);
  AlignmentOptions Options;
  Options.Primary = PrimaryAligner::ExtTsp;
  Options.Cache = CacheMode::Memory;
  CacheSession Session(Options);
  ASSERT_NE(Session.cache(), nullptr);

  TracedAlignment Cold = alignTraced(W.Prog, W.Train, Options);
  CacheStats ColdStats = Session.stats();
  EXPECT_EQ(ColdStats.Hits, 0u);
  EXPECT_EQ(ColdStats.Stores, W.Prog.numProcedures()); // All profiled.
  EXPECT_EQ(Cold.count("stage.chain"), W.Prog.numProcedures());
  EXPECT_EQ(Cold.count("stage.solve"), 0u);

  TracedAlignment Warm = alignTraced(W.Prog, W.Train, Options);
  CacheStats WarmStats = Session.stats();
  EXPECT_EQ(WarmStats.Hits, ColdStats.Stores);
  // The chain merger runs under the stage.chain span; a warm run must
  // never invoke it, nor any other stage.
  EXPECT_EQ(Warm.stageSpans(), 0u);
  expectProgramEq(Cold.Result, Warm.Result);
}

//===--------------------------------------------------------------------===//
// Fingerprints key the objective parameters
//===--------------------------------------------------------------------===//

TEST(ExtTspAlignTest, FingerprintKeysEveryObjectiveParameter) {
  Workload W = makeWorkload(67, 1);
  const Procedure &Proc = W.Prog.proc(0);
  const ProcedureProfile &Train = W.Train.Procs[0];

  AlignmentOptions Base;
  Base.Primary = PrimaryAligner::ExtTsp;
  Fingerprint F = fingerprintProcedureInputs(Proc, Train, Base, 0);

  AlignmentOptions Tsp = Base;
  Tsp.Primary = PrimaryAligner::Tsp;
  EXPECT_NE(F, fingerprintProcedureInputs(Proc, Train, Tsp, 0));

  AlignmentOptions Objective = Base;
  Objective.Objective = ObjectiveKind::Fallthrough;
  EXPECT_NE(F, fingerprintProcedureInputs(Proc, Train, Objective, 0));

  AlignmentOptions FwdWin = Base;
  FwdWin.Model.ExtTspForwardWindow += 64;
  EXPECT_NE(F, fingerprintProcedureInputs(Proc, Train, FwdWin, 0));

  AlignmentOptions BwdWin = Base;
  BwdWin.Model.ExtTspBackwardWindow += 64;
  EXPECT_NE(F, fingerprintProcedureInputs(Proc, Train, BwdWin, 0));

  AlignmentOptions FwdW = Base;
  FwdW.Model.ExtTspForwardWeight = 0.25;
  EXPECT_NE(F, fingerprintProcedureInputs(Proc, Train, FwdW, 0));

  AlignmentOptions BwdW = Base;
  BwdW.Model.ExtTspBackwardWeight = 0.25;
  EXPECT_NE(F, fingerprintProcedureInputs(Proc, Train, BwdW, 0));
}

TEST(ExtTspAlignTest, FingerprintIgnoresSolverOptionsUnderExtTsp) {
  Workload W = makeWorkload(71, 1);
  const Procedure &Proc = W.Prog.proc(0);
  const ProcedureProfile &Train = W.Train.Procs[0];

  AlignmentOptions Ext;
  Ext.Primary = PrimaryAligner::ExtTsp;
  Fingerprint F = fingerprintProcedureInputs(Proc, Train, Ext, 0);

  // The chain merger never consults the annealer, so its results are
  // seed-independent and the fingerprint must not churn on seeds —
  // that is what lets one warm cache serve every --seed.
  AlignmentOptions Seeded = Ext;
  Seeded.Solver.Seed = 0xfeedULL;
  EXPECT_EQ(F, fingerprintProcedureInputs(Proc, Train, Seeded, 0));

  // Under the DTSP primary the same seed change must churn the key.
  AlignmentOptions TspA, TspB;
  TspB.Solver.Seed = 0xfeedULL;
  EXPECT_NE(fingerprintProcedureInputs(Proc, Train, TspA, 0),
            fingerprintProcedureInputs(Proc, Train, TspB, 0));

  // Symmetrically, Ext-TSP windows are irrelevant to (and must not
  // churn) a DTSP-primary key.
  AlignmentOptions TspWin;
  TspWin.Model.ExtTspForwardWindow += 64;
  EXPECT_EQ(fingerprintProcedureInputs(Proc, Train, TspA, 0),
            fingerprintProcedureInputs(Proc, Train, TspWin, 0));
}

TEST(ExtTspAlignTest, DiskCacheColdWarmBitIdenticalAndVersionGuarded) {
  Workload W = makeWorkload(83);
  TempDir Dir("exttsp_cache");

  AlignmentOptions Options;
  Options.Primary = PrimaryAligner::ExtTsp;
  Options.Cache = CacheMode::Disk;
  Options.CachePath = Dir.path();

  ProgramAlignment Cold;
  {
    CacheSession Session(Options);
    TracedAlignment Run = alignTraced(W.Prog, W.Train, Options);
    EXPECT_EQ(Run.count("stage.chain"), W.Prog.numProcedures());
    Cold = std::move(Run.Result);
    ASSERT_TRUE(Session.flush());
  }
  // A fresh session over the same directory replays from disk.
  {
    AlignmentOptions Reopened = Options;
    CacheSession Session(Reopened);
    TracedAlignment Warm = alignTraced(W.Prog, W.Train, Reopened);
    EXPECT_EQ(Session.stats().Hits, W.Prog.numProcedures());
    EXPECT_EQ(Warm.stageSpans(), 0u);
    expectProgramEq(Cold, Warm.Result);
  }
  // Corrupt the store's version field: the whole store is discarded
  // (stale-format entries must never replay) and results recompute
  // bit-identically.
  std::string StoreFile = Dir / AlignmentCache::StoreFileName;
  {
    std::ifstream In(StoreFile, std::ios::binary);
    ASSERT_TRUE(In.good());
    std::vector<char> Bytes((std::istreambuf_iterator<char>(In)),
                            std::istreambuf_iterator<char>());
    uint32_t Stale = CacheFormatVersion - 1;
    ASSERT_GE(Bytes.size(), size_t(12));
    std::memcpy(Bytes.data() + 8, &Stale, sizeof(Stale));
    std::ofstream Out(StoreFile, std::ios::binary | std::ios::trunc);
    Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  }
  {
    AlignmentOptions Reopened = Options;
    CacheSession Session(Reopened);
    ProgramAlignment Recomputed = alignProgram(W.Prog, W.Train, Reopened);
    EXPECT_EQ(Session.stats().Hits, 0u);
    expectProgramEq(Cold, Recomputed);
  }
}
