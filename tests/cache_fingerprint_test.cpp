//===- tests/cache_fingerprint_test.cpp - Cache fingerprint tests ----------===//

#include "cache/Fingerprint.h"

#include "ir/CFGBuilder.h"
#include "profile/Trace.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <set>

using namespace balign;

namespace {

Procedure genProc(uint64_t Seed, unsigned BranchSites = 6) {
  Rng R(Seed);
  GenParams Params;
  Params.TargetBranchSites = BranchSites;
  return generateProcedure("p", Params, R).Proc;
}

ProcedureProfile genProfile(const Procedure &Proc, uint64_t Seed,
                            uint64_t Budget = 500) {
  Rng TraceRng(Seed);
  return walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, Budget);
}

Fingerprint fp(const Procedure &Proc, const ProcedureProfile &Profile,
               const AlignmentOptions &Options, size_t Index = 0) {
  return fingerprintProcedureInputs(Proc, Profile, Options, Index);
}

} // namespace

TEST(CacheFingerprintTest, DeterministicAcrossCalls) {
  Procedure Proc = genProc(1);
  ProcedureProfile Profile = genProfile(Proc, 2);
  AlignmentOptions Options;
  EXPECT_EQ(fp(Proc, Profile, Options), fp(Proc, Profile, Options));
}

TEST(CacheFingerprintTest, StreamingBoundariesDoNotMatter) {
  const char Data[] = "fingerprint-stream";
  Hasher Whole;
  Whole.bytes(Data, sizeof(Data));
  Hasher Split;
  Split.bytes(Data, 5);
  Split.bytes(Data + 5, sizeof(Data) - 5);
  EXPECT_EQ(Whole.digest(), Split.digest());
}

TEST(CacheFingerprintTest, LengthPrefixedStringsAvoidConcatenationClash) {
  Hasher A, B;
  A.str("ab");
  A.str("c");
  B.str("a");
  B.str("bc");
  EXPECT_NE(A.digest(), B.digest());
}

TEST(CacheFingerprintTest, NamesAreDeliberatelyNotKeyed) {
  Procedure Proc = genProc(3);
  ProcedureProfile Profile = genProfile(Proc, 4);
  AlignmentOptions Options;
  Fingerprint Before = fp(Proc, Profile, Options);

  Procedure Renamed = Proc;
  Renamed.setName("completely_different");
  for (BlockId Id = 0; Id != Renamed.numBlocks(); ++Id)
    Renamed.block(Id).Name = "bb_" + std::to_string(Id * 7);
  EXPECT_EQ(Before, fp(Renamed, Profile, Options));
}

TEST(CacheFingerprintTest, CfgContentIsKeyed) {
  Procedure Proc = genProc(5);
  ProcedureProfile Profile = genProfile(Proc, 6);
  AlignmentOptions Options;
  Fingerprint Base = fp(Proc, Profile, Options);

  Procedure Grown = Proc;
  Grown.block(0).InstrCount += 1;
  EXPECT_NE(Base, fp(Grown, Profile, Options));
}

TEST(CacheFingerprintTest, ProfileCountsAreKeyed) {
  Procedure Proc = genProc(7);
  ProcedureProfile Profile = genProfile(Proc, 8);
  AlignmentOptions Options;
  Fingerprint Base = fp(Proc, Profile, Options);

  ProcedureProfile Bumped = Profile;
  Bumped.BlockCounts[0] += 1;
  EXPECT_NE(Base, fp(Proc, Bumped, Options));

  ProcedureProfile EdgeBumped = Profile;
  for (auto &Edges : EdgeBumped.EdgeCounts)
    if (!Edges.empty()) {
      Edges.back() += 1;
      break;
    }
  EXPECT_NE(Base, fp(Proc, EdgeBumped, Options));
}

TEST(CacheFingerprintTest, ResultAffectingOptionsAreKeyed) {
  Procedure Proc = genProc(9);
  ProcedureProfile Profile = genProfile(Proc, 10);
  AlignmentOptions Base;
  Fingerprint F = fp(Proc, Profile, Base);

  AlignmentOptions Model = Base;
  Model.Model = MachineModel::deepPipeline();
  EXPECT_NE(F, fp(Proc, Profile, Model));

  AlignmentOptions Seed = Base;
  Seed.Solver.Seed += 1;
  EXPECT_NE(F, fp(Proc, Profile, Seed));

  AlignmentOptions Effort = Base;
  Effort.Solver.IterationsFactor *= 2.0;
  EXPECT_NE(F, fp(Proc, Profile, Effort));

  AlignmentOptions Bounds = Base;
  Bounds.ComputeBounds = !Base.ComputeBounds;
  EXPECT_NE(F, fp(Proc, Profile, Bounds));

  // The derived seed makes the procedure's position part of the key.
  EXPECT_NE(fp(Proc, Profile, Base, 0), fp(Proc, Profile, Base, 1));
}

TEST(CacheFingerprintTest, HeldKarpOptionsKeyedOnlyWithBounds) {
  Procedure Proc = genProc(11);
  ProcedureProfile Profile = genProfile(Proc, 12);

  AlignmentOptions NoBounds;
  NoBounds.ComputeBounds = false;
  AlignmentOptions NoBoundsHk = NoBounds;
  NoBoundsHk.HeldKarp.Iterations = 777;
  EXPECT_EQ(fp(Proc, Profile, NoBounds), fp(Proc, Profile, NoBoundsHk));

  AlignmentOptions WithBounds;
  WithBounds.ComputeBounds = true;
  AlignmentOptions WithBoundsHk = WithBounds;
  WithBoundsHk.HeldKarp.Iterations = 777;
  EXPECT_NE(fp(Proc, Profile, WithBounds), fp(Proc, Profile, WithBoundsHk));
}

/// Keys recorded before the Held-Karp options lost their absolute
/// gap-stop field: hashHeldKarpOptions still absorbs the 0.0 that field
/// held, so every stored v5 key stays valid, with bounds and without.
TEST(CacheFingerprintTest, KeysMatchRecordedV5Keys) {
  Procedure Proc = genProc(11);
  ProcedureProfile Profile = genProfile(Proc, 12);
  AlignmentOptions WithBounds;
  WithBounds.ComputeBounds = true;
  AlignmentOptions NoBounds;
  NoBounds.ComputeBounds = false;
  EXPECT_EQ(fp(Proc, Profile, WithBounds).str(),
            "42f8fc08941154bc:0c3b1435cd4816bf");
  EXPECT_EQ(fp(Proc, Profile, NoBounds).str(),
            "0e7263f873999102:7b21a21a656bcc07");

  // The Ext-TSP and encoding blocks' bytes, each off its defaults, under
  // either primary: the keys the stores hold for those requests.
  AlignmentOptions ExtTsp = NoBounds;
  ExtTsp.Primary = PrimaryAligner::ExtTsp;
  ExtTsp.Objective = ObjectiveKind::Fallthrough;
  ExtTsp.Model.ExtTspForwardWindow = ExtTsp.Model.ExtTspBackwardWindow = 256;
  ExtTsp.Model.ExtTspForwardWeight = 0.25;
  ExtTsp.Model.ExtTspBackwardWeight = 0.5;
  auto shortLong = [](AlignmentOptions O) {
    O.Model.Encoding = BranchEncoding::ShortLong;
    O.Model.ShortBranchRange = 64;
    O.Model.LongBranchExtraInstrs = 2;
    O.Model.LongBranchPenalty = 3;
    return O;
  };
  EXPECT_EQ(fp(Proc, Profile, ExtTsp).str(),
            "6f0691dcc800525a:ebcd7a3c4d27e2ee");
  EXPECT_EQ(fp(Proc, Profile, shortLong(NoBounds)).str(),
            "4ee3e629813e2c47:18332152a908bc8b");
  EXPECT_EQ(fp(Proc, Profile, shortLong(ExtTsp)).str(),
            "47168677fbde3a12:daca1d5782222418");
  // The tsp primary with --encoding short-long at its default reach: the
  // Ext-TSP fields left set are inert there.
  AlignmentOptions TspShortLong = ExtTsp;
  TspShortLong.Primary = PrimaryAligner::Tsp;
  TspShortLong.Model.Encoding = BranchEncoding::ShortLong;
  EXPECT_EQ(fp(Proc, Profile, TspShortLong).str(),
            "c7723b066d39c160:0dfc25396f87a071");
}

TEST(CacheFingerprintTest, ThreadsAndHooksAreDeliberatelyNotKeyed) {
  Procedure Proc = genProc(13);
  ProcedureProfile Profile = genProfile(Proc, 14);
  AlignmentOptions Base;
  Fingerprint F = fp(Proc, Profile, Base);

  AlignmentOptions Threaded = Base;
  Threaded.Threads = 8;
  Threaded.AfterProcedure = [](size_t, const Procedure &,
                               const ProcedureProfile &,
                               const ProcedureAlignment &,
                               const SolveArtifacts *) {};
  Threaded.Cache = CacheMode::Memory;
  Threaded.CachePath = "/nonexistent";
  EXPECT_EQ(F, fp(Proc, Profile, Threaded));
}

TEST(CacheFingerprintTest, DistinctInputsGetDistinctDigests) {
  AlignmentOptions Options;
  std::set<std::string> Digests;
  const int N = 256;
  for (int I = 0; I != N; ++I) {
    Procedure Proc = genProc(1000 + I, 3 + I % 7);
    ProcedureProfile Profile = genProfile(Proc, 2000 + I);
    Digests.insert(fp(Proc, Profile, Options).str());
  }
  EXPECT_EQ(Digests.size(), static_cast<size_t>(N));
}

TEST(CacheFingerprintTest, NearbyInputsAvalanche) {
  Procedure Proc = genProc(15);
  ProcedureProfile Profile = genProfile(Proc, 16);
  AlignmentOptions A;
  AlignmentOptions B;
  B.Solver.Seed = A.Solver.Seed + 1;
  Fingerprint Fa = fp(Proc, Profile, A);
  Fingerprint Fb = fp(Proc, Profile, B);
  int Differing = __builtin_popcountll(Fa.Hi ^ Fb.Hi) +
                  __builtin_popcountll(Fa.Lo ^ Fb.Lo);
  // A one-bit input change should flip a substantial share of the 128
  // output bits; anything above a third is comfortably avalanched.
  EXPECT_GT(Differing, 42);
}
