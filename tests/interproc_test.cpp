//===- tests/interproc_test.cpp - Interprocedural placement tests -------------===//

#include "interproc/Interleave.h"
#include "interproc/Placement.h"
#include "interproc/ProcOrder.h"
#include "profile/Trace.h"
#include "sim/Replayer.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace balign;

namespace {

bool isPermutation(const ProcOrder &Order, size_t N) {
  if (Order.size() != N)
    return false;
  std::vector<bool> Seen(N, false);
  for (size_t P : Order) {
    if (P >= N || Seen[P])
      return false;
    Seen[P] = true;
  }
  return true;
}

/// A small program plus traces for placement tests.
struct PlacementFixture {
  Program Prog{"place"};
  std::vector<MaterializedLayout> Mats;
  std::vector<ExecutionTrace> Traces;
  MachineModel Model = MachineModel::alpha21164();

  explicit PlacementFixture(size_t NumProcs, uint64_t Seed = 5,
                            uint64_t Budget = 150) {
    for (size_t P = 0; P != NumProcs; ++P) {
      Rng StructureRng(Seed * 31 + P);
      GenParams Params;
      Params.TargetBranchSites = 4;
      GeneratedProcedure Gen =
          generateProcedure("p" + std::to_string(P), Params, StructureRng);
      Prog.addProcedure(Gen.Proc);
    }
    for (size_t P = 0; P != NumProcs; ++P) {
      const Procedure &Proc = Prog.proc(P);
      Rng TraceRng(Seed * 57 + P);
      Traces.emplace_back();
      ProcedureProfile Profile =
          walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, Budget,
                      &Traces.back());
      Mats.push_back(materializeLayout(Proc, Layout::original(Proc),
                                       Profile, Model));
    }
  }
};

} // namespace

TEST(InterleaveTest, ConsumesEveryInvocation) {
  std::vector<uint64_t> Counts = {5, 0, 12, 3};
  InterleaveOptions Options;
  CallSequence Sequence = generateCallSequence(Counts, Options);
  EXPECT_EQ(Sequence.size(), 20u);
  std::vector<uint64_t> Seen(4, 0);
  for (size_t P : Sequence) {
    ASSERT_LT(P, 4u);
    ++Seen[P];
  }
  EXPECT_EQ(Seen[0], 5u);
  EXPECT_EQ(Seen[1], 0u);
  EXPECT_EQ(Seen[2], 12u);
  EXPECT_EQ(Seen[3], 3u);
}

TEST(InterleaveTest, DeterministicForSeed) {
  std::vector<uint64_t> Counts = {10, 20, 30};
  InterleaveOptions Options;
  EXPECT_EQ(generateCallSequence(Counts, Options),
            generateCallSequence(Counts, Options));
}

TEST(InterleaveTest, BurstsKeepProceduresTogether) {
  std::vector<uint64_t> Counts = {500, 500};
  InterleaveOptions Bursty;
  Bursty.BurstLength = 16.0;
  InterleaveOptions Choppy;
  Choppy.BurstLength = 1.0;
  auto Switches = [](const CallSequence &S) {
    size_t N = 0;
    for (size_t I = 0; I + 1 < S.size(); ++I)
      N += S[I] != S[I + 1];
    return N;
  };
  EXPECT_LT(Switches(generateCallSequence(Counts, Bursty)),
            Switches(generateCallSequence(Counts, Choppy)));
}

TEST(AffinityTest, CountsWindowedCoOccurrence) {
  CallSequence Sequence = {0, 1, 0, 1, 2};
  auto Affinity = computeAffinity(Sequence, 3, /*Window=*/1);
  EXPECT_EQ(Affinity[0][1], 3u); // Adjacent pairs (0,1),(1,0),(0,1).
  EXPECT_EQ(Affinity[1][0], Affinity[0][1]);
  EXPECT_EQ(Affinity[1][2], 1u);
  EXPECT_EQ(Affinity[0][2], 0u);
  EXPECT_EQ(Affinity[0][0], 0u); // Self-affinity excluded.
}

TEST(ProcOrderTest, BaselinesArePermutations) {
  EXPECT_EQ(originalProcOrder(4), (ProcOrder{0, 1, 2, 3}));
  ProcOrder Random = randomProcOrder(20, 7);
  EXPECT_TRUE(isPermutation(Random, 20));
  EXPECT_NE(Random, originalProcOrder(20));
}

TEST(ProcOrderTest, PettisHansenChainsHeaviestPair) {
  // Affinity: 0-1 heavy, 2-3 medium, others zero.
  std::vector<std::vector<uint64_t>> Affinity(4,
                                              std::vector<uint64_t>(4, 0));
  Affinity[0][1] = Affinity[1][0] = 100;
  Affinity[2][3] = Affinity[3][2] = 40;
  ProcOrder Order = pettisHansenOrder(Affinity);
  ASSERT_TRUE(isPermutation(Order, 4));
  auto PosOf = [&](size_t P) {
    return std::find(Order.begin(), Order.end(), P) - Order.begin();
  };
  EXPECT_EQ(std::abs(PosOf(0) - PosOf(1)), 1);
  EXPECT_EQ(std::abs(PosOf(2) - PosOf(3)), 1);
  // The heavy chain leads.
  EXPECT_LT(std::min(PosOf(0), PosOf(1)), std::min(PosOf(2), PosOf(3)));
}

TEST(ProcOrderTest, PettisHansenReversesChainsToKeepEndpointsAdjacent) {
  // Weights force the chain (0,1) first; then edge (0,2) arrives while 0
  // sits at the chain's *front*, so PH must reverse (0,1) -> (1,0)
  // before appending 2: final order keeps both heavy pairs adjacent.
  std::vector<std::vector<uint64_t>> Affinity(3,
                                              std::vector<uint64_t>(3, 0));
  Affinity[0][1] = Affinity[1][0] = 100;
  Affinity[0][2] = Affinity[2][0] = 60;
  ProcOrder Order = pettisHansenOrder(Affinity);
  ASSERT_TRUE(isPermutation(Order, 3));
  EXPECT_EQ(adjacentAffinity(Order, Affinity), 160u)
      << "both heavy adjacencies must be realized";
}

TEST(ProcOrderTest, TspOrderMaximizesAdjacencyAtLeastAsWellAsPh) {
  Rng Rand(99);
  size_t N = 12;
  std::vector<std::vector<uint64_t>> Affinity(N,
                                              std::vector<uint64_t>(N, 0));
  for (size_t A = 0; A != N; ++A)
    for (size_t B = A + 1; B != N; ++B)
      Affinity[A][B] = Affinity[B][A] = Rand.nextBelow(100);

  ProcOrder Ph = pettisHansenOrder(Affinity);
  ProcOrder Tsp = tspOrder(Affinity);
  ASSERT_TRUE(isPermutation(Ph, N));
  ASSERT_TRUE(isPermutation(Tsp, N));
  EXPECT_GE(adjacentAffinity(Tsp, Affinity), adjacentAffinity(Ph, Affinity));
  EXPECT_GT(adjacentAffinity(Tsp, Affinity),
            adjacentAffinity(originalProcOrder(N), Affinity));
}

TEST(ReplayerTest, InvocationSlicesPartitionTrace) {
  PlacementFixture F(1);
  auto Slices = invocationSlices(F.Prog.proc(0), F.Traces[0]);
  ASSERT_FALSE(Slices.empty());
  size_t Expect = 0;
  for (auto [Begin, End] : Slices) {
    EXPECT_EQ(Begin, Expect);
    EXPECT_LT(Begin, End);
    Expect = End;
    // Every slice starts at the entry block.
    EXPECT_EQ(F.Traces[0].Blocks[Begin], F.Prog.proc(0).entry());
  }
  EXPECT_EQ(Expect, F.Traces[0].Blocks.size());
  EXPECT_EQ(Slices.size(), F.Traces[0].Invocations);
}

TEST(PlacementTest, BasesFollowOrderAndAreDisjoint) {
  PlacementFixture F(3);
  ProcOrder Order = {2, 0, 1};
  std::vector<uint64_t> Bases = placementBases(F.Mats, Order, 32);
  EXPECT_EQ(Bases[2], 0u);
  EXPECT_GT(Bases[0], 0u);
  EXPECT_GE(Bases[1], Bases[0] + F.Mats[0].TotalBytes);
  for (uint64_t B : Bases)
    EXPECT_EQ(B % 32, 0u);
}

TEST(PlacementTest, InterleavedTotalsMatchSequentialCycles) {
  // Control penalties and base cycles are order- and interleaving-
  // independent; only cache behavior changes.
  PlacementFixture F(4);
  std::vector<uint64_t> Counts = invocationCounts(F.Prog, F.Traces);
  InterleaveOptions IOptions;
  CallSequence Sequence = generateCallSequence(Counts, IOptions);

  SimConfig Config;
  SimResult Sequential = simulateProgram(F.Prog, F.Mats, F.Traces, Config);
  SimResult Interleaved = simulatePlacement(
      F.Prog, F.Mats, F.Traces, Sequence, originalProcOrder(4), Config);
  EXPECT_EQ(Interleaved.BaseCycles, Sequential.BaseCycles);
  EXPECT_EQ(Interleaved.ControlPenaltyCycles,
            Sequential.ControlPenaltyCycles);
  EXPECT_EQ(Interleaved.FixupsExecuted, Sequential.FixupsExecuted);
}

TEST(PlacementTest, OrderAffectsCacheMissesOnly) {
  PlacementFixture F(6, /*Seed=*/11, /*Budget=*/400);
  std::vector<uint64_t> Counts = invocationCounts(F.Prog, F.Traces);
  InterleaveOptions IOptions;
  CallSequence Sequence = generateCallSequence(Counts, IOptions);

  SimConfig Config;
  Config.Cache.SizeBytes = 512; // Tiny: force conflicts.
  SimResult A = simulatePlacement(F.Prog, F.Mats, F.Traces, Sequence,
                                  originalProcOrder(6), Config);
  SimResult B = simulatePlacement(F.Prog, F.Mats, F.Traces, Sequence,
                                  randomProcOrder(6, 3), Config);
  EXPECT_EQ(A.BaseCycles, B.BaseCycles);
  EXPECT_EQ(A.ControlPenaltyCycles, B.ControlPenaltyCycles);
  // Different placements conflict differently (statistically certain at
  // this cache size; both remain internally consistent).
  EXPECT_EQ(A.Cycles,
            A.BaseCycles + A.ControlPenaltyCycles + A.CacheMissCycles);
  EXPECT_NE(A.CacheMisses, B.CacheMisses);
}
