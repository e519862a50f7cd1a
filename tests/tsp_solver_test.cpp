//===- tests/tsp_solver_test.cpp - Local search and iterated-3-Opt tests ------===//

#include "align/Pipeline.h"
#include "align/Reduction.h"
#include "objective/Layout.h"
#include "objective/Penalty.h"
#include "support/Hash.h"
#include "support/Random.h"
#include "tsp/Construct.h"
#include "tsp/Exact.h"
#include "tsp/Instance.h"
#include "tsp/IteratedOpt.h"
#include "tsp/LocalSearch.h"
#include "tsp/Transform.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

using namespace balign;

namespace {

DirectedTsp randomInstance(size_t N, uint64_t Seed, int64_t MaxCost = 100) {
  Rng R(Seed);
  DirectedTsp Dtsp(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        Dtsp.setCost(I, J, static_cast<int64_t>(R.nextBelow(MaxCost + 1)));
  return Dtsp;
}

/// Brute-force optimal directed tour cost (city 0 fixed), for N <= 9.
int64_t bruteForce(const DirectedTsp &D) {
  size_t N = D.numCities();
  std::vector<City> Perm(N - 1);
  std::iota(Perm.begin(), Perm.end(), 1);
  int64_t Best = INT64_MAX;
  do {
    std::vector<City> Tour;
    Tour.push_back(0);
    Tour.insert(Tour.end(), Perm.begin(), Perm.end());
    Best = std::min(Best, D.tourCost(Tour));
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return Best;
}

} // namespace

TEST(ExactTest, MatchesBruteForceOnRandomInstances) {
  for (uint64_t Seed = 1; Seed != 15; ++Seed) {
    size_t N = 2 + Seed % 6; // 2..7 cities.
    DirectedTsp D = randomInstance(N, Seed);
    std::vector<City> Tour;
    int64_t Cost = solveExactDirected(D, &Tour);
    EXPECT_EQ(Cost, bruteForce(D)) << "seed " << Seed;
    EXPECT_TRUE(isValidTour(Tour, N));
    EXPECT_EQ(D.tourCost(Tour), Cost);
  }
}

TEST(ExactTest, HandlesTrivialSizes) {
  DirectedTsp One(1);
  std::vector<City> Tour;
  EXPECT_EQ(solveExactDirected(One, &Tour), 0);
  EXPECT_EQ(Tour, std::vector<City>{0});

  DirectedTsp Two(2);
  Two.setCost(0, 1, 4);
  Two.setCost(1, 0, 9);
  EXPECT_EQ(solveExactDirected(Two, &Tour), 13);
}

TEST(LocalSearchTest, NeverWorsensAndStaysValid) {
  for (uint64_t Seed = 1; Seed != 8; ++Seed) {
    DirectedTsp D = randomInstance(15, Seed * 31);
    SymmetricTransform T = transformToSymmetric(D);
    PredecessorLists Candidates(D, 10);
    Rng R(Seed);
    std::vector<City> Dir = canonicalTour(15);
    R.shuffle(Dir);
    int64_t Before = D.tourCost(Dir);
    int64_t After = LocalSearch(D, Candidates).run(Dir);
    EXPECT_LE(After, Before);
    EXPECT_EQ(Dir.front(), 0u) << "result must start at city 0";
    std::vector<City> Sym = T.toSymmetricTour(Dir);
    EXPECT_TRUE(isValidTour(Sym, 30));
    // The expanded result keeps every pair edge, so it collapses back.
    std::vector<City> Back = T.toDirectedTour(Sym);
    EXPECT_EQ(Back, Dir);
    EXPECT_EQ(D.tourCost(Back), After);
    EXPECT_EQ(T.toDirectedCost(T.tourCost(Sym)), After);
  }
}

TEST(LocalSearchTest, ReachesTwoOptLocalOptimum) {
  DirectedTsp D = randomInstance(12, 99);
  SymmetricTransform T = transformToSymmetric(D);
  PredecessorLists Candidates(D, 23); // Full lists.
  std::vector<City> Dir = canonicalTour(12);
  LocalSearch(D, Candidates).run(Dir);
  std::vector<City> Sym = T.toSymmetricTour(Dir);
  int64_t Cost = T.tourCost(Sym);

  // No single 2-opt move may improve the result further.
  size_t N = Sym.size();
  for (size_t I = 0; I + 2 < N; ++I) {
    for (size_t J = I + 2; J < N; ++J) {
      if (I == 0 && J + 1 == N)
        continue;
      std::vector<City> Alt = Sym;
      std::reverse(Alt.begin() + I + 1, Alt.begin() + J + 1);
      EXPECT_GE(T.tourCost(Alt), Cost)
          << "improving 2-opt move left at (" << I << "," << J << ")";
    }
  }
}

TEST(LocalSearchTest, ReachesInsertionLocalOptimum) {
  // Under full candidate lists, no insertion of a segment of 1-6 cities
  // (at most half the tour) between two other adjacent cities improves
  // the result. Don't-look bits re-queue only the cities next to a move,
  // so one call may leave such an insertion elsewhere; a call that
  // changes nothing has evaluated every one, so search to that fixpoint.
  for (uint64_t Seed = 1; Seed != 7; ++Seed) {
    size_t N = 6 + 4 * Seed; // 10..30 cities.
    DirectedTsp D = randomInstance(N, Seed * 17, Seed % 2 ? 100 : 4);
    PredecessorLists Candidates(D, static_cast<unsigned>(N));
    Rng R(Seed);
    std::vector<City> Dir = canonicalTour(N);
    R.shuffle(Dir);
    LocalSearch Search(D, Candidates);
    int64_t Cost = 0;
    for (std::vector<City> Prev; Prev != Dir;) {
      Prev = Dir;
      Cost = Search.run(Dir);
    }
    for (size_t Start = 0; Start != N; ++Start) {
      for (size_t Len = 1; Len <= std::min<size_t>(6, N / 2); ++Len) {
        // Rotate the segment to the front; the rest keeps its order.
        std::vector<City> Rot(Dir.begin() + Start, Dir.end());
        Rot.insert(Rot.end(), Dir.begin(), Dir.begin() + Start);
        std::vector<City> Seg(Rot.begin(), Rot.begin() + Len);
        std::vector<City> Rest(Rot.begin() + Len, Rot.end());
        for (size_t After = 0; After + 1 < Rest.size(); ++After) {
          std::vector<City> Alt(Rest.begin(), Rest.begin() + After + 1);
          Alt.insert(Alt.end(), Seg.begin(), Seg.end());
          Alt.insert(Alt.end(), Rest.begin() + After + 1, Rest.end());
          EXPECT_GE(D.tourCost(Alt), Cost)
              << "N=" << N << ": improving insertion of " << Len
              << " cities from position " << Start;
        }
      }
    }
  }
}

namespace {

/// A random instance whose city 0 must lead into city 1, like the
/// alignment reduction's dummy and entry (Reduction.h): every other arc
/// out of city 0 costs more than any tour's real cost.
DirectedTsp entryPinnedInstance(size_t N, uint64_t Seed, int64_t MaxCost) {
  DirectedTsp D = randomInstance(N, Seed, MaxCost);
  int64_t Pin = MaxCost * static_cast<int64_t>(N) + 1;
  D.setCost(0, 1, 0);
  for (City J = 2; J != N; ++J)
    D.setCost(0, J, Pin);
  return D;
}

/// Directed delta of moving the segment Tour[0..Len) to sit after city
/// C, which must not be the tour's last city, from the arcs it replaces.
int64_t insertionDelta(const DirectedTsp &D, const std::vector<City> &Tour,
                       size_t Len, City C) {
  City A = Tour[0], S = Tour[Len - 1], P = Tour.back(), Next = Tour[Len];
  City Dst = *(std::find(Tour.begin(), Tour.end(), C) + 1);
  return D.cost(C, A) + D.cost(S, Dst) - D.cost(C, Dst) -
         (D.cost(P, A) + D.cost(S, Next) - D.cost(P, Next));
}

} // namespace

TEST(PairLockedMoveTest, OnlyForwardPairInsertionsCanImprove) {
  // The move lemma the directed search rests on: on a pair-locked
  // symmetric tour written in -> out, the only improving 2-opt or
  // Or-opt moves insert a segment of whole pairs, starting at an
  // in-city, forwards after an out-city — and each such move's delta is
  // the directed insertion delta.
  size_t Improving = 0;
  for (size_t N = 4; N <= 16; ++N) {
    for (int64_t MaxCost : {int64_t(3), int64_t(1000000)}) {
      DirectedTsp D = entryPinnedInstance(
          N, N * 101 + static_cast<uint64_t>(MaxCost % 7), MaxCost);
      SymmetricTransform T = transformToSymmetric(D);
      Rng R(N + static_cast<uint64_t>(MaxCost));
      std::vector<City> Dir = canonicalTour(N);
      R.shuffle(Dir);
      std::vector<City> Sym = T.toSymmetricTour(Dir);
      const size_t M = Sym.size();
      int64_t Cost = T.tourCost(Sym);

      for (size_t I = 0; I + 2 < M; ++I)
        for (size_t J = I + 2; J < M; ++J) {
          std::vector<City> Alt = Sym;
          std::reverse(Alt.begin() + I + 1, Alt.begin() + J + 1);
          EXPECT_GE(T.tourCost(Alt), Cost)
              << "N=" << N << ": improving 2-opt move (" << I << "," << J
              << ")";
        }

      for (size_t Start = 0; Start != M; ++Start) {
        std::vector<City> Rot(Sym.begin() + Start, Sym.end());
        Rot.insert(Rot.end(), Sym.begin(), Sym.begin() + Start);
        for (size_t L = 1; L <= 12 && L + 2 <= M; ++L) {
          std::vector<City> Seg(Rot.begin(), Rot.begin() + L);
          std::vector<City> Rest(Rot.begin() + L, Rot.end());
          for (bool Reversed : {false, true}) {
            std::vector<City> Moved = Seg;
            if (Reversed)
              std::reverse(Moved.begin(), Moved.end());
            for (size_t After = 0; After != Rest.size(); ++After) {
              std::vector<City> Alt(Rest.begin(), Rest.begin() + After + 1);
              Alt.insert(Alt.end(), Moved.begin(), Moved.end());
              Alt.insert(Alt.end(), Rest.begin() + After + 1, Rest.end());
              int64_t Delta = T.tourCost(Alt) - Cost;
              if (Delta >= 0)
                continue;
              ++Improving;
              City C = Rest[After];
              ASSERT_FALSE(Reversed) << "N=" << N;
              ASSERT_EQ(L % 2, 0u) << "N=" << N;
              ASSERT_LT(Seg.front(), N) << "segment must start at an in-city";
              ASSERT_GE(C, N) << "insertion must follow an out-city";
              // Collapse: the directed rotation starting at the segment.
              std::vector<City> DirRot;
              for (size_t K = 0; K < M; K += 2)
                DirRot.push_back(Rot[K]);
              int64_t Directed = insertionDelta(
                  D, DirRot, L / 2, static_cast<City>(C - N));
              EXPECT_EQ(Delta, Directed) << "N=" << N;
              EXPECT_EQ(D.tourCost(T.toDirectedTour(Alt)) - D.tourCost(Dir),
                        Delta);
            }
          }
        }
      }
    }
  }
  EXPECT_GT(Improving, 0u) << "the sweep must exercise improving moves";
}

TEST(DoubleBridgeTest, PreservesPermutationAndStart) {
  Rng R(5);
  for (size_t N : {4u, 5u, 8u, 20u, 101u}) {
    std::vector<City> Tour = canonicalTour(N);
    doubleBridge(Tour, R);
    EXPECT_TRUE(isValidTour(Tour, N));
    EXPECT_EQ(Tour[0], 0u) << "double bridge must keep segment A first";
  }
}

TEST(DoubleBridgeTest, TinyToursUntouched) {
  Rng R(6);
  std::vector<City> Tour = {0, 1, 2};
  doubleBridge(Tour, R);
  EXPECT_EQ(Tour, (std::vector<City>{0, 1, 2}));
}

TEST(DoubleBridgeTest, ActuallyPerturbs) {
  Rng R(7);
  std::vector<City> Tour = canonicalTour(30);
  doubleBridge(Tour, R);
  EXPECT_NE(Tour, canonicalTour(30));
}

/// Property sweep: iterated 3-Opt matches the exact optimum on small
/// random instances across many seeds.
class IteratedOptOptimality : public ::testing::TestWithParam<uint64_t> {};

TEST_P(IteratedOptOptimality, FindsOptimumOnSmallInstances) {
  uint64_t Seed = GetParam();
  size_t N = 4 + Seed % 9; // 4..12 cities.
  DirectedTsp D = randomInstance(N, Seed * 13 + 1);
  IteratedOptOptions Options;
  Options.Seed = Seed;
  DtspSolution Solution = solveDirectedTsp(D, Options);
  EXPECT_TRUE(isValidTour(Solution.Tour, N));
  EXPECT_EQ(D.tourCost(Solution.Tour), Solution.Cost);
  EXPECT_EQ(Solution.Cost, solveExactDirected(D)) << "N=" << N;
  EXPECT_EQ(Solution.NumRuns, 10u);
  EXPECT_GE(Solution.RunsFindingBest, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, IteratedOptOptimality,
                         ::testing::Range<uint64_t>(1, 26));

TEST(IteratedOptTest, NearOptimalOnMediumInstances) {
  // 16-18 cities: still exactly solvable; allow a sliver of slack.
  for (uint64_t Seed = 1; Seed != 5; ++Seed) {
    size_t N = 16 + Seed % 3;
    DirectedTsp D = randomInstance(N, Seed * 7 + 3);
    IteratedOptOptions Options;
    Options.Seed = Seed;
    DtspSolution Solution = solveDirectedTsp(D, Options);
    int64_t Optimal = solveExactDirected(D);
    EXPECT_GE(Solution.Cost, Optimal);
    EXPECT_LE(static_cast<double>(Solution.Cost),
              static_cast<double>(Optimal) * 1.05 + 1.0)
        << "seed " << Seed;
  }
}

TEST(IteratedOptTest, TrivialSizes) {
  IteratedOptOptions Options;
  DirectedTsp Two(2);
  Two.setCost(0, 1, 3);
  Two.setCost(1, 0, 4);
  DtspSolution S = solveDirectedTsp(Two, Options);
  EXPECT_EQ(S.Cost, 7);

  DirectedTsp Three(3);
  Three.setCost(0, 1, 1);
  Three.setCost(1, 2, 1);
  Three.setCost(2, 0, 1);
  Three.setCost(0, 2, 10);
  Three.setCost(2, 1, 10);
  Three.setCost(1, 0, 10);
  S = solveDirectedTsp(Three, Options);
  EXPECT_EQ(S.Cost, 3);
}

TEST(IteratedOptTest, DeterministicForFixedSeed) {
  DirectedTsp D = randomInstance(20, 555);
  IteratedOptOptions Options;
  Options.Seed = 77;
  DtspSolution A = solveDirectedTsp(D, Options);
  DtspSolution B = solveDirectedTsp(D, Options);
  EXPECT_EQ(A.Cost, B.Cost);
  EXPECT_EQ(A.Tour, B.Tour);
  EXPECT_EQ(A.RunsFindingBest, B.RunsFindingBest);
}

/// solveDirectedTsp's cost, RunsFindingBest and tour (as an FNV-1a hash of
/// its cities) on fixed instances, recorded from the symmetric-space
/// 3-Opt search the directed search replaced. The two must take the same
/// moves, so these pins must never move. N <= 11 with width 12, and
/// N = 9 with width 23, are where the symmetric lists spilled past the
/// real arcs into forbidden entries.
TEST(SolverPinTest, MatchesRecordedSymmetricSearch) {
  struct Pin {
    size_t N;
    uint64_t Seed;
    int64_t MaxCost;
    bool EntryPinned;
    unsigned NeighborListSize;
    int64_t Cost;
    unsigned RunsFindingBest;
    uint64_t TourHash;
  };
  const Pin Pins[] = {
      {4, 11, 100, false, 12, 89, 10, 0x5c6912521a516e15ULL},
      {5, 12, 100, false, 1, 164, 5, 0xfa7e6ef925a43521ULL},
      {6, 13, 3, false, 2, 4, 10, 0x80d17faa25cd4484ULL},
      {8, 14, 100, true, 12, 170, 10, 0x778a60b7c26eda95ULL},
      {9, 15, 1000000, false, 23, 1923511, 10, 0x9a13b6ed1fb8e4edULL},
      {11, 16, 100, false, 12, 148, 10, 0xddc29a3adeac577eULL},
      {12, 17, 100, true, 12, 162, 10, 0x18f9649d6d115e75ULL},
      {20, 18, 5, false, 2, 5, 6, 0xb1d6ca052f84e635ULL},
      {32, 19, 100, false, 23, 174, 2, 0xedcef46a149a2625ULL},
      {64, 20, 1000, true, 12, 2312, 1, 0xa56f87f2ed5002f5ULL},
      {100, 21, 100, false, 12, 160, 1, 0x2286783916ce4cb5ULL},
      {140, 22, 100, true, 12, 211, 1, 0x9eafa9eb3bc02545ULL},
  };
  for (const Pin &P : Pins) {
    DirectedTsp D = P.EntryPinned ? entryPinnedInstance(P.N, P.Seed, P.MaxCost)
                                  : randomInstance(P.N, P.Seed, P.MaxCost);
    IteratedOptOptions Options;
    Options.Seed = P.Seed;
    Options.NeighborListSize = P.NeighborListSize;
    DtspSolution S = solveDirectedTsp(D, Options);
    EXPECT_EQ(S.Cost, P.Cost) << "N=" << P.N;
    EXPECT_EQ(S.RunsFindingBest, P.RunsFindingBest) << "N=" << P.N;
    EXPECT_EQ(fnv1a64(S.Tour.data(), S.Tour.size() * sizeof(City)),
              P.TourHash)
        << "N=" << P.N;
  }
}

/// Randomized nearest-neighbor tours on a tie-heavy instance, recorded
/// from the per-step partial_sort the windowed scan replaced: the same
/// picks under the (cost, index) order, and the same RNG draws, since
/// consecutive calls share one stream.
TEST(SolverPinTest, NearestNeighborMatchesRecordedPartialSort) {
  DirectedTsp D = randomInstance(40, 5, 3);
  Rng R(11);
  uint64_t Hash = Fnv1aOffset;
  for (unsigned Window : {1u, 3u, 5u, 3u}) {
    std::vector<City> Tour = nearestNeighborTour(D, R, Window);
    Hash = fnv1a64(Tour.data(), Tour.size() * sizeof(City), Hash);
  }
  EXPECT_EQ(Hash, 0xd8b0ebf61302e0f5ULL);
}

/// solveDirectedTsp on the instances the pipeline builds: every profiled
/// procedure of three suite data sets, solved at the pipeline's derived
/// seeds with its default options, folded into one digest of each
/// procedure's cost, RunsFindingBest and tour. Recorded from the kernel
/// that evaluated every (segment length, candidate) pair and found
/// segment members by scanning; any kernel must take the same moves.
TEST(SolverPinTest, SuiteProceduresMatchRecordedTours) {
  struct Pin {
    const char *Benchmark;
    const char *DataSet;
    size_t Solved;
    size_t MaxCities;
    int64_t CostSum;
    uint64_t RunsFindingBestSum;
    uint64_t Digest;
  };
  const Pin Pins[] = {
      {"com", "in", 6, 47, 9574, 49, 0x2ee10146e94fc502ULL},
      {"eqn", "fx", 14, 102, 49294, 33, 0xc3f6cdee3187a38fULL},
      {"xli", "q7", 26, 107, 70454, 79, 0x3e368037bb9f01f3ULL},
  };
  AlignmentOptions Defaults;
  for (const Pin &P : Pins) {
    WorkloadInstance W = buildWorkloadByName(P.Benchmark);
    auto DS = std::find_if(
        W.DataSets.begin(), W.DataSets.end(),
        [&](const WorkloadDataSet &D) { return D.Name == P.DataSet; });
    ASSERT_NE(DS, W.DataSets.end()) << P.Benchmark << "." << P.DataSet;
    size_t Solved = 0, MaxCities = 0;
    int64_t CostSum = 0;
    uint64_t RunsSum = 0, Digest = Fnv1aOffset;
    for (size_t I = 0; I != W.Prog.numProcedures(); ++I) {
      const Procedure &Proc = W.Prog.proc(I);
      const ProcedureProfile &Profile = DS->Profile.Procs[I];
      if (Profile.executedBranches(Proc) == 0)
        continue;
      AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Defaults.Model);
      IteratedOptOptions Options = Defaults.Solver;
      Options.Seed = derivedSolverSeed(Defaults.Solver.Seed, I);
      DtspSolution S = solveDirectedTsp(Atsp.Tsp, Options);
      ++Solved;
      MaxCities = std::max(MaxCities, Atsp.Tsp.numCities());
      CostSum += S.Cost;
      RunsSum += S.RunsFindingBest;
      Digest = fnv1a64(&S.Cost, sizeof(S.Cost), Digest);
      Digest = fnv1a64(&S.RunsFindingBest, sizeof(S.RunsFindingBest), Digest);
      Digest = fnv1a64(S.Tour.data(), S.Tour.size() * sizeof(City), Digest);
    }
    std::string Label = std::string(P.Benchmark) + "." + P.DataSet;
    EXPECT_EQ(Solved, P.Solved) << Label;
    EXPECT_EQ(MaxCities, P.MaxCities) << Label;
    EXPECT_EQ(CostSum, P.CostSum) << Label;
    EXPECT_EQ(RunsSum, P.RunsFindingBestSum) << Label;
    EXPECT_EQ(Digest, P.Digest) << Label << std::hex << " 0x" << Digest;
  }

  // One short-long refit (refineLayoutForEncoding): the largest
  // profiled procedure of xli.q7 under a 64-byte short range, where some
  // branch goes long, so the surcharged instance is re-solved.
  WorkloadInstance W = buildWorkloadByName("xli");
  const WorkloadDataSet &DS = W.DataSets[1];
  ASSERT_EQ(DS.Name, "q7");
  size_t Largest = 0;
  for (size_t I = 0; I != W.Prog.numProcedures(); ++I)
    if (DS.Profile.Procs[I].executedBranches(W.Prog.proc(I)) != 0 &&
        W.Prog.proc(I).numBlocks() > W.Prog.proc(Largest).numBlocks())
      Largest = I;
  const Procedure &Proc = W.Prog.proc(Largest);
  const ProcedureProfile &Profile = DS.Profile.Procs[Largest];
  MachineModel Model = Defaults.Model;
  Model.Encoding = BranchEncoding::ShortLong;
  Model.ShortBranchRange = 64;
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  IteratedOptOptions Options = Defaults.Solver;
  Options.Seed = derivedSolverSeed(Defaults.Solver.Seed, Largest);
  Layout L =
      layoutFromTour(Proc, Atsp, solveDirectedTsp(Atsp.Tsp, Options).Tour);
  uint64_t Penalty = evaluateLayout(Proc, L, Model, Profile, Profile);
  ASSERT_NE(materializeLayout(Proc, L, Profile, Model).NumLongBranches, 0u)
      << "the refit must re-solve";
  bool Won =
      refineLayoutForEncoding(Proc, Profile, Model, Atsp, Options, L, Penalty);
  uint64_t Hash =
      fnv1a64(L.Order.data(), L.Order.size() * sizeof(BlockId), Fnv1aOffset);
  EXPECT_EQ(Proc.numBlocks(), 106u);
  EXPECT_TRUE(Won);
  EXPECT_EQ(Penalty, 12867u);
  EXPECT_EQ(Hash, 0x1dc9eabbb67e4724ULL) << std::hex << " 0x" << Hash;
}

/// Greedy-edge tours, recorded from the construction that sorted all
/// N(N-1) arcs by (cost, jitter): tie-heavy, entry-pinned and tiny
/// instances, drawn through one shared stream, so the pin also holds
/// every jitter draw (the stream's end state).
TEST(SolverPinTest, GreedyEdgeMatchesRecordedFullSort) {
  const DirectedTsp Instances[] = {
      randomInstance(40, 31, 2),        entryPinnedInstance(30, 32, 100),
      randomInstance(2, 33),            randomInstance(3, 34),
      randomInstance(140, 35),          randomInstance(25, 36, 0),
      entryPinnedInstance(60, 37, 2),
  };
  Rng R(41);
  uint64_t Hash = Fnv1aOffset;
  for (const DirectedTsp &D : Instances)
    for (int Rep = 0; Rep != 3; ++Rep) {
      std::vector<City> Tour = greedyEdgeTour(D, R);
      ASSERT_TRUE(isValidTour(Tour, D.numCities()));
      Hash = fnv1a64(Tour.data(), Tour.size() * sizeof(City), Hash);
    }
  uint64_t End[4] = {R.next(), R.next(), R.next(), R.next()};
  Hash = fnv1a64(End, sizeof(End), Hash);
  EXPECT_EQ(Hash, 0xd29e6fc2c7749735ULL) << std::hex << " 0x" << Hash;
}
