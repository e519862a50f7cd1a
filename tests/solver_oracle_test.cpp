//===- tests/solver_oracle_test.cpp - Differential oracle for the solver ------===//
//
// Differential testing of iterated 3-Opt against the exact Held-Karp DP
// (tsp/Exact.h) on every small instance we can afford to enumerate: the
// paper claims near-optimality, and on N <= 10 the protocol-default
// solver must be *exactly* optimal. Families cover the shapes that
// historically break local search: heavy asymmetry (the directed ->
// symmetric transform must preserve orientation), big-M "needle"
// instances (one cheap Hamiltonian cycle hidden among forbidden-grade
// costs), and all-ties instances (the canonical start must win so
// compiler order is kept).
//
// The effort ladder relies on a structural property of solveDirectedTsp:
// per-run RNG streams are forked from the root seed in run order, so a
// config that only *appends* runs (more greedy/NN starts) or *extends*
// runs (more kicks per run) preserves every earlier run's trajectory as
// a prefix. Under that discipline more effort can never worsen the
// result, and the test asserts it.
//
// LocalSearchOracleTest compares the 3-Opt kernel (LocalSearch.h) with a
// verbatim copy of the kernel it replaced, which evaluated every
// (segment length, candidate) pair and found segment members by
// scanning: the two must take the same moves from the same tours.
//
//===--------------------------------------------------------------------===//

#include "support/Random.h"
#include "tsp/Construct.h"
#include "tsp/Exact.h"
#include "tsp/Instance.h"
#include "tsp/IteratedOpt.h"
#include "tsp/LocalSearch.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace balign;

namespace {

/// Uniform random directed instance with costs in [0, MaxCost).
DirectedTsp randomInstance(size_t N, uint64_t MaxCost, Rng &R) {
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J, static_cast<int64_t>(R.nextBelow(MaxCost)));
  return D;
}

/// Strongly asymmetric: each unordered pair gets one cheap and one
/// expensive direction, so a solver that loses orientation information
/// in the symmetric transform pays immediately.
DirectedTsp asymmetricInstance(size_t N, Rng &R) {
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = static_cast<City>(I + 1); J != N; ++J) {
      int64_t Cheap = static_cast<int64_t>(R.nextBelow(50));
      int64_t Dear = 10000 + static_cast<int64_t>(R.nextBelow(10000));
      if (R.nextBool(0.5)) {
        D.setCost(I, J, Cheap);
        D.setCost(J, I, Dear);
      } else {
        D.setCost(I, J, Dear);
        D.setCost(J, I, Cheap);
      }
    }
  return D;
}

/// Big-M heavy: every edge costs BigM except a hidden random Hamiltonian
/// cycle (cost 0..9) and a few decoy edges (cost ~BigM/2). The optimum
/// is (usually) the needle; the solver must find it, not an
/// almost-everywhere-forbidden tour.
DirectedTsp bigMInstance(size_t N, Rng &R) {
  constexpr int64_t BigM = 1000000000;
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J, BigM);
  std::vector<City> Needle(N);
  for (City I = 0; I != N; ++I)
    Needle[I] = I;
  R.shuffle(Needle);
  for (size_t I = 0; I != N; ++I)
    D.setCost(Needle[I], Needle[(I + 1) % N],
              static_cast<int64_t>(R.nextBelow(10)));
  for (int Decoy = 0; Decoy != 3; ++Decoy) {
    City A = static_cast<City>(R.nextIndex(N));
    City B = static_cast<City>(R.nextIndex(N));
    if (A != B)
      D.setCost(A, B, BigM / 2);
  }
  return D;
}

/// All off-diagonal costs identical: every tour ties.
DirectedTsp allTiesInstance(size_t N, int64_t Cost) {
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J, Cost);
  return D;
}

/// Solves with the paper-protocol defaults and asserts exact optimality
/// (differentially against the DP) plus tour validity.
void expectOptimal(const DirectedTsp &D, const char *Family) {
  int64_t Optimum = solveExactDirected(D);
  DtspSolution Solution = solveDirectedTsp(D, IteratedOptOptions());
  EXPECT_TRUE(isValidTour(Solution.Tour, D.numCities())) << Family;
  EXPECT_EQ(D.tourCost(Solution.Tour), Solution.Cost)
      << Family << ": reported cost must match its tour";
  EXPECT_EQ(Solution.Cost, Optimum)
      << Family << " N=" << D.numCities()
      << ": iterated 3-Opt missed the DP optimum";
}

} // namespace

TEST(SolverOracleTest, RandomInstancesMatchExactOptimum) {
  Rng R(0x0bac1e);
  for (size_t N = 2; N <= 10; ++N)
    for (int Rep = 0; Rep != 15; ++Rep)
      expectOptimal(randomInstance(N, 1000, R), "uniform");
}

TEST(SolverOracleTest, SmallCostRangesMatchExactOptimum) {
  // Tiny cost alphabets produce massive tie plateaus; the solver must
  // still land on an optimal representative.
  Rng R(0x7ab1e);
  for (size_t N = 4; N <= 10; ++N)
    for (int Rep = 0; Rep != 5; ++Rep)
      expectOptimal(randomInstance(N, 3, R), "tie-plateau");
}

TEST(SolverOracleTest, AsymmetricInstancesMatchExactOptimum) {
  Rng R(0xa5b3);
  for (size_t N = 4; N <= 10; ++N)
    for (int Rep = 0; Rep != 5; ++Rep)
      expectOptimal(asymmetricInstance(N, R), "asymmetric");
}

TEST(SolverOracleTest, BigMNeedleInstancesMatchExactOptimum) {
  Rng R(0xb16);
  for (size_t N = 4; N <= 10; ++N)
    for (int Rep = 0; Rep != 5; ++Rep)
      expectOptimal(bigMInstance(N, R), "big-M");
}

TEST(SolverOracleTest, AllTiesKeepCanonicalOrderAndAllRunsTie) {
  for (size_t N = 2; N <= 10; ++N)
    for (int64_t Cost : {int64_t(0), int64_t(7)}) {
      DirectedTsp D = allTiesInstance(N, Cost);
      int64_t Optimum = solveExactDirected(D);
      DtspSolution Solution = solveDirectedTsp(D, IteratedOptOptions());
      EXPECT_EQ(Solution.Cost, Optimum);
      EXPECT_EQ(Solution.Cost, static_cast<int64_t>(N) * Cost);
      EXPECT_EQ(Solution.Tour, canonicalTour(N))
          << "ties must preserve compiler order (N=" << N << ")";
      EXPECT_EQ(Solution.RunsFindingBest, Solution.NumRuns);
    }
}

TEST(SolverOracleTest, MoreEffortNeverWorsens) {
  // Ladder steps are ordered so each one either appends runs after all
  // existing runs or lengthens runs in place — the monotone-safe
  // directions (see the file comment). Step D is the paper default, so
  // its cost is also pinned to the DP optimum.
  IteratedOptOptions A;
  A.GreedyStarts = 1;
  A.NearestNeighborStarts = 0;
  A.IterationsFactor = 0.5;
  A.MinIterationsPerRun = 2;

  IteratedOptOptions B = A;
  B.GreedyStarts = 3;

  IteratedOptOptions C = B;
  C.IterationsFactor = 2.0;
  C.MinIterationsPerRun = 30;

  IteratedOptOptions D; // Paper defaults: G=5, NN=4, canonical, 2N kicks.

  Rng R(0x3ff027);
  for (size_t N : {6, 8, 10})
    for (int Rep = 0; Rep != 5; ++Rep) {
      DirectedTsp Inst = randomInstance(N, 500, R);
      int64_t CostA = solveDirectedTsp(Inst, A).Cost;
      int64_t CostB = solveDirectedTsp(Inst, B).Cost;
      int64_t CostC = solveDirectedTsp(Inst, C).Cost;
      int64_t CostD = solveDirectedTsp(Inst, D).Cost;
      EXPECT_GE(CostA, CostB) << "appending greedy starts worsened N=" << N;
      EXPECT_GE(CostB, CostC) << "longer runs worsened N=" << N;
      EXPECT_GE(CostC, CostD) << "full protocol worsened N=" << N;
      EXPECT_EQ(CostD, solveExactDirected(Inst));
    }
}

namespace {

/// The candidate lists and move search of the earlier kernel, verbatim:
/// row A holds the cities J != A in (cost(J, A), J) order, cut to K - 1.
class ReferenceSearch {
public:
  ReferenceSearch(const DirectedTsp &Dtsp, unsigned K) : Dtsp(Dtsp) {
    size_t N = Dtsp.numCities();
    Width = K == 0 || N == 0 ? 0 : std::min<size_t>(K - 1, N - 1);
    Lists.resize(N * Width);
    std::vector<City> Others;
    for (City A = 0; A != N; ++A) {
      Others.clear();
      for (City J = 0; J != N; ++J)
        if (J != A)
          Others.push_back(J);
      std::partial_sort(Others.begin(), Others.begin() + Width, Others.end(),
                        [&](City X, City Y) {
                          int64_t CX = Dtsp.cost(X, A);
                          int64_t CY = Dtsp.cost(Y, A);
                          return CX != CY ? CX < CY : X < Y;
                        });
      std::copy_n(Others.begin(), Width, Lists.begin() + A * Width);
    }
  }

  /// LocalSearch::run's contract on the earlier kernel.
  int64_t run(std::vector<City> &Tour, const std::vector<City> *Seeds) {
    size_t N = Tour.size();
    Succ.assign(N, 0);
    Pred.assign(N, 0);
    InQueue.assign(N, false);
    Queue.clear();
    for (size_t P = 0; P != N; ++P) {
      City Next = Tour[(P + 1) % N];
      Succ[Tour[P]] = Next;
      Pred[Next] = Tour[P];
    }
    if (Seeds) {
      for (City C : *Seeds)
        pushActive(C);
    } else {
      for (City C = 0; C != N; ++C)
        pushActive(C);
    }
    if (N >= 3)
      while (!Queue.empty()) {
        City C = Queue.back();
        Queue.pop_back();
        InQueue[C] = false;
        while (improveCity(C)) {
        }
      }
    City C = 0;
    for (City &Slot : Tour) {
      Slot = C;
      C = Succ[C];
    }
    return Dtsp.tourCost(Tour);
  }

private:
  const DirectedTsp &Dtsp;
  size_t Width = 0;
  std::vector<City> Lists;
  std::vector<City> Succ, Pred, Queue;
  std::vector<bool> InQueue;
  static constexpr unsigned MaxSegment = 6;

  void pushActive(City C) {
    if (InQueue[C])
      return;
    InQueue[C] = true;
    Queue.push_back(C);
  }

  bool improveCity(City A) {
    City Seg[MaxSegment];
    unsigned MaxLen = std::min<unsigned>(
        MaxSegment, static_cast<unsigned>(Succ.size() / 2));
    City P = Pred[A];
    City S = A;
    for (unsigned Len = 1; Len <= MaxLen; S = Succ[S], ++Len) {
      Seg[Len - 1] = S;
      City Next = Succ[S];
      int64_t RemoveGain =
          Dtsp.cost(P, A) + Dtsp.cost(S, Next) - Dtsp.cost(P, Next);
      for (size_t I = 0; I != Width; ++I) {
        City C = Lists[A * Width + I];
        if (C == P || std::find(Seg, Seg + Len, C) != Seg + Len)
          continue;
        City D = Succ[C];
        int64_t Delta = Dtsp.cost(C, A) + Dtsp.cost(S, D) -
                        Dtsp.cost(C, D) - RemoveGain;
        if (Delta >= 0)
          continue;
        Succ[P] = Next;
        Pred[Next] = P;
        Succ[C] = A;
        Pred[A] = C;
        Succ[S] = D;
        Pred[D] = S;
        pushActive(A);
        pushActive(Next);
        pushActive(D);
        return true;
      }
    }
    return false;
  }
};

/// Costs uniform in [Low, High].
DirectedTsp rangeInstance(size_t N, int64_t Low, int64_t High, Rng &R) {
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J,
                  Low + static_cast<int64_t>(R.nextBelow(
                            static_cast<uint64_t>(High - Low) + 1)));
  return D;
}

/// Runs the kernel and the reference from a shuffled start, then from
/// \p Kicks double-bridge kicks of the local optimum with their seed
/// lists, and expects the same tour and cost after every search.
void expectSameSearch(const DirectedTsp &D, unsigned K, Rng &R, int Kicks,
                      const std::string &Label) {
  size_t N = D.numCities();
  PredecessorLists Candidates(D, K);
  LocalSearch Search(D, Candidates);
  ReferenceSearch Reference(D, K);
  std::vector<City> Start = canonicalTour(N);
  R.shuffle(Start);
  std::vector<City> Tour = Start, Expected = Start;
  int64_t Cost = Search.run(Tour);
  ASSERT_EQ(Cost, Reference.run(Expected, nullptr)) << Label;
  ASSERT_EQ(Tour, Expected) << Label;
  std::vector<City> Touched;
  for (int Kick = 0; Kick != Kicks; ++Kick) {
    doubleBridge(Tour, R, &Touched);
    Expected = Tour;
    const std::vector<City> *Seeds = Touched.empty() ? nullptr : &Touched;
    Cost = Search.run(Tour, Seeds);
    ASSERT_EQ(Cost, Reference.run(Expected, Seeds))
        << Label << " kick " << Kick;
    ASSERT_EQ(Tour, Expected) << Label << " kick " << Kick;
  }
}

} // namespace

TEST(LocalSearchOracleTest, SameMovesAsEveryPairScan) {
  // List sizes 1 (no candidates), 2, the protocol's 12, 23 and 41
  // (wider than most instances, so every city is a candidate).
  Rng R(0x10ca1);
  for (unsigned K : {1u, 2u, 12u, 23u, 41u})
    for (size_t N : {3u, 4u, 5u, 6u, 7u, 8u, 9u, 11u, 12u, 13u, 16u, 20u, 25u,
                     32u, 40u, 47u, 64u, 90u, 130u}) {
      std::string Label = "K=" + std::to_string(K) + " N=" + std::to_string(N);
      expectSameSearch(rangeInstance(N, 0, 2, R), K, R, 20, Label + " ties");
      expectSameSearch(rangeInstance(N, 0, 1000, R), K, R, 20,
                       Label + " uniform");
      // The alignment reduction's shape: city 0 may only lead into 1.
      DirectedTsp Pinned = rangeInstance(N, 0, 100, R);
      for (City J = 2; J < N; ++J)
        Pinned.setCost(0, J, 100 * static_cast<int64_t>(N) + 1);
      expectSameSearch(Pinned, K, R, 20, Label + " entry-pinned");
      expectSameSearch(bigMInstance(N, R), K, R, 10, Label + " big-M");
      // DirectedTsp allows negative costs: a skipped segment length must
      // be bounded by each row's true minimum, not by 0.
      expectSameSearch(rangeInstance(N, -1000, 200, R), K, R, 20,
                       Label + " negative");
    }
}
