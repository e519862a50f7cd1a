//===- tests/tsp_bounds_test.cpp - Held-Karp and AP bound tests --------------===//

#include "align/Reduction.h"
#include "support/Random.h"
#include "trace/Scope.h"
#include "tsp/Assignment.h"
#include "tsp/Construct.h"
#include "tsp/Exact.h"
#include "tsp/HeldKarp.h"
#include "tsp/Instance.h"
#include "tsp/IteratedOpt.h"
#include "tsp/Transform.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <climits>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <map>
#include <string>
#include <utility>

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

/// Random symmetric-consistent directed instance (c(i,j) == c(j,i)).
DirectedTsp randomSymmetricInstance(size_t N, uint64_t Seed,
                                    int64_t MaxCost = 100) {
  Rng R(Seed);
  DirectedTsp Dtsp(N);
  for (City I = 0; I != N; ++I)
    for (City J = I + 1; J != N; ++J) {
      int64_t C = static_cast<int64_t>(R.nextBelow(MaxCost + 1));
      Dtsp.setCost(I, J, C);
      Dtsp.setCost(J, I, C);
    }
  return Dtsp;
}

/// A random instance whose city 0 may only be left into city 1 cheaply,
/// like the alignment reduction's dummy row.
DirectedTsp entryPinnedInstance(size_t N, uint64_t Seed, int64_t MaxCost) {
  DirectedTsp D = randomInstance(N, Seed, MaxCost);
  int64_t Pin = MaxCost * static_cast<int64_t>(N) + 1;
  D.setCost(0, 1, 0);
  for (City J = 2; J != N; ++J)
    D.setCost(0, J, Pin);
  return D;
}

/// A random instance with costs in [0, MaxCost], except that about one
/// arc in N costs -Negative.
DirectedTsp negativeArcInstance(size_t N, uint64_t Seed, int64_t MaxCost,
                                int64_t Negative) {
  Rng R(Seed);
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J,
                  R.nextBelow(N) == 0
                      ? -Negative
                      : static_cast<int64_t>(R.nextBelow(MaxCost + 1)));
  return D;
}

/// bench/solver_micro's alignment-like instance: every city has a couple
/// of cheap arcs (hot CFG edges) over an expensive background.
DirectedTsp alignmentLikeInstance(size_t N, uint64_t Seed) {
  Rng R(Seed);
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J, 200 + static_cast<int64_t>(R.nextBelow(800)));
  for (City I = 0; I != N; ++I) {
    for (int Hot = 0; Hot != 2; ++Hot) {
      City J = static_cast<City>(R.nextIndex(N));
      if (J != I)
        D.setCost(I, J, static_cast<int64_t>(R.nextBelow(40)));
    }
  }
  return D;
}

/// The Held-Karp ascent as it stood before the kernel read row copies:
/// each Prim step picks the next city by an ascending strict-< scan of
/// every city outside the tree and relaxes through
/// SymmetricTransform::dist. While every forbidden weight exceeds every
/// finite one it relaxes only across the in/out split, and city 0
/// attaches through out-cities; otherwise it relaxes every city. It has
/// no pair-first step. Kept as it was, plus counts of its ascents and
/// 1-trees and the iteration option, as the oracle for
/// heldKarpBoundDirected's bits and counters.
namespace reference {

struct OneTree {
  double Cost = 0.0;
  std::vector<unsigned> Degree;
};

struct TreeCounts {
  uint64_t OneTrees = 0;
  uint64_t FallbackTrees = 0;
  uint64_t Ascents = 0;
  uint64_t CappedAscents = 0; ///< Ascents that ran every iteration.
  /// 1-trees without forbidden edges in which a city's pair partner,
  /// outside the tree, did not join right after it.
  uint64_t PartnerSkippedTrees = 0;
};

OneTree minimumOneTree(const SymmetricTransform &T, int64_t MaxArc,
                       const std::vector<double> &Pi, TreeCounts &Counts) {
  size_t N = T.numCities();
  City Half = static_cast<City>(T.DirectedN);
  auto [MinPi, MaxPi] = std::minmax_element(Pi.begin(), Pi.end());
  bool OnlyFinite = static_cast<double>(T.LockBonus) + *MinPi + *MinPi >
                    static_cast<double>(MaxArc) + *MaxPi + *MaxPi;
  ++Counts.OneTrees;
  Counts.FallbackTrees += !OnlyFinite;
  OneTree Tree;
  Tree.Degree.assign(N, 0);

  auto Weight = [&](City A, City B) {
    return static_cast<double>(T.dist(A, B)) + Pi[A] + Pi[B];
  };

  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Best(N, Inf);
  std::vector<City> Parent(N, InvalidCity);
  std::vector<bool> InTree(N, false);
  Best[1] = 0.0;
  City Prev = InvalidCity;
  bool PartnerSkipped = false;
  for (size_t Added = 1; Added != N; ++Added) {
    City Next = InvalidCity;
    double NextWeight = Inf;
    for (City C = 1; C != N; ++C) {
      if (InTree[C] || Best[C] >= NextWeight)
        continue;
      Next = C;
      NextWeight = Best[C];
    }
    assert(Next != InvalidCity && "finite edges connect; Prim cannot stall");
    if (Prev != InvalidCity) {
      City Partner = Prev < Half ? Prev + Half : Prev - Half;
      PartnerSkipped |= Partner != 0 && !InTree[Partner] && Next != Partner;
    }
    Prev = Next;
    InTree[Next] = true;
    if (Parent[Next] != InvalidCity) {
      Tree.Cost += Weight(Next, Parent[Next]);
      ++Tree.Degree[Next];
      ++Tree.Degree[Parent[Next]];
    }
    City Begin = 1, End = static_cast<City>(N);
    if (OnlyFinite)
      (Next < Half ? Begin : End) = Half;
    for (City C = Begin; C != End; ++C) {
      if (InTree[C])
        continue;
      double W = Weight(Next, C);
      if (W < Best[C]) {
        Best[C] = W;
        Parent[C] = Next;
      }
    }
  }

  double First = Inf, Second = Inf;
  City FirstCity = InvalidCity, SecondCity = InvalidCity;
  for (City C = OnlyFinite ? Half : 1; C != N; ++C) {
    double W = Weight(0, C);
    if (W < First) {
      Second = First;
      SecondCity = FirstCity;
      First = W;
      FirstCity = C;
    } else if (W < Second) {
      Second = W;
      SecondCity = C;
    }
  }
  Tree.Cost += First + Second;
  Tree.Degree[0] += 2;
  ++Tree.Degree[FirstCity];
  ++Tree.Degree[SecondCity];
  Counts.PartnerSkippedTrees += OnlyFinite && PartnerSkipped;
  return Tree;
}

double heldKarpBoundDirected(const DirectedTsp &Dtsp, int64_t UpperBound,
                             TreeCounts &Counts,
                             const HeldKarpOptions &Options = {}) {
  size_t N = Dtsp.numCities();
  SymmetricTransform Transform = transformToSymmetric(Dtsp);
  int64_t Offset = static_cast<int64_t>(N) * Transform.LockBonus;
  int64_t SymUpper = UpperBound - Offset;
  double GapStop =
      HeldKarpRelativeGapStop *
      std::max(1.0, std::fabs(static_cast<double>(UpperBound)));
  size_t Cities = Transform.numCities();
  int64_t MaxArc = std::numeric_limits<int64_t>::min();
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        MaxArc = std::max(MaxArc, Dtsp.cost(I, J));

  unsigned Iterations = Options.Iterations;
  if (Iterations == 0)
    Iterations =
        std::clamp<unsigned>(static_cast<unsigned>(200 * Cities), 2000, 30000);

  std::vector<double> Pi(Cities, 0.0);
  double Alpha = HeldKarpInitialAlpha;
  double BestBound = -std::numeric_limits<double>::infinity();
  unsigned SinceImprove = 0;
  const unsigned StagnationWindow = std::max(50u, Iterations / 25);

  unsigned Iter = 0;
  for (; Iter != Iterations; ++Iter) {
    OneTree Tree = minimumOneTree(Transform, MaxArc, Pi, Counts);
    double PiSum = 0.0;
    for (double P : Pi)
      PiSum += P;
    double Bound = Tree.Cost - 2.0 * PiSum;
    if (Bound > BestBound) {
      BestBound = Bound;
      SinceImprove = 0;
    } else if (++SinceImprove >= StagnationWindow) {
      Alpha *= 0.5;
      SinceImprove = 0;
      if (Alpha < 1e-9)
        break;
    }

    double Norm = 0.0;
    for (unsigned D : Tree.Degree) {
      double G = static_cast<double>(D) - 2.0;
      Norm += G * G;
    }
    if (Norm == 0.0)
      break;

    double Gap = static_cast<double>(SymUpper) - Bound;
    double BestGap = static_cast<double>(SymUpper) - BestBound;
    if (Gap <= 0.0 || (GapStop > 0.0 && BestGap <= GapStop))
      break;
    double Step = Alpha * Gap / Norm;
    for (City C = 0; C != Cities; ++C)
      Pi[C] += Step * (static_cast<double>(Tree.Degree[C]) - 2.0);
  }
  ++Counts.Ascents;
  Counts.CappedAscents += Iter == Iterations;
  double SymBound = std::min(BestBound, static_cast<double>(SymUpper));
  return SymBound + static_cast<double>(Offset);
}

} // namespace reference

/// The heldkarp.* counters one bound publishes.
reference::TreeCounts publishedTreeCounts(const DirectedTsp &D,
                                          int64_t UpperBound) {
  TraceSession Session;
  Session.install();
  heldKarpBoundDirected(D, UpperBound);
  Session.uninstall();
  std::map<std::string, uint64_t> Counters = Session.metrics().counters();
  reference::TreeCounts Counts;
  Counts.OneTrees = Counters["heldkarp.one-trees"];
  Counts.FallbackTrees = Counters["heldkarp.fallback-trees"];
  Counts.Ascents = Counters["heldkarp.ascents"];
  Counts.CappedAscents = Counters["heldkarp.capped-ascents"];
  return Counts;
}

/// The published counters equal the reference ascent's.
void expectSameCounters(const reference::TreeCounts &Got,
                        const reference::TreeCounts &Want) {
  EXPECT_EQ(Got.OneTrees, Want.OneTrees);
  EXPECT_EQ(Got.FallbackTrees, Want.FallbackTrees);
  EXPECT_EQ(Got.Ascents, Want.Ascents);
  EXPECT_EQ(Got.CappedAscents, Want.CappedAscents);
}

} // namespace

/// Property sweep: the Held-Karp bound never exceeds the exact optimum
/// and is reasonably tight on small random instances.
class HeldKarpValidity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HeldKarpValidity, NeverExceedsOptimum) {
  uint64_t Seed = GetParam();
  size_t N = 4 + Seed % 8; // 4..11 cities.
  DirectedTsp D = randomInstance(N, Seed * 17 + 5);
  int64_t Optimal = solveExactDirected(D);
  double Bound = heldKarpBoundDirected(D, Optimal);
  EXPECT_LE(Bound, static_cast<double>(Optimal) + 1e-6) << "N=" << N;
  // HK should be no weaker than half the optimum on these instances.
  EXPECT_GE(Bound, 0.3 * static_cast<double>(Optimal) - 1.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HeldKarpValidity,
                         ::testing::Range<uint64_t>(1, 21));

TEST(HeldKarpTest, TightOnMetricSymmetricInstances) {
  // On symmetric instances with triangle-inequality-ish structure the HK
  // bound is empirically within a few percent of optimal.
  double WorstGap = 0.0;
  for (uint64_t Seed = 1; Seed != 8; ++Seed) {
    DirectedTsp D = randomSymmetricInstance(10, Seed * 29, 50);
    // Make it metric-ish: c'(i,j) = c(i,j) + 50 reduces relative spread.
    for (City I = 0; I != 10; ++I)
      for (City J = 0; J != 10; ++J)
        if (I != J)
          D.setCost(I, J, D.cost(I, J) + 50);
    int64_t Optimal = solveExactDirected(D);
    double Bound = heldKarpBoundDirected(D, Optimal);
    EXPECT_LE(Bound, static_cast<double>(Optimal) + 1e-6);
    double Gap = (static_cast<double>(Optimal) - Bound) /
                 static_cast<double>(Optimal);
    WorstGap = std::max(WorstGap, Gap);
  }
  EXPECT_LT(WorstGap, 0.10);
}

TEST(HeldKarpTest, DegenerateSizes) {
  DirectedTsp Two(2);
  Two.setCost(0, 1, 3);
  Two.setCost(1, 0, 9);
  EXPECT_DOUBLE_EQ(heldKarpBoundDirected(Two, 12), 12.0);

  DirectedTsp One(1);
  EXPECT_DOUBLE_EQ(heldKarpBoundDirected(One, 0), 0.0);
}

/// Held-Karp bound bits (std::bit_cast<uint64_t>) for fixed instances and
/// upper bounds, recorded from the ascent over the materialized 2N x 2N
/// symmetric matrix that the pair-locked view replaced. The view's Prim
/// must pick the same 1-trees, so these pins must never move. Upper
/// bounds came from iterated 3-Opt (odd seeds up to 17) or the canonical
/// tour (even ones), and for the last three from three times the
/// canonical tour. Loose bounds on tiny instances let the potentials grow
/// comparable to the lock bonus, so a forbidden edge can enter the tree:
/// relaxing only finite edges there moved the N = 4 pin and the last
/// three.
TEST(HeldKarpPinTest, RandomInstancesMatchRecordedMatrixAscent) {
  struct Pin {
    size_t N;
    uint64_t Seed;
    int64_t MaxCost;
    bool EntryPinned;
    int64_t UpperBound;
    uint64_t Bits;
  };
  const Pin Pins[] = {
      {3, 1, 100, false, 123, 0x405ec00000000000ULL},
      {4, 2, 3, false, 6, 0x4007fffff81b06f0ULL},
      {5, 3, 1000000, false, 1271735, 0x413367b700000000ULL},
      {6, 4, 100, true, 266, 0x405a800000000000ULL},
      {7, 5, 3, true, 5, 0x4013ff7d0f85a000ULL},
      {8, 6, 1000000, true, 4764727, 0x413707a600000000ULL},
      {9, 7, 100, false, 153, 0x40631fffffffff00ULL},
      {10, 8, 3, false, 17, 0x3fffffff964f0000ULL},
      {12, 9, 1000000, false, 1338561, 0x41346cc100000000ULL},
      {13, 10, 100, true, 698, 0x4065c00000000000ULL},
      {16, 11, 3, true, 3, 0x4007ff71c6aa0000ULL},
      {17, 12, 1000000, true, 9830972, 0x413614516a2a6000ULL},
      {20, 13, 100, false, 151, 0x4062c7fffeaa1000ULL},
      {11, 14, 3, false, 19, 0x3ffffffe6191d400ULL},
      {25, 15, 1000000, true, 1843164, 0x413bf8157fcb8000ULL},
      {29, 16, 100, true, 1391, 0x4067069793bf4000ULL},
      {32, 17, 1000000, false, 1300765, 0x413305686b2e2000ULL},
      {15, 18, 100, true, 647, 0x4062000000000000ULL},
      {5, 15838, 1000000, false, 5501244, 0x4130d919ffffffe0ULL},
      {7, 506816, 100, false, 1239, 0x4068800000000000ULL},
      {3, 1900560, 3, true, 15, 0x4014000000000008ULL},
  };
  for (const Pin &P : Pins) {
    DirectedTsp D = P.EntryPinned ? entryPinnedInstance(P.N, P.Seed, P.MaxCost)
                                  : randomInstance(P.N, P.Seed, P.MaxCost);
    double Bound = heldKarpBoundDirected(D, P.UpperBound);
    EXPECT_EQ(std::bit_cast<uint64_t>(Bound), P.Bits)
        << "N=" << P.N << " seed " << P.Seed << ": " << Bound;
  }
}

/// bench/solver_micro's BM_HeldKarpBound instances, with its upper-bound
/// recipe (one greedy start, a quarter of the kicks).
TEST(HeldKarpPinTest, MicrobenchInstancesMatchRecordedMatrixAscent) {
  const struct {
    size_t N;
    int64_t UpperBound;
    uint64_t Bits;
  } Pins[] = {
      {16, 1134, 0x408f6ffff0bda000ULL},
      {64, 4699, 0x40adc0f357f60000ULL},
  };
  for (const auto &P : Pins) {
    DirectedTsp D = alignmentLikeInstance(P.N, 42);
    IteratedOptOptions Options;
    Options.GreedyStarts = 1;
    Options.NearestNeighborStarts = 0;
    Options.CanonicalStart = false;
    Options.IterationsFactor = 0.25;
    int64_t Ub = solveDirectedTsp(D, Options).Cost;
    ASSERT_EQ(Ub, P.UpperBound) << "N=" << P.N;
    double Bound = heldKarpBoundDirected(D, Ub);
    EXPECT_EQ(std::bit_cast<uint64_t>(Bound), P.Bits)
        << "N=" << P.N << ": " << Bound;
  }
}

/// Suite procedures (benchmark, data set, procedure index) across all six
/// benchmarks. Upper bounds alternate between the default iterated 3-Opt
/// tour and the compiler-order tour. The first 24 have at most 29 blocks
/// except eqn's smallest, which has 35; the last four (45 to 77 blocks)
/// lie past bounds-audit's 29-block cap, so its digest does not see them.
TEST(HeldKarpPinTest, SuiteProceduresMatchRecordedMatrixAscent) {
  struct Pin {
    const char *Benchmark;
    size_t DataSet;
    size_t Proc;
    int64_t UpperBound;
    uint64_t Bits;
  };
  const Pin Pins[] = {
      {"com", 0, 1, 1034, 0x40902796ea048000ULL},
      {"com", 1, 2, 17999, 0x40d1577ffd0f8800ULL},
      {"com", 0, 3, 3234, 0x40a4f1eb7fab6000ULL},
      {"com", 1, 3, 31392, 0x40dea73a41a8c000ULL},
      {"dod", 0, 7, 829, 0x406cdf92e1c50000ULL},
      {"dod", 1, 10, 28, 0x403bff597c77c000ULL},
      {"dod", 0, 21, 287, 0x40719fff4901d000ULL},
      {"dod", 1, 21, 122, 0x404f3fa8f7518000ULL},
      {"eqn", 0, 2, 1300, 0x40944f80c3f1c000ULL},
      {"eqn", 1, 2, 12777, 0x40c18ff69d11e000ULL},
      {"esp", 0, 1, 154, 0x40626fffffaa5c00ULL},
      {"esp", 1, 64, 1404, 0x40954c0000000000ULL},
      {"esp", 0, 97, 8032, 0x40bc8b3cb32d4000ULL},
      {"esp", 1, 33, 12195, 0x40c7d0e565670000ULL},
      {"esp", 0, 28, 3109, 0x40a7bcfb52097000ULL},
      {"esp", 1, 143, 2858, 0x40a37bf77d29f800ULL},
      {"su2", 0, 15, 66596, 0x40f041e2f4bdb000ULL},
      {"su2", 1, 5, 237, 0x406d3ffff2dd0000ULL},
      {"su2", 0, 12, 3734, 0x40a933de438b2000ULL},
      {"su2", 1, 16, 118, 0x405d7f4520fa4000ULL},
      {"xli", 0, 6, 10, 0x401bffe0fe37d000ULL},
      {"xli", 1, 6, 2560, 0x40a3ffbf0dfb2800ULL},
      {"xli", 1, 10, 1724, 0x4091a2f943311000ULL},
      {"xli", 1, 5, 326, 0x40745f8a435f1000ULL},
      {"com", 0, 5, 698, 0x4085cf7498234000ULL},
      {"esp", 0, 126, 235, 0x405dffabab0e0000ULL},
      {"su2", 0, 6, 1550, 0x4098376201c48000ULL},
      {"dod", 1, 25, 901, 0x40695fb603bc0000ULL},
  };
  const MachineModel Model = MachineModel::alpha21164();
  std::map<std::string, WorkloadInstance> Built;
  for (const Pin &P : Pins) {
    auto It = Built.find(P.Benchmark);
    if (It == Built.end())
      It = Built.emplace(P.Benchmark, buildWorkloadByName(P.Benchmark)).first;
    const WorkloadInstance &W = It->second;
    AlignmentTsp Atsp =
        buildAlignmentTsp(W.Prog.proc(P.Proc),
                          W.DataSets[P.DataSet].Profile.Procs[P.Proc], Model);
    double Bound = heldKarpBoundDirected(Atsp.Tsp, P.UpperBound);
    EXPECT_EQ(std::bit_cast<uint64_t>(Bound), P.Bits)
        << W.dataSetLabel(P.DataSet) << " procedure " << P.Proc << ": "
        << Bound;
  }
}

/// Differential oracle: the kernel's bound bits equal the reference
/// ascent's on a seeded sweep of random and entry-pinned instances (N
/// 3..32, max costs 3, 100 and 10^6) under three kinds of upper bound:
/// the canonical tour, iterated 3-Opt, and three times the canonical
/// tour. Loose bounds drive the potentials up to the lock bonus, so the
/// sweep also covers 1-trees built with forbidden edges. Two instances of
/// 48 and 64 cities stand for the larger suite procedures. With
/// non-negative costs, every 1-tree without forbidden edges joins each
/// pair partner right after its pair city, so the sweep ends with
/// instances whose arcs cost 0..3 except about one in N at -100, under a
/// bound three times their total cost above the canonical tour: those
/// seeds were picked because they reach 1-trees whose partners do not
/// join next, the case the kernel's pair-first guard exists for.
TEST(HeldKarpOracleTest, KernelMatchesReferenceBits) {
  const int64_t MaxCosts[] = {3, 100, 1000000};
  IteratedOptOptions Quick;
  Quick.GreedyStarts = 1;
  Quick.NearestNeighborStarts = 0;
  Quick.CanonicalStart = false;
  Quick.IterationsFactor = 0.25;
  enum Upper { CanonicalTour, ThreeOpt, ThreeCanonicalTours };
  reference::TreeCounts Total;
  auto Check = [&](const DirectedTsp &D, int64_t Ub, const std::string &What,
                   const HeldKarpOptions &Options = {}) {
    reference::TreeCounts Counts;
    double Want = reference::heldKarpBoundDirected(D, Ub, Counts, Options);
    double Got = heldKarpBoundDirected(D, Ub, Options);
    EXPECT_EQ(std::bit_cast<uint64_t>(Got), std::bit_cast<uint64_t>(Want))
        << What << " upper bound " << Ub << ": " << Got << " vs " << Want;
    Total.OneTrees += Counts.OneTrees;
    Total.FallbackTrees += Counts.FallbackTrees;
    Total.PartnerSkippedTrees += Counts.PartnerSkippedTrees;
  };
  auto CheckRandom = [&](size_t N, uint64_t Seed, bool EntryPinned,
                         std::initializer_list<Upper> Uppers,
                         const HeldKarpOptions &Options = {}) {
    int64_t MaxCost = MaxCosts[Seed % 3];
    DirectedTsp D = EntryPinned ? entryPinnedInstance(N, Seed, MaxCost)
                                : randomInstance(N, Seed, MaxCost);
    int64_t Canonical = D.tourCost(canonicalTour(N));
    std::string What = "N=" + std::to_string(N) + " seed " +
                       std::to_string(Seed) + " max cost " +
                       std::to_string(MaxCost) +
                       (EntryPinned ? " pinned" : "");
    for (Upper U : Uppers)
      Check(D,
            U == CanonicalTour ? Canonical
            : U == ThreeOpt    ? solveDirectedTsp(D, Quick).Cost
                               : 3 * Canonical,
            What, Options);
  };
  // Every size up to 16, random and entry-pinned, under all three.
  for (uint64_t Seed = 0; Seed != 28; ++Seed)
    CheckRandom(3 + Seed % 14, Seed, Seed >= 14,
                {CanonicalTour, ThreeOpt, ThreeCanonicalTours});
  // A bound costs about N^3, so larger sizes get one upper bound each.
  CheckRandom(20, 28, false, {ThreeCanonicalTours});
  CheckRandom(26, 29, true, {CanonicalTour});
  CheckRandom(32, 30, false, {ThreeOpt});
  // The reference scans every city per step, so these two stop at the
  // smallest default cap.
  HeldKarpOptions Short;
  Short.Iterations = 2000;
  CheckRandom(48, 31, true, {ThreeOpt}, Short);
  CheckRandom(64, 32, false, {CanonicalTour}, Short);
  EXPECT_EQ(Total.PartnerSkippedTrees, 0u)
      << "non-negative costs joined a partner late on finite edges";
  const std::pair<size_t, uint64_t> NegativeArcSeeds[] = {
      {4, 1149}, {4, 1286}, {4, 6348}, {5, 8019}, {5, 11922}, {5, 12271}};
  for (auto [N, Seed] : NegativeArcSeeds) {
    DirectedTsp D = negativeArcInstance(N, Seed, 3, 100);
    Check(D, D.tourCost(canonicalTour(N)) + 3 * *D.totalAbsCost(),
          "N=" + std::to_string(N) + " negative-arc seed " +
              std::to_string(Seed));
  }
  EXPECT_GT(Total.FallbackTrees, 0u) << "the sweep never left the finite "
                                        "edges; the fallback is untested";
  EXPECT_LT(Total.FallbackTrees, Total.OneTrees);
  EXPECT_GT(Total.PartnerSkippedTrees, 0u)
      << "every partner joined next; the pair-first guard is untested";
}

/// heldkarp.one-trees and heldkarp.fallback-trees count the 1-trees of
/// one ascent and those built with forbidden edges; they equal the
/// reference ascent's counts.
TEST(HeldKarpCountersTest, PublishesOneTreesAndFallbackTrees) {
  // The N = 4, seed 2 pin with its canonical upper bound: a tiny
  // instance whose potentials reach the lock bonus.
  DirectedTsp Tiny = randomInstance(4, 2, 3);
  reference::TreeCounts Got = publishedTreeCounts(Tiny, 6);
  reference::TreeCounts Want;
  reference::heldKarpBoundDirected(Tiny, 6, Want);
  EXPECT_GT(Got.FallbackTrees, 0u);
  EXPECT_EQ(Got.FallbackTrees, Want.FallbackTrees);
  EXPECT_EQ(Got.OneTrees, Want.OneTrees);

  // A suite procedure with its iterated 3-Opt upper bound never leaves
  // the finite edges.
  WorkloadInstance W = buildWorkloadByName("com");
  AlignmentTsp Atsp = buildAlignmentTsp(
      W.Prog.proc(1), W.DataSets[0].Profile.Procs[1],
      MachineModel::alpha21164());
  int64_t Ub = solveDirectedTsp(Atsp.Tsp, IteratedOptOptions{}).Cost;
  ASSERT_EQ(Ub, 1034);
  Got = publishedTreeCounts(Atsp.Tsp, Ub);
  Want = {};
  reference::heldKarpBoundDirected(Atsp.Tsp, Ub, Want);
  EXPECT_EQ(Got.FallbackTrees, 0u);
  EXPECT_EQ(Got.OneTrees, 2064u);
  EXPECT_EQ(Got.OneTrees, Want.OneTrees);
}

/// heldkarp.ascents counts ascents and heldkarp.capped-ascents those that
/// no stop test ended before the iteration cap; both equal the reference
/// ascent's counts, as do the 1-tree counters.
TEST(HeldKarpCountersTest, PublishesAscentsAndCappedAscents) {
  // The N = 4, seed 2 pin with its canonical upper bound runs into the
  // cap of 2000 iterations.
  DirectedTsp Tiny = randomInstance(4, 2, 3);
  reference::TreeCounts Got = publishedTreeCounts(Tiny, 6);
  reference::TreeCounts Want;
  reference::heldKarpBoundDirected(Tiny, 6, Want);
  expectSameCounters(Got, Want);
  EXPECT_EQ(Got.Ascents, 1u);
  EXPECT_EQ(Got.CappedAscents, 1u);
  EXPECT_EQ(Got.OneTrees, 2000u);

  // com.0's procedure 1 under its iterated 3-Opt tour stops at the gap.
  WorkloadInstance W = buildWorkloadByName("com");
  AlignmentTsp Atsp = buildAlignmentTsp(
      W.Prog.proc(1), W.DataSets[0].Profile.Procs[1],
      MachineModel::alpha21164());
  Got = publishedTreeCounts(Atsp.Tsp, 1034);
  Want = {};
  reference::heldKarpBoundDirected(Atsp.Tsp, 1034, Want);
  expectSameCounters(Got, Want);
  EXPECT_EQ(Got.Ascents, 1u);
  EXPECT_EQ(Got.CappedAscents, 0u);

  // Sizes below three cities have no ascent.
  DirectedTsp Two(2);
  Got = publishedTreeCounts(Two, 0);
  EXPECT_EQ(Got.Ascents, 0u);
  EXPECT_EQ(Got.OneTrees, 0u);
}

/// Property sweep: the AP bound is a valid relaxation.
class AssignmentValidity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AssignmentValidity, NeverExceedsOptimum) {
  uint64_t Seed = GetParam();
  size_t N = 3 + Seed % 8;
  DirectedTsp D = randomInstance(N, Seed * 23 + 7);
  AssignmentResult Ap = assignmentBound(D);
  int64_t Optimal = solveExactDirected(D);
  EXPECT_LE(Ap.Cost, Optimal);
  EXPECT_GE(Ap.NumCycles, 1u);
  // Successor must be a fixed-point-free permutation.
  std::vector<bool> Hit(N, false);
  for (City I = 0; I != N; ++I) {
    EXPECT_NE(Ap.Successor[I], I);
    EXPECT_LT(Ap.Successor[I], N);
    EXPECT_FALSE(Hit[Ap.Successor[I]]);
    Hit[Ap.Successor[I]] = true;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AssignmentValidity,
                         ::testing::Range<uint64_t>(1, 21));

TEST(AssignmentTest, MatchesBruteForceMinimumCycleCover) {
  // The Hungarian result must equal the brute-force minimum over all
  // fixed-point-free permutations (cycle covers), not just be a bound.
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    size_t N = 3 + Seed % 4; // 3..6 cities.
    DirectedTsp D = randomInstance(N, Seed * 53 + 1);
    AssignmentResult Ap = assignmentBound(D);

    std::vector<City> Perm(N);
    for (City I = 0; I != N; ++I)
      Perm[I] = I;
    int64_t Best = INT64_MAX;
    do {
      bool FixedPointFree = true;
      int64_t Cost = 0;
      for (City I = 0; I != N; ++I) {
        if (Perm[I] == I) {
          FixedPointFree = false;
          break;
        }
        Cost += D.cost(I, Perm[I]);
      }
      if (FixedPointFree)
        Best = std::min(Best, Cost);
    } while (std::next_permutation(Perm.begin(), Perm.end()));
    EXPECT_EQ(Ap.Cost, Best) << "seed " << Seed << " N=" << N;
  }
}

TEST(AssignmentTest, ExactWhenCoverIsOneCycle) {
  // Ring instance: the cheapest cycle cover IS the optimal tour.
  DirectedTsp D(5);
  for (City I = 0; I != 5; ++I)
    for (City J = 0; J != 5; ++J)
      if (I != J)
        D.setCost(I, J, 50);
  for (City I = 0; I != 5; ++I)
    D.setCost(I, (I + 1) % 5, 1);
  AssignmentResult Ap = assignmentBound(D);
  EXPECT_EQ(Ap.Cost, 5);
  EXPECT_EQ(Ap.NumCycles, 1u);
  EXPECT_EQ(Ap.Cost, solveExactDirected(D));
}

TEST(AssignmentTest, DetectsMultiCycleCovers) {
  // Two cheap 2-cycles (0<->1, 2<->3) and expensive everything else:
  // AP picks the two 2-cycles, underestimating the real tour.
  DirectedTsp D(4);
  for (City I = 0; I != 4; ++I)
    for (City J = 0; J != 4; ++J)
      if (I != J)
        D.setCost(I, J, 100);
  D.setCost(0, 1, 1);
  D.setCost(1, 0, 1);
  D.setCost(2, 3, 1);
  D.setCost(3, 2, 1);
  AssignmentResult Ap = assignmentBound(D);
  EXPECT_EQ(Ap.Cost, 4);
  EXPECT_EQ(Ap.NumCycles, 2u);
  EXPECT_LT(Ap.Cost, solveExactDirected(D));
}

TEST(BoundsOrdering, HeldKarpDominatesApOnAlignmentLikeInstances) {
  // The paper's appendix observes HK is much stronger than AP on branch
  // alignment instances; verify HK >= AP on skewed random instances
  // (where the AP bound splinters into many tiny cycles).
  unsigned HkWins = 0, Trials = 0;
  for (uint64_t Seed = 1; Seed != 11; ++Seed) {
    DirectedTsp D = randomInstance(12, Seed * 41, 1000);
    // Give every city one very cheap outgoing arc to mimic hot CFG paths.
    Rng R(Seed);
    for (City I = 0; I != 12; ++I) {
      City J = static_cast<City>((I + 1 + R.nextIndex(11)) % 12);
      if (J != I)
        D.setCost(I, J, 0);
    }
    int64_t Optimal = solveExactDirected(D);
    double Hk = heldKarpBoundDirected(D, Optimal);
    AssignmentResult Ap = assignmentBound(D);
    ++Trials;
    if (Hk >= static_cast<double>(Ap.Cost) - 1e-6)
      ++HkWins;
  }
  EXPECT_GE(HkWins * 10, Trials * 7) << "HK should usually dominate AP";
}
