//===- tsp/HeldKarp.cpp -------------------------------------------------------===//

#include "tsp/HeldKarp.h"

#include "tsp/Transform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

using namespace balign;

namespace {

/// One minimum 1-tree computation under node potentials Pi.
struct OneTree {
  double Cost = 0.0;              ///< Total reweighted tree cost.
  std::vector<unsigned> Degree;   ///< Degree of every city in the 1-tree.
};

} // namespace

/// Builds the minimum 1-tree of the pair-locked instance \p T: an MST over
/// cities 1..2N-1 (Prim) plus the two cheapest edges incident to city 0,
/// all under weights w(a,b) = d(a,b) + Pi[a] + Pi[b]. Only the edges
/// between an in-city and an out-city are finite, and they connect cities
/// 1..2N-1. While every forbidden weight exceeds every finite one, whose
/// distances are at most \p MaxArc, Prim never selects a forbidden edge:
/// it then relaxes only the other side of the split, and city 0 (an
/// in-city) attaches through out-cities, for the same tree and the same
/// tie-breaks. Otherwise it relaxes every city, as on the full matrix.
static OneTree minimumOneTree(const SymmetricTransform &T, int64_t MaxArc,
                              const std::vector<double> &Pi) {
  size_t N = T.numCities();
  City Half = static_cast<City>(T.DirectedN);
  assert(Half >= 3 && "the ascent needs at least three directed cities");
  // Weights are fl(fl(d + Pi[a]) + Pi[b]) and rounding is monotone, so
  // it suffices that the lightest forbidden weight (d = LockBonus, both
  // potentials minimal) beats the heaviest finite one (d = MaxArc, both
  // potentials maximal).
  auto [MinPi, MaxPi] = std::minmax_element(Pi.begin(), Pi.end());
  bool OnlyFinite = static_cast<double>(T.LockBonus) + *MinPi + *MinPi >
                    static_cast<double>(MaxArc) + *MaxPi + *MaxPi;
  OneTree Tree;
  Tree.Degree.assign(N, 0);

  auto Weight = [&](City A, City B) {
    return static_cast<double>(T.dist(A, B)) + Pi[A] + Pi[B];
  };

  // Prim over cities 1..N-1.
  constexpr double Inf = std::numeric_limits<double>::infinity();
  std::vector<double> Best(N, Inf);
  std::vector<City> Parent(N, InvalidCity);
  std::vector<bool> InTree(N, false);
  Best[1] = 0.0;
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

  // Attach city 0 with its two cheapest edges.
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
  return Tree;
}

double balign::heldKarpBoundDirected(const DirectedTsp &Dtsp,
                                     int64_t UpperBound,
                                     const HeldKarpOptions &Options) {
  size_t N = Dtsp.numCities();
  if (N <= 2) {
    // 1-city tours cost 0; 2-city tours are forced.
    if (N == 2)
      return static_cast<double>(Dtsp.cost(0, 1) + Dtsp.cost(1, 0));
    return 0.0;
  }
  SymmetricTransform Transform = transformToSymmetric(Dtsp);
  // The ascent runs on the symmetric scale, where every tour costs the
  // offset less than its directed tour; the early stop is measured on
  // the directed scale.
  int64_t Offset = static_cast<int64_t>(N) * Transform.LockBonus;
  int64_t SymUpper = UpperBound - Offset;
  double GapStop =
      HeldKarpRelativeGapStop *
      std::max(1.0, std::fabs(static_cast<double>(UpperBound)));
  size_t Cities = Transform.numCities();
  // The dearest finite distance: a real arc, as pair edges cost
  // -LockBonus.
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
  // Plateaus on the pair-locked transformed instances routinely last
  // hundreds of iterations; halve the step only on long stagnation.
  const unsigned StagnationWindow = std::max(50u, Iterations / 25);

  for (unsigned Iter = 0; Iter != Iterations; ++Iter) {
    OneTree Tree = minimumOneTree(Transform, MaxArc, Pi);
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
      break; // The 1-tree is a tour: the bound is exact.

    double Gap = static_cast<double>(SymUpper) - Bound;
    double BestGap = static_cast<double>(SymUpper) - BestBound;
    if (Gap <= 0.0 || (GapStop > 0.0 && BestGap <= GapStop))
      break; // Bound (nearly) met the incumbent; stop early.
    double Step = Alpha * Gap / Norm;
    for (City C = 0; C != Cities; ++C)
      Pi[C] += Step * (static_cast<double>(Tree.Degree[C]) - 2.0);
  }
  // The bound is valid at every iteration; the best seen never exceeds
  // the incumbent tour, which is feasible.
  double SymBound = std::min(BestBound, static_cast<double>(SymUpper));
  return SymBound + static_cast<double>(Offset);
}
