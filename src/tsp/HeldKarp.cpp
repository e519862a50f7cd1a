//===- tsp/HeldKarp.cpp -------------------------------------------------------===//

#include "tsp/HeldKarp.h"

#include "trace/Scope.h"
#include "tsp/Transform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <vector>

using namespace balign;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// A city outside the tree and its best attachment weight.
struct Candidate {
  double Weight = Inf;
  City C = InvalidCity;
};

/// Builds minimum 1-trees of the pair-locked instance \p T: an MST over
/// cities 1..2N-1 (Prim) plus the two cheapest edges incident to city 0,
/// all under weights w(a,b) = d(a,b) + Pi[a] + Pi[b]. One kernel serves a
/// whole ascent: the view's finite distances are copied once into two
/// N x N rows of doubles, out-city rows d(i_out, j_in) and their
/// transpose d(i_in, j_out), and every 1-tree reuses one workspace.
///
/// Only the edges between an in-city and an out-city are finite, and they
/// connect cities 1..2N-1. While every forbidden weight exceeds every
/// finite one, whose distances are at most the dearest arc, Prim never
/// selects a forbidden edge: it then relaxes only the other side of the
/// split, and city 0 (an in-city) attaches through out-cities, for the
/// same tree and the same tie-breaks. Otherwise it relaxes every city, as
/// on the full matrix. Each side keeps its cities outside the tree in a
/// list with swap-remove, so a Prim step reads only those; the scrambled
/// order is why the argmin compares (Best, city) explicitly, which picks
/// the lowest city among equal weights as an ascending scan would.
class OneTreeKernel {
public:
  explicit OneTreeKernel(const SymmetricTransform &T)
      : Half(T.DirectedN), Forbidden(static_cast<double>(T.LockBonus)),
        OutRows(Half * Half), InRows(Half * Half),
        Best(2 * Half), Parent(2 * Half), Pos(2 * Half), Degree(2 * Half) {
    assert(Half >= 3 && "the ascent needs at least three directed cities");
    City N = static_cast<City>(Half);
    // The dearest finite distance: a real arc, as pair edges cost
    // -LockBonus.
    MaxArc = std::numeric_limits<int64_t>::min();
    for (City I = 0; I != N; ++I)
      for (City J = 0; J != N; ++J) {
        OutRows[I * Half + J] = static_cast<double>(T.dist(I + N, J));
        InRows[I * Half + J] = static_cast<double>(T.dist(I, J + N));
        if (I != J)
          MaxArc = std::max(MaxArc, T.Dtsp->cost(I, J));
      }
    Remaining[0].reserve(Half);
    Remaining[1].reserve(Half);
  }

  /// Builds the minimum 1-tree under potentials \p Pi and returns its
  /// reweighted cost; degree() then holds every city's degree in it.
  double build(const std::vector<double> &Pi);

  const std::vector<unsigned> &degree() const { return Degree; }

  uint64_t OneTrees = 0;      ///< 1-trees built.
  uint64_t FallbackTrees = 0; ///< Of those, built with forbidden edges.

private:
  /// d(A, B) of the view for A != B, from the copies.
  double dist(City A, City B) const {
    bool AOut = A >= Half, BOut = B >= Half;
    if (AOut == BOut)
      return Forbidden;
    return AOut ? OutRows[(A - Half) * Half + B]
                : InRows[A * Half + (B - Half)];
  }

  /// The lowest (Best, city) on \p List, relaxing each city first
  /// against \p Next at distance \p Dist(C) when \p Relax is set.
  template <bool Relax, typename DistFn>
  Candidate scan(const std::vector<City> &List, City Next,
                 const std::vector<double> &Pi, DistFn Dist) {
    Candidate Min;
    double PiNext = Pi[Next];
    for (City C : List) {
      if constexpr (Relax) {
        double W = (Dist(C) + PiNext) + Pi[C];
        if (W < Best[C]) {
          Best[C] = W;
          Parent[C] = Next;
        }
      }
      // Most cities lose on the first comparison.
      double B = Best[C];
      if (B <= Min.Weight && (B < Min.Weight || C < Min.C))
        Min = {B, C};
    }
    return Min;
  }

  size_t Half;
  double Forbidden; ///< d(A, B) between two cities on one side.
  int64_t MaxArc;
  std::vector<double> OutRows; ///< [i * N + j] = d(i_out, j_in).
  std::vector<double> InRows;  ///< [i * N + j] = d(i_in, j_out).
  std::vector<double> Best;
  std::vector<City> Parent;
  std::vector<size_t> Pos; ///< Index of a city in its side's list.
  std::vector<unsigned> Degree;
  /// In-cities (0) and out-cities (1) outside the tree; never city 0.
  std::vector<City> Remaining[2];
};

} // namespace

double OneTreeKernel::build(const std::vector<double> &Pi) {
  City Cities = static_cast<City>(2 * Half);
  // Weights are fl(fl(d + Pi[a]) + Pi[b]) and rounding is monotone, so
  // it suffices that the lightest forbidden weight (d = LockBonus, both
  // potentials minimal) beats the heaviest finite one (d = MaxArc, both
  // potentials maximal).
  auto [MinPi, MaxPi] = std::minmax_element(Pi.begin(), Pi.end());
  bool OnlyFinite = Forbidden + *MinPi + *MinPi >
                    static_cast<double>(MaxArc) + *MaxPi + *MaxPi;
  ++OneTrees;
  if (!OnlyFinite)
    ++FallbackTrees;

  std::fill(Best.begin(), Best.end(), Inf);
  std::fill(Parent.begin(), Parent.end(), InvalidCity);
  std::fill(Degree.begin(), Degree.end(), 0u);
  for (std::vector<City> &List : Remaining)
    List.clear();
  for (City C = 1; C != Cities; ++C) {
    std::vector<City> &List = Remaining[C >= Half];
    Pos[C] = List.size();
    List.push_back(C);
  }

  // Prim over cities 1..2N-1, from city 1.
  double Cost = 0.0;
  City Next = 1;
  for (City Added = 1;; ++Added) {
    bool NextOut = Next >= Half;
    if (City P = Parent[Next]; P != InvalidCity) {
      Cost += (dist(Next, P) + Pi[Next]) + Pi[P];
      ++Degree[Next];
      ++Degree[P];
    }
    std::vector<City> &Own = Remaining[NextOut];
    City Last = Own.back();
    Own[Pos[Next]] = Last;
    Pos[Last] = Pos[Next];
    Own.pop_back();
    if (Added == Cities - 1)
      break;

    const double *Row = NextOut ? &OutRows[(Next - Half) * Half]
                                : &InRows[Next * Half];
    City Offset = NextOut ? 0 : static_cast<City>(Half);
    Candidate Other = scan<true>(Remaining[!NextOut], Next, Pi,
                                 [&](City C) { return Row[C - Offset]; });
    Candidate Same =
        OnlyFinite
            ? scan<false>(Own, Next, Pi, [](City) { return 0.0; })
            : scan<true>(Own, Next, Pi, [&](City) { return Forbidden; });
    bool SameLower = Same.Weight < Other.Weight ||
                     (Same.Weight == Other.Weight && Same.C < Other.C);
    Next = SameLower ? Same.C : Other.C;
    assert(std::min(Same.Weight, Other.Weight) < Inf &&
           "finite edges connect; Prim cannot stall");
  }

  // Attach city 0 with its two cheapest edges, scanning in city order.
  double First = Inf, Second = Inf;
  City FirstCity = InvalidCity, SecondCity = InvalidCity;
  auto Offer = [&](City C, double D) {
    double W = (D + Pi[0]) + Pi[C];
    if (W < First) {
      Second = First;
      SecondCity = FirstCity;
      First = W;
      FirstCity = C;
    } else if (W < Second) {
      Second = W;
      SecondCity = C;
    }
  };
  if (!OnlyFinite)
    for (City C = 1; C != Half; ++C)
      Offer(C, Forbidden);
  for (City J = 0; J != Half; ++J)
    Offer(J + static_cast<City>(Half), InRows[J]);
  Cost += First + Second;
  Degree[0] += 2;
  ++Degree[FirstCity];
  ++Degree[SecondCity];
  return Cost;
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
  OneTreeKernel Kernel(Transform);

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
    double TreeCost = Kernel.build(Pi);
    const std::vector<unsigned> &Degree = Kernel.degree();
    double PiSum = 0.0;
    for (double P : Pi)
      PiSum += P;
    double Bound = TreeCost - 2.0 * PiSum;
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
    for (unsigned D : Degree) {
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
      Pi[C] += Step * (static_cast<double>(Degree[C]) - 2.0);
  }
  // One publication per ascent keeps the registry out of the 1-tree loop.
  scopeCounterAdd("heldkarp.one-trees", Kernel.OneTrees);
  scopeCounterAdd("heldkarp.fallback-trees", Kernel.FallbackTrees);
  // The bound is valid at every iteration; the best seen never exceeds
  // the incumbent tour, which is feasible.
  double SymBound = std::min(BestBound, static_cast<double>(SymUpper));
  return SymBound + static_cast<double>(Offset);
}
