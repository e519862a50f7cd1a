//===- tsp/HeldKarp.cpp -------------------------------------------------------===//

#include "tsp/HeldKarp.h"

#include "trace/Scope.h"
#include "tsp/Transform.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

using namespace balign;

namespace {

constexpr double Inf = std::numeric_limits<double>::infinity();

/// A city outside the tree and its best attachment weight.
struct Candidate {
  double Weight = Inf;
  City C = InvalidCity;
};

/// The lower of two candidates by (weight, city).
Candidate lower(Candidate A, Candidate B) {
  return B.Weight < A.Weight || (B.Weight == A.Weight && B.C < A.C) ? B : A;
}

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
/// on the full matrix.
///
/// While, in addition, the heaviest pair weight (d = -M) is below the
/// lightest arc weight, a city's pair partner is the unique lightest city
/// outside the tree once the city joins, so it joins next without a
/// search (pairPrim; DESIGN.md section 5 derives it). The two
/// sides outside the tree then hold the same directed indices, apart from
/// city N (out-city 0, whose partner is city 0), and one ascending list
/// of those indices serves both: one pass per pair relaxes the in-side
/// against the pair's out-city and the out-side against its in-city, and
/// returns each side's lowest (Best, city). Every scan is ascending with
/// a strict <, so the lowest city wins among equal weights as in a scan
/// of the whole matrix.
class OneTreeKernel {
public:
  explicit OneTreeKernel(const SymmetricTransform &T)
      : Half(static_cast<City>(T.DirectedN)),
        Forbidden(static_cast<double>(T.LockBonus)), OutRows(Half * Half),
        InRows(Half * Half), Best(2 * Half), Parent(2 * Half),
        Degree(2 * Half), InTree(2 * Half) {
    assert(Half >= 3 && "the ascent needs at least three directed cities");
    // The dearest and the cheapest real arc (pair edges cost -LockBonus).
    MaxArc = std::numeric_limits<int64_t>::min();
    MinArc = std::numeric_limits<int64_t>::max();
    for (City I = 0; I != Half; ++I)
      for (City J = 0; J != Half; ++J) {
        OutRows[I * Half + J] = static_cast<double>(T.dist(I + Half, J));
        InRows[I * Half + J] = static_cast<double>(T.dist(I, J + Half));
        if (I != J) {
          MaxArc = std::max(MaxArc, T.Dtsp->cost(I, J));
          MinArc = std::min(MinArc, T.Dtsp->cost(I, J));
        }
      }
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

  /// Adds the edge joining \p C to the tree at \p P.
  void addEdge(City C, City P, const std::vector<double> &Pi, double &Cost) {
    Cost += (dist(C, P) + Pi[C]) + Pi[P];
    ++Degree[C];
    ++Degree[P];
  }

  /// Lowers Best[C] to \p W through \p Next when that is lighter, and
  /// returns Best[C].
  double relax(City C, double W, City Next) {
    if (W < Best[C]) {
      Best[C] = W;
      Parent[C] = Next;
    }
    return Best[C];
  }

  /// Prim on the finite path when pair partners join next.
  void pairPrim(const std::vector<double> &Pi, double &Cost);
  /// Prim scanning every city per step; on the finite path it relaxes
  /// only across the split.
  void scanPrim(const std::vector<double> &Pi, bool OnlyFinite,
                double &Cost);

  City Half;
  double Forbidden; ///< d(A, B) between two cities on one side.
  int64_t MaxArc, MinArc;
  std::vector<double> OutRows; ///< [i * N + j] = d(i_out, j_in).
  std::vector<double> InRows;  ///< [i * N + j] = d(i_in, j_out).
  std::vector<double> Best;
  std::vector<City> Parent;
  std::vector<unsigned> Degree;
  /// pairPrim: directed indices j >= 1 whose pair is outside the tree,
  /// ascending.
  std::vector<City> Live;
  std::vector<bool> InTree; ///< scanPrim: cities in the tree.
};

} // namespace

void OneTreeKernel::pairPrim(const std::vector<double> &Pi, double &Cost) {
  Live.resize(Half - 1);
  std::iota(Live.begin(), Live.end(), 1);
  bool HalfOutside = true;
  // City 1 joins first, without an edge.
  City Next = 1;
  for (;;) {
    // Next has joined. Its pair is (In, Out); unless Next is city N, its
    // partner joins too.
    City J = Next >= Half ? Next - Half : Next;
    City In = J, Out = J + Half;
    bool Pair = Next != Half;
    if (Pair) {
      Live.erase(std::lower_bound(Live.begin(), Live.end(), J));
      addEdge(Next == In ? Out : In, Next, Pi, Cost);
    } else {
      HalfOutside = false;
    }
    if (Live.empty() && !HalfOutside)
      return;
    // The in-side relaxes against Out, the out-side against In when In
    // is in the tree, that is, unless Next is city N.
    const double *InRow = &InRows[In * Half];
    const double *OutRow = &OutRows[J * Half];
    double PiIn = Pi[In], PiOut = Pi[Out];
    Candidate MinIn, MinOut;
    if (HalfOutside)
      MinOut = {relax(Half, (InRow[0] + PiIn) + Pi[Half], In), Half};
    for (City K : Live) {
      double B = relax(K, (OutRow[K] + PiOut) + Pi[K], Out);
      if (B < MinIn.Weight)
        MinIn = {B, K};
      City KOut = K + Half;
      B = Pair ? relax(KOut, (InRow[K] + PiIn) + Pi[KOut], In) : Best[KOut];
      if (B < MinOut.Weight)
        MinOut = {B, KOut};
    }
    Candidate Min = lower(MinIn, MinOut);
    assert(Min.Weight < Inf && "finite edges connect; Prim cannot stall");
    Next = Min.C;
    addEdge(Next, Parent[Next], Pi, Cost);
  }
}

void OneTreeKernel::scanPrim(const std::vector<double> &Pi, bool OnlyFinite,
                             double &Cost) {
  City Cities = 2 * Half;
  std::fill(InTree.begin(), InTree.end(), false);
  InTree[0] = true; // City 0 attaches after Prim.
  City Next = 1;
  for (City Added = 1;; ++Added) {
    InTree[Next] = true;
    if (Added != 1)
      addEdge(Next, Parent[Next], Pi, Cost);
    if (Added == Cities - 1)
      return;
    bool NextOut = Next >= Half;
    Candidate Min;
    for (City C = 1; C != Cities; ++C) {
      if (InTree[C])
        continue;
      double B = !OnlyFinite || (C >= Half) != NextOut
                     ? relax(C, (dist(Next, C) + Pi[Next]) + Pi[C], Next)
                     : Best[C];
      if (B < Min.Weight)
        Min = {B, C};
    }
    assert(Min.Weight < Inf && "finite edges connect; Prim cannot stall");
    Next = Min.C;
  }
}

double OneTreeKernel::build(const std::vector<double> &Pi) {
  // Weights are fl(fl(d + Pi[a]) + Pi[b]) and rounding is monotone, so
  // it suffices that the lightest forbidden weight (d = LockBonus, both
  // potentials minimal) beats the heaviest finite one (d = MaxArc, both
  // potentials maximal).
  auto [MinPi, MaxPi] = std::minmax_element(Pi.begin(), Pi.end());
  bool OnlyFinite = Forbidden + *MinPi + *MinPi >
                    static_cast<double>(MaxArc) + *MaxPi + *MaxPi;
  // Likewise the heaviest pair weight (d = -LockBonus) must beat the
  // lightest arc weight (d = MinArc) for partners to join next.
  bool PairFirst = OnlyFinite && -Forbidden + *MaxPi + *MaxPi <
                                     static_cast<double>(MinArc) + *MinPi +
                                         *MinPi;
  ++OneTrees;
  if (!OnlyFinite)
    ++FallbackTrees;

  std::fill(Best.begin(), Best.end(), Inf);
  std::fill(Degree.begin(), Degree.end(), 0u);
  double Cost = 0.0;
  if (PairFirst)
    pairPrim(Pi, Cost);
  else
    scanPrim(Pi, OnlyFinite, Cost);

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
    Offer(J + Half, InRows[J]);
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

  unsigned Iter = 0;
  for (; Iter != Iterations; ++Iter) {
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
  scopeCounterAdd("heldkarp.ascents", 1);
  // An ascent that no stop test ended ran into the iteration cap.
  scopeCounterAdd("heldkarp.capped-ascents", Iter == Iterations);
  // The bound is valid at every iteration; the best seen never exceeds
  // the incumbent tour, which is feasible.
  double SymBound = std::min(BestBound, static_cast<double>(SymUpper));
  return SymBound + static_cast<double>(Offset);
}
