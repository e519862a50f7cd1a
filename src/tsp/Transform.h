//===- tsp/Transform.h - DTSP to STSP 2-city transformation ---------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The standard NP-completeness transformation from the directed to the
/// symmetric TSP that the paper's appendix uses: "Our DTSP to STSP
/// transformation replaces each city by a pair of cities, with the edge
/// between them locked into the tour."
///
/// City i of the directed instance becomes an *in* city (index i) and an
/// *out* city (index i + N). Distances:
///   d(i_in,  i_out) = -LockBonus    (the locked pair edge)
///   d(i_out, j_in ) = c(i, j)       for i != j (a real directed arc)
///   everything else = +LockBonus    (forbidden: never profitable)
///
/// Any finite-cost symmetric tour alternates in/out and therefore encodes
/// a directed tour; its symmetric cost equals the directed cost minus
/// N * LockBonus, which the conversion helpers account for. The
/// transformation is a view: it answers d(A, B) by the rule above from
/// the directed matrix and stores no 2N x 2N matrix.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_TRANSFORM_H
#define BALIGN_TSP_TRANSFORM_H

#include "tsp/Instance.h"

namespace balign {

/// The pair-locked symmetric view of a directed instance.
struct SymmetricTransform {
  /// The directed instance; not owned, and must outlive the view.
  const DirectedTsp *Dtsp = nullptr;

  /// Number of cities in the original directed instance.
  size_t DirectedN = 0;

  /// Magnitude of the locked pair-edge bonus; also the forbidden-edge
  /// cost. Chosen larger than the total absolute cost of the directed
  /// instance so no finite improvement ever breaks a pair.
  int64_t LockBonus = 0;

  /// Cities of the symmetric instance: in-cities 0..N-1, then out-cities.
  size_t numCities() const { return 2 * DirectedN; }

  /// The symmetric distance d(A, B) by the pair-locked rule; the unused
  /// diagonal d(A, A) is 0.
  int64_t dist(City A, City B) const {
    assert(A < numCities() && B < numCities() && "city out of range");
    bool AOut = A >= DirectedN, BOut = B >= DirectedN;
    if (A == B)
      return 0;
    if (AOut == BOut)
      return LockBonus; // In-in and out-out edges are forbidden.
    City From = static_cast<City>(AOut ? A - DirectedN : B - DirectedN);
    City To = AOut ? B : A;
    return From == To ? -LockBonus : Dtsp->cost(From, To);
  }

  /// Cost of the cyclic symmetric tour visiting \p Tour in order.
  int64_t tourCost(const std::vector<City> &Tour) const;

  /// Expands a directed tour into the corresponding symmetric tour
  /// (i -> i_in, i_out).
  std::vector<City> toSymmetricTour(const std::vector<City> &Directed) const;

  /// Collapses an alternating symmetric tour back into a directed tour.
  /// Asserts the tour is alternating (every pair edge present).
  std::vector<City> toDirectedTour(const std::vector<City> &Symmetric) const;

  /// Converts a symmetric tour cost into the directed tour cost.
  int64_t toDirectedCost(int64_t SymCost) const {
    return SymCost + static_cast<int64_t>(DirectedN) * LockBonus;
  }
};

/// Builds the symmetric view of \p Dtsp: one pass for the lock bonus.
/// Requires at least two cities and bigMConstants(Dtsp).Fits.
SymmetricTransform transformToSymmetric(const DirectedTsp &Dtsp);

} // namespace balign

#endif // BALIGN_TSP_TRANSFORM_H
