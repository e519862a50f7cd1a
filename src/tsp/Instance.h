//===- tsp/Instance.h - Directed and symmetric TSP instances --------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Instance type for the traveling salesman solvers. The alignment layer
/// produces *directed* instances (edge cost = penalty cycles if city B
/// succeeds city A in the layout). The solvers work on the directed
/// matrix; the paper's symmetric transformation (Transform.h) is a view
/// of it that Held-Karp reads. Costs are int64 penalty-cycle counts;
/// "forbidden" structure is encoded with large finite values (the big-M
/// constants below) so every tour has a well-defined cost.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_INSTANCE_H
#define BALIGN_TSP_INSTANCE_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

namespace balign {

/// City index within a TSP instance.
using City = uint32_t;

/// Sentinel for "no city".
inline constexpr City InvalidCity = ~static_cast<City>(0);

/// A complete directed TSP instance over N cities (asymmetric costs).
/// Tours are cyclic permutations; the alignment layer adds a dummy city
/// so that minimum-cost *walks* (the paper's layouts) become minimum-cost
/// tours.
class DirectedTsp {
public:
  DirectedTsp() = default;

  /// Creates an instance with all costs zero.
  explicit DirectedTsp(size_t NumCities)
      : N(NumCities), Costs(NumCities * NumCities, 0) {}

  size_t numCities() const { return N; }

  int64_t cost(City From, City To) const {
    assert(From < N && To < N && "city out of range");
    return Costs[From * N + To];
  }

  void setCost(City From, City To, int64_t Cost) {
    assert(From < N && To < N && "city out of range");
    Costs[From * N + To] = Cost;
  }

  /// Cost of the cyclic tour visiting \p Tour in order (including the
  /// closing edge back to Tour.front()).
  int64_t tourCost(const std::vector<City> &Tour) const;

  /// Sum of |cost| over all off-diagonal entries, or nullopt if it does
  /// not fit in int64_t; the big-M constants below are sized from it.
  std::optional<int64_t> totalAbsCost() const;

private:
  size_t N = 0;
  std::vector<int64_t> Costs;
};

/// The big-M constants both lower bounds derive from the total absolute
/// cost T of a directed instance over N cities.
struct BigMConstants {
  /// False unless T and (N + 1) * LockBonus fit in int64_t; the latter
  /// bounds SelfLoopCost, the pair-lock offset N * LockBonus and every
  /// sum Held-Karp forms from them. Neither lower bound is defined on an
  /// instance that does not fit, and the constants below are then 0.
  bool Fits = false;

  /// T + 1: the pair-lock bonus and forbidden-edge cost of the symmetric
  /// transformation (Transform.h), which Held-Karp bounds.
  int64_t LockBonus = 0;

  /// 2T + 1: the assignment bound's cost for a self-loop, which no
  /// cycle cover may use.
  int64_t SelfLoopCost = 0;
};

/// Computes \p Dtsp's big-M constants with overflow-checked arithmetic.
BigMConstants bigMConstants(const DirectedTsp &Dtsp);

/// Returns true if \p Tour is a permutation of 0..N-1.
bool isValidTour(const std::vector<City> &Tour, size_t N);

} // namespace balign

#endif // BALIGN_TSP_INSTANCE_H
