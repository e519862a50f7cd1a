//===- tsp/LocalSearch.h - Directed segment-insertion local search ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The 3-Opt local search of the paper's solver, run on the directed tour.
///
/// The paper searches the pair-locked symmetric transformation
/// (Transform.h) with 2-opt and Or-opt moves, in the style of Johnson &
/// McGeoch's TSP case study (the paper's reference [10]). On a
/// pair-locked tour, written in -> out, almost none of those moves can
/// improve: the lock bonus exceeds the instance's total absolute cost,
/// so any move that breaks a pair edge or adds a forbidden edge loses.
/// What remains is exactly one family (the *move lemma*): a forward
/// insertion, after an out-city, of a segment of whole pairs that starts
/// at an in-city. Collapsed to the directed tour, that is the insertion
/// of a segment a..s of 1-6 cities between a city c and its successor,
/// and its symmetric delta equals the directed insertion delta.
///
/// This search evaluates only that family, in the order the symmetric
/// search meets it, so it takes the same moves and returns the same
/// tours as that search on 2N cities (SolverPinTest pins them):
///
///  * a LIFO don't-look queue of cities; a popped city a is retried
///    until it yields nothing;
///  * segments a..s of 1 to min(6, N/2) cities, shortest first;
///  * for each, the candidate predecessors c of a in list order; the
///    first insertion after c with a negative delta is applied, and a,
///    succ(s) and the old succ(c) are re-queued in that order.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_LOCALSEARCH_H
#define BALIGN_TSP_LOCALSEARCH_H

#include "tsp/Instance.h"

#include <span>
#include <vector>

namespace balign {

/// Candidate predecessor lists for a directed instance; shared across all
/// local-search invocations on it. The list of city A holds the cities
/// J != A in (cost(J, A), J) order — the real arcs of A's in-city
/// symmetric neighbor list — cut to K - 1 entries, because that list of
/// width K spent its first slot on A's locked twin.
class PredecessorLists {
public:
  PredecessorLists(const DirectedTsp &Dtsp, unsigned K);

  std::span<const City> candidates(City A) const {
    return {Lists.data() + A * Width, Width};
  }

private:
  size_t Width = 0;
  std::vector<City> Lists; ///< Row A is candidates(A).
};

/// Runs segment-insertion local search to exhaustion on the directed
/// \p Tour, rewritten in place as the local optimum rotated to start at
/// city 0; returns its cost. If \p Seeds is non-null, only the listed
/// cities start active (the standard iterated-local-search trick after a
/// kick: everything far from the perturbed edges is already locally
/// optimal); otherwise every city starts active.
int64_t localSearchDirected(const DirectedTsp &Dtsp,
                            const PredecessorLists &Candidates,
                            std::vector<City> &Tour,
                            const std::vector<City> *Seeds = nullptr);

} // namespace balign

#endif // BALIGN_TSP_LOCALSEARCH_H
