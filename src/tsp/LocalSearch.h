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
/// It finds that first move from few reads (LocalSearchOracleTest
/// compares it with a search that evaluated every pair):
///
///  * Per-call terms. Nothing moves within one call until the move it
///    returns, so each candidate c's successor d_c = succ(c) and its
///    term B_c = cost(c, a) - cost(c, d_c) are read once per call:
///    cost(c, a) sits beside c in its list, and the tour keeps
///    cost(x, succ x) per city, updated on the three arcs a move
///    rewrites. An evaluation is then B_c + cost(s, d_c) - gain(len),
///    one matrix read, where gain(len) = cost(p, a) + cost(s, succ s) -
///    cost(p, succ s) and p = pred(a). It equals the delta summed in any
///    other order as long as no partial sum overflows, which holds when
///    every cost lies within a third of the int64 range of zero and the
///    costs span at most a third of it. Only the alignment reduction's
///    buildPinnedTsp checks this: its costs lie in [0, INT64_MAX / 3],
///    or it rejects the profile. The other two inputs are bounded only
///    by their weights: refineLayoutForEncoding adds long-branch
///    surcharges to pinned costs after that check, and interproc's
///    tspOrder prices a pair as the largest affinity minus the pair's.
///  * Segment members are marked per city as the segment grows, one
///    mark per length, and unmarked before the call returns.
///  * The exact prune. Let m_s be the least cost(s, x) over x != s (per
///    instance, in PredecessorLists). A candidate that is not skipped
///    has d_c != s: d_c = s would make c the predecessor of s, which is
///    p or a segment member. So every delta at a length is at least
///    min_c B_c + m_s - gain(len), the minimum taken over all of a's
///    candidates; when that sum is >= 0 (and does not overflow) no move
///    at that length improves, and the length is skipped without
///    changing the first improving move. m_s is the row's true minimum,
///    not 0, because DirectedTsp allows negative costs.
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
  /// A candidate predecessor J of city A, with cost(J, A).
  struct Entry {
    int64_t CostToA;
    City J;
  };

  PredecessorLists(const DirectedTsp &Dtsp, unsigned K);

  std::span<const Entry> candidates(City A) const {
    return {Lists.data() + A * Width, Width};
  }

  size_t width() const { return Width; }

  /// The least cost(A, X) over X != A.
  int64_t minOutCost(City A) const { return MinOut[A]; }

private:
  size_t Width = 0;
  std::vector<Entry> Lists;    ///< Row A is candidates(A).
  std::vector<int64_t> MinOut; ///< Per city, minOutCost.
};

/// Segment-insertion local search on one instance. It keeps the tour's
/// linked list and its scratch between runs, so one object serves every
/// kick of a solve without allocating. Every run leaves its queue and
/// segment marks clear.
class LocalSearch {
public:
  LocalSearch(const DirectedTsp &Dtsp, const PredecessorLists &Candidates);

  /// Runs the search to exhaustion on the directed \p Tour, rewritten in
  /// place as the local optimum rotated to start at city 0; returns its
  /// cost. If \p Seeds is non-null, only the listed cities start active
  /// (the standard iterated-local-search trick after a kick: everything
  /// far from the perturbed edges is already locally optimal); otherwise
  /// every city starts active.
  int64_t run(std::vector<City> &Tour,
              const std::vector<City> *Seeds = nullptr);

private:
  /// One candidate predecessor C of the city being improved, with its
  /// successor D and B = cost(C, A) - cost(C, D), fixed for the call.
  struct Term {
    int64_t B;
    City C;
    City D;
  };

  /// Longest segment moved. The symmetric search moved up to 12 cities,
  /// i.e. 6 locked pairs: runs of basic blocks that want to move as
  /// units.
  static constexpr unsigned MaxSegment = 6;

  const DirectedTsp &Dtsp;
  const PredecessorLists &Candidates;
  std::vector<City> Succ, Pred;
  std::vector<int64_t> SuccCost; ///< cost(X, Succ[X]) per city X.
  std::vector<City> Queue;       ///< LIFO don't-look queue.
  std::vector<uint8_t> InQueue;
  std::vector<uint8_t> InSegment; ///< Members of the segment being tried.
  std::vector<Term> Terms;        ///< One per candidate of the call.

  void pushActive(City C);
  bool improveCity(City A);
  /// Clears the marks of the segment of \p Len cities from \p A.
  void unmark(City A, unsigned Len);
};

} // namespace balign

#endif // BALIGN_TSP_LOCALSEARCH_H
