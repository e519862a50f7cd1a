//===- tsp/Assignment.h - Assignment-problem lower bound --------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The Assignment Problem (AP) relaxation of the directed TSP: the
/// minimum-cost collection of disjoint directed cycles covering all
/// cities, computed exactly with the Hungarian algorithm. A Hamiltonian
/// cycle is one such cover, so AP <= DTSP optimum. The paper's appendix
/// shows this classical bound is weak on branch-alignment instances
/// (median gap 30% on the esp.tl procedures where it is not tight),
/// motivating the Held-Karp bound instead; bench/paper_evaluation
/// reproduces that comparison.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_ASSIGNMENT_H
#define BALIGN_TSP_ASSIGNMENT_H

#include "tsp/Instance.h"

namespace balign {

/// Result of the AP relaxation.
struct AssignmentResult {
  int64_t Cost = 0;              ///< Minimum cycle-cover cost.
  std::vector<City> Successor;   ///< Successor[i] = city after i.
  size_t NumCycles = 0;          ///< Cycles in the optimal cover.
};

/// Solves the assignment relaxation of \p Dtsp (self-loops forbidden).
/// Requires at least 2 cities and bigMConstants(Dtsp).Fits.
AssignmentResult assignmentBound(const DirectedTsp &Dtsp);

} // namespace balign

#endif // BALIGN_TSP_ASSIGNMENT_H
