//===- tsp/Construct.h - Randomized tour construction ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Starting-tour construction for the iterated 3-Opt protocol. The paper
/// runs "5 times using randomized Greedy starts, 4 times using randomized
/// Nearest Neighbor starts, and once using the original ordering given by
/// the compiler". Both heuristics work directly on the directed instance
/// (the symmetric expansion is mechanical).
///
/// Randomization follows Johnson-McGeoch: instead of always taking the
/// single best candidate, choose uniformly among the best few.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_CONSTRUCT_H
#define BALIGN_TSP_CONSTRUCT_H

#include "support/Random.h"
#include "tsp/Instance.h"

namespace balign {

/// Randomized nearest-neighbor construction: start at a random city and
/// repeatedly move to one of the \p CandidateWindow nearest unvisited
/// cities (window 1 = classic deterministic NN from a random start).
std::vector<City> nearestNeighborTour(const DirectedTsp &Dtsp, Rng &Rng,
                                      unsigned CandidateWindow = 3);

/// Randomized greedy-edge construction: consider directed arcs in cost
/// order (with light randomized tie-jitter), accept an arc when its tail
/// has no successor yet, its head has no predecessor yet, and it closes
/// no premature cycle; finally stitch the resulting path fragments
/// together in arbitrary order. Draws one jitter per arc, in (from, to)
/// order, and meets the arcs in (cost, jitter, from, to) order a sorted
/// chunk at a time, dropping rejected arcs between chunks.
std::vector<City> greedyEdgeTour(const DirectedTsp &Dtsp, Rng &Rng);

/// The canonical identity tour 0, 1, ..., N-1 ("the original ordering
/// given by the compiler" once the alignment layer maps blocks in program
/// order).
std::vector<City> canonicalTour(size_t N);

} // namespace balign

#endif // BALIGN_TSP_CONSTRUCT_H
