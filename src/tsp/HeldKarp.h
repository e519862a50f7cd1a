//===- tsp/HeldKarp.h - Held-Karp 1-tree lower bound ------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The Held-Karp lower bound on symmetric TSP tour length (Held & Karp
/// 1970/1971, the paper's references [6, 7]), computed by Lagrangian
/// ascent over 1-trees with a subgradient step schedule. The paper uses
/// this bound — via its DTSP-to-STSP transformation (Transform.h) — to
/// prove that its tours, and hence its branch alignments, are within
/// 0.3% of optimal on average.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_HELDKARP_H
#define BALIGN_TSP_HELDKARP_H

#include "tsp/Instance.h"

namespace balign {

/// Tuning for the subgradient ascent.
struct HeldKarpOptions {
  /// Total subgradient iterations; 0 selects an instance-size-scaled
  /// default (clamped to [2000, 30000]). An ascent stops earlier once the
  /// bound is within the relative gap of the upper bound or a 1-tree is
  /// a tour, but many alignment instances run to the cap: 95 of the 573
  /// suite ascents with default options, and 106 of the 282 that
  /// perfbench's bounds-audit runs.
  unsigned Iterations = 0;
};

/// Initial step-size multiplier of the ascent (the classical alpha,
/// halved on stagnation).
constexpr double HeldKarpInitialAlpha = 2.0;

/// The ascent stops once the bound is within this fraction of the
/// incumbent tour (the bound cannot exceed it anyway), measured on the
/// *directed* cost scale: the symmetric scale is shifted by the huge
/// pair-lock offset and useless for relative comparisons.
constexpr double HeldKarpRelativeGapStop = 1e-4;

/// Held-Karp bound for a directed instance, by ascent on its pair-locked
/// symmetric view (Transform.h), mapped back to directed scale.
/// \p UpperBound is the cost of some feasible *directed* tour (used only
/// to scale subgradient steps and stop early). The returned value never
/// exceeds the optimal tour cost. Requires bigMConstants(Dtsp).Fits.
/// Adds the 1-trees the ascent built to the `heldkarp.one-trees` counter
/// and those built with forbidden edges to `heldkarp.fallback-trees`;
/// for N >= 3 it also adds one to `heldkarp.ascents`, and one to
/// `heldkarp.capped-ascents` when no stop test ended the ascent before
/// its iteration count.
double heldKarpBoundDirected(const DirectedTsp &Dtsp, int64_t UpperBound,
                             const HeldKarpOptions &Options = {});

} // namespace balign

#endif // BALIGN_TSP_HELDKARP_H
