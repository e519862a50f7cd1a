//===- tsp/IteratedOpt.h - Iterated local search for the DTSP --------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The paper's solution procedure: iterated 3-Opt (Martin-Otto-Felten
/// large-step Markov chains) on the pair-locked symmetric transformation
/// of the directed instance, whose improving moves LocalSearch.h applies
/// to the directed tour directly. Each iteration runs local search to
/// exhaustion and then applies a random double-bridge 4-opt kick to the
/// best tour found so far.
///
/// Protocol defaults copy the paper: "we ran it 10 times on each
/// instance, 5 times using randomized Greedy starts, 4 times using
/// randomized Nearest Neighbor starts, and once using the original
/// ordering given by the compiler. Each run consists of 2N iterations,
/// where N is the number of cities in the original DTSP."
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TSP_ITERATEDOPT_H
#define BALIGN_TSP_ITERATEDOPT_H

#include "robust/Deadline.h"
#include "support/Random.h"
#include "tsp/Instance.h"

namespace balign {

/// Tuning knobs for solveDirectedTsp. The defaults reproduce the paper's
/// protocol; benches that sweep solver effort adjust them.
struct IteratedOptOptions {
  unsigned GreedyStarts = 5;         ///< Randomized greedy-edge starts.
  unsigned NearestNeighborStarts = 4;///< Randomized nearest-neighbor starts.
  bool CanonicalStart = true;        ///< One run from the compiler order.
  double IterationsFactor = 2.0;     ///< Kicks per run = Factor * N.
  unsigned MinIterationsPerRun = 30; ///< Floor so tiny instances explore.
  unsigned NeighborListSize = 12;    ///< Candidate-list width.
  uint64_t Seed = 0x7357u;           ///< Root seed (runs fork from it).

  /// Cooperative wall-clock budget (balign-shield): polled between runs
  /// and at kick boundaries; on expiry the solver throws
  /// DeadlineExceeded, which the pipeline's per-procedure isolation
  /// turns into a degradation-ladder fallback. Not owned, may be null
  /// (no budget), and deliberately NOT part of the cache fingerprint —
  /// budget-tripped results are never cached.
  const Deadline *Budget = nullptr;
};

/// Safety cap on the kicks of one run.
constexpr unsigned MaxIterationsPerRun = 1u << 16;

/// Result of solving one directed instance.
struct DtspSolution {
  std::vector<City> Tour; ///< Best directed tour found.
  int64_t Cost = 0;       ///< Its directed cost.
  unsigned NumRuns = 0;   ///< Total independent runs performed.
  /// How many runs independently reached Cost; the appendix reports that
  /// on 128 of esp.tl's 179 procedures all 10 runs tied.
  unsigned RunsFindingBest = 0;
};

/// Applies a random double-bridge move to \p Tour (a directed tour; all
/// segments keep their direction). No-op for tours shorter than 4. If
/// \p Touched is non-null it receives the cities adjacent to the four
/// reconnected edges (the natural restart seeds for local search).
void doubleBridge(std::vector<City> &Tour, Rng &Rng,
                  std::vector<City> *Touched = nullptr);

/// Solves \p Dtsp with the iterated 3-Opt protocol above.
DtspSolution solveDirectedTsp(const DirectedTsp &Dtsp,
                              const IteratedOptOptions &Options);

} // namespace balign

#endif // BALIGN_TSP_ITERATEDOPT_H
