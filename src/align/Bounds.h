//===- align/Bounds.h - Provable lower bounds on control penalty ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// "Mathematically provable lower bounds on DTSP costs give us the lowest
/// control penalty that any branch alignment can hope to achieve"
/// (paper, Section 1). This module maps the Held-Karp and Assignment
/// bounds of the tsp library onto branch-alignment instances, removing
/// the entry-pin constant so reported bounds are in pure penalty cycles.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_BOUNDS_H
#define BALIGN_ALIGN_BOUNDS_H

#include "align/Reduction.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "profile/Profile.h"
#include "tsp/HeldKarp.h"

namespace balign {

/// Lower bounds for one procedure's alignment instance.
struct PenaltyBounds {
  /// Held-Karp bound on the minimum achievable control penalty (cycles),
  /// clamped to be non-negative.
  double HeldKarp = 0.0;

  /// Assignment-problem bound (cycles); the weaker classical bound the
  /// appendix compares against. Clamped to be non-negative.
  int64_t Assignment = 0;

  /// Number of cycles in the optimal assignment cover (1 means the AP
  /// bound is attained by an actual tour and is therefore exact).
  size_t AssignmentCycles = 0;
};

/// Computes both bounds for \p Proc. \p UpperBound must be the penalty of
/// some feasible layout (e.g. the TSP aligner's result); it scales the
/// Held-Karp subgradient steps and caps the returned bound. An instance
/// whose big-M constants overflow (bigMConstants) gets the trivial
/// bounds, all 0, and neither solver runs.
PenaltyBounds computePenaltyBounds(const Procedure &Proc,
                                   const ProcedureProfile &Train,
                                   const MachineModel &Model,
                                   uint64_t UpperBound,
                                   const HeldKarpOptions &Options = {});

} // namespace balign

#endif // BALIGN_ALIGN_BOUNDS_H
