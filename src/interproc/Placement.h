//===- interproc/Placement.h - Interprocedural placement simulation --------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Evaluates a procedure placement: materialized procedures are laid out
/// in the given order in one address space and the whole-program call
/// sequence is replayed invocation-by-invocation over a shared
/// instruction cache. Procedure order changes which procedures' lines
/// conflict in the direct-mapped cache, so orders that keep temporally
/// affine procedures adjacent (Pettis-Hansen, TSP) fetch fewer lines
/// twice.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_INTERPROC_PLACEMENT_H
#define BALIGN_INTERPROC_PLACEMENT_H

#include "interproc/Interleave.h"
#include "interproc/ProcOrder.h"
#include "ir/CFG.h"
#include "objective/Layout.h"
#include "profile/Trace.h"
#include "sim/Simulator.h"

#include <vector>

namespace balign {

/// Per-procedure base addresses for the placement \p Order (order names
/// procedure indices; the returned vector is indexed by procedure).
std::vector<uint64_t>
placementBases(const std::vector<MaterializedLayout> &Layouts,
               const ProcOrder &Order, uint64_t LineBytes);

/// Replays \p Sequence over the placement: the K-th entry consumes the
/// next unconsumed invocation slice of that procedure's trace. Entries
/// for procedures whose slices are exhausted are skipped (the sequence
/// generator normally consumes each trace exactly).
SimResult simulatePlacement(const Program &Prog,
                            const std::vector<MaterializedLayout> &Layouts,
                            const std::vector<ExecutionTrace> &Traces,
                            const CallSequence &Sequence,
                            const ProcOrder &Order, const SimConfig &Config);

/// Convenience: invocation counts per procedure derived from the traces
/// (the input generateCallSequence needs).
std::vector<uint64_t>
invocationCounts(const Program &Prog,
                 const std::vector<ExecutionTrace> &Traces);

} // namespace balign

#endif // BALIGN_INTERPROC_PLACEMENT_H
