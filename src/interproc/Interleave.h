//===- interproc/Interleave.h - Whole-program call interleavings -----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The paper closes with "we would like to try to generalize our method
/// to the interprocedural code placement problem" (Section 6). This
/// module provides the substrate that makes procedure *order* matter: a
/// call sequence interleaving the invocations of every procedure, and an
/// affinity graph derived from it.
///
/// The per-procedure traces of a workload record each procedure's
/// invocations back-to-back; a CallSequence says in which global order
/// those invocations actually happened. Procedures whose invocations
/// alternate rapidly contend for instruction-cache sets unless the
/// linker places them apart-but-non-conflicting — which is exactly what
/// Pettis-Hansen procedure ordering optimizes with call-graph weights.
/// We use temporal co-occurrence weights (how often two procedures run
/// within a small window of each other), the cache-relevant
/// generalization of call-edge counts.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_INTERPROC_INTERLEAVE_H
#define BALIGN_INTERPROC_INTERLEAVE_H

#include "support/Random.h"

#include <cstdint>
#include <vector>

namespace balign {

/// A whole-program invocation order: element K names the procedure whose
/// next (so-far-unconsumed) invocation runs K-th.
using CallSequence = std::vector<size_t>;

/// Options for synthesizing a call sequence.
struct InterleaveOptions {
  /// Expected run length of consecutive invocations of the same
  /// procedure (phase behavior); 1 = fully random interleaving.
  double BurstLength = 4.0;

  uint64_t Seed = 0x1e11ULL;
};

/// Builds a call sequence consuming exactly \p InvocationCounts[P]
/// invocations of every procedure P, with bursty, clustered phase
/// behavior.
CallSequence generateCallSequence(const std::vector<uint64_t> &InvocationCounts,
                                  const InterleaveOptions &Options);

/// Symmetric temporal-affinity weights: Affinity[A][B] counts how often
/// procedures A and B appear within \p Window positions of each other in
/// \p Sequence (A != B). This is the interprocedural analogue of CFG
/// edge counts.
std::vector<std::vector<uint64_t>>
computeAffinity(const CallSequence &Sequence, size_t NumProcs,
                size_t Window = 4);

} // namespace balign

#endif // BALIGN_INTERPROC_INTERLEAVE_H
