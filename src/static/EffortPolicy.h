//===- static/EffortPolicy.h - Profile-guided solver effort ---------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The forward-feeding half of balign-lint: the static analyses
/// (dominators, loop nesting) combine with profile hotness to decide how
/// much solver effort each procedure deserves. The paper runs one fixed
/// protocol everywhere; this policy spends that protocol where it pays —
/// deep hot loop nests get more kicks per run, loop-free procedures get
/// fewer, and (under the most aggressive policy) cold procedures skip
/// the DTSP solve entirely and ship the greedy layout.
///
/// decideEffort is a pure function of (procedure, profile, base solver
/// options, policy). That purity is load-bearing: the alignment pipeline
/// calls it to pick the options it solves with, and the cache fingerprint
/// calls it to key what it stores — the two must agree bit-for-bit or a
/// policy change could serve stale hits. Anything result-affecting the
/// decision reads must come through those four arguments.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_STATIC_EFFORTPOLICY_H
#define BALIGN_STATIC_EFFORTPOLICY_H

#include "ir/CFG.h"
#include "profile/Profile.h"
#include "tsp/IteratedOpt.h"

#include <cstdint>
#include <string>

namespace balign {

/// How the pipeline spends solver effort across procedures.
enum class EffortPolicy : uint8_t {
  /// The paper's protocol: identical solver options everywhere.
  Uniform,
  /// Scale kicks per run by loop-nest depth and hotness: loop-free
  /// procedures run half the base iterations, hot nests of depth >= 2
  /// run depth-times the base (capped at 4x).
  Scaled,
  /// Scaled, plus: procedures whose profile executed fewer than
  /// ColdProcBranchThreshold branches skip the DTSP solve and ship the
  /// greedy layout.
  ScaledColdGreedy,
};

/// Below this many executed branches a procedure is cold enough that the
/// greedy layout's gap to optimal costs less than the solve (the paper's
/// Table 1 tail: most procedures execute almost no branches).
inline constexpr uint64_t ColdProcBranchThreshold = 32;

/// At or above this many executed branches a procedure is hot enough to
/// justify extra kicks when its loops nest.
inline constexpr uint64_t HotProcBranchThreshold = 1024;

/// What decideEffort settled on for one procedure.
struct EffortDecision {
  /// The solver options to use, derived from the base. Seed and Budget
  /// are copied through untouched — the pipeline derives the
  /// per-procedure seed and attaches the deadline after the decision.
  IteratedOptOptions Solver;

  /// True: skip matrix build, DTSP solve, and bounds; the TSP layout is
  /// the greedy layout (ScaledColdGreedy on a cold procedure).
  bool GreedyOnly = false;
};

/// Decides the effort for one procedure. Pure and deterministic; see the
/// file comment for why that matters.
EffortDecision decideEffort(const Procedure &Proc,
                            const ProcedureProfile &Profile,
                            const IteratedOptOptions &Base,
                            EffortPolicy Policy);

/// Parses "uniform", "scaled" or "scaled-cold-greedy". Returns false
/// (leaving \p Out alone) on anything else.
bool parseEffortPolicy(const std::string &Name, EffortPolicy &Out);

} // namespace balign

#endif // BALIGN_STATIC_EFFORTPOLICY_H
