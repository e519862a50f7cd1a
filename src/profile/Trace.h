//===- profile/Trace.h - Execution traces and their generation ------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The seeded Markov-chain walk that substitutes for running instrumented
/// SPEC92 binaries (see DESIGN.md, Section 2), and the execution traces
/// it can record along the way.
///
/// A "data set" in the paper is a concrete program input; fixing the input
/// fixes the execution trace (paper Section 2). Here a data set is a
/// BranchBehavior — per-branch successor probabilities plus a branch
/// budget — and fixing (behavior, seed) fixes the walk the same way.
/// Distinct data sets for the same benchmark share the CFG but have
/// different biases, which is what makes the Figure 3 cross-validation
/// meaningful.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_PROFILE_TRACE_H
#define BALIGN_PROFILE_TRACE_H

#include "ir/CFG.h"
#include "profile/Profile.h"
#include "robust/Deadline.h"
#include "support/Random.h"

#include <cstdint>
#include <stdexcept>
#include <vector>

namespace balign {

/// A procedure-level execution trace: the concatenated block sequences of
/// every invocation of the procedure. An invocation starts at the entry
/// block and ends at a Return block, so invocation boundaries are
/// recoverable from the trace itself.
struct ExecutionTrace {
  std::vector<BlockId> Blocks;
  uint64_t Invocations = 0;

  bool empty() const { return Blocks.empty(); }
  size_t size() const { return Blocks.size(); }
};

/// Per-procedure branch behavior: for every block, a probability
/// distribution over its successor edges (parallel to the successor
/// lists; each row sums to 1 for blocks with successors).
struct BranchBehavior {
  std::vector<std::vector<double>> Probs;

  /// Uniform behavior for \p Proc (every successor equally likely).
  static BranchBehavior uniform(const Procedure &Proc);

  /// Validates shape and row sums (within tolerance).
  bool isValid(const Procedure &Proc) const;
};

/// Blocks one invocation of walkProfile may visit without returning; only
/// a loop with no exit (or one its behavior never takes) gets this far.
inline constexpr uint64_t MaxBlocksPerInvocation = uint64_t(1) << 20;

/// Thrown by walkProfile when an invocation reaches
/// MaxBlocksPerInvocation: such a procedure has no synthetic profile, and
/// the caller must supply a measured one.
class ProfileWalkError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// Walks \p Proc from its entry to a return, over and over, choosing
/// successors by \p Behavior and counting each block and edge as it
/// steps. It stops once \p BranchBudget conditional/multiway branches
/// have executed (checked per invocation; the last one winds down along a
/// shortest path to a return), or after an invocation that executed no
/// branch: each of its choices was forced, so every later one would
/// repeat it. A zero budget walks nothing; the profile is flow-consistent.
/// With \p Trace, the visited blocks are also appended to it (and its
/// Invocations advanced) for callers that replay them, such as the
/// simulator; the walk and its \p Rng draws are the same either way.
/// Throws ProfileWalkError when an invocation reaches
/// MaxBlocksPerInvocation. With \p Limit, the walk polls it before each
/// invocation and throws DeadlineExceeded once it has expired.
ProcedureProfile walkProfile(const Procedure &Proc,
                             const BranchBehavior &Behavior, Rng &Rng,
                             uint64_t BranchBudget,
                             ExecutionTrace *Trace = nullptr,
                             const Deadline *Limit = nullptr);

} // namespace balign

#endif // BALIGN_PROFILE_TRACE_H
