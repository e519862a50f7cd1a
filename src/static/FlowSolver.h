//===- static/FlowSolver.h - Profile flow reconstruction ------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The profile dataflow analysis of balign-lint: given a procedure and
/// an edge profile, reconstruct missing edge counts from Kirchhoff flow
/// conservation and classify the profile as consistent, repairable, or
/// contradictory.
///
/// The conservation law is the one the trace model fixes (and that
/// balign-verify's profile-flow pass checks post-hoc, by reading
/// flowViolations): an invocation
/// enters at the entry and leaves through a Return, so for every block B
///
///   sum of in-edge counts  == BlockCounts[B]   (B != entry; the entry
///                                               absorbs one external
///                                               arrival per invocation,
///                                               so inflow <= count)
///   sum of out-edge counts == BlockCounts[B]   (non-Return B)
///
/// Unknown edges — those an explicit mask marks missing, or (by default)
/// those recorded as zero while their endpoints executed — are treated
/// as variables and solved by single-unknown propagation: any equation
/// with exactly one unknown determines it; solved values enable further
/// equations, to a fixpoint. Residuals that no unknown can absorb, a
/// derived negative value, or two equations disagreeing about one edge
/// prove the profile contradictory. Underdetermined residual is assigned
/// greedily to the lowest-numbered unknown of its equation, so the
/// reconstruction is total and deterministic — lint's "suggested repair"
/// must not depend on hash order or scheduling.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_STATIC_FLOWSOLVER_H
#define BALIGN_STATIC_FLOWSOLVER_H

#include "ir/CFG.h"
#include "profile/Profile.h"

#include <cstdint>
#include <string>
#include <vector>

namespace balign {

/// Verdict of the flow analysis on one procedure's profile.
enum class ProfileClass : uint8_t {
  Consistent,    ///< Conservation holds everywhere as given.
  Repairable,    ///< Violations exist but a non-negative assignment of
                 ///< the unknown edges restores conservation.
  Contradictory, ///< No assignment of the unknowns can balance the flow.
};

/// Returns "consistent", "repairable", or "contradictory".
const char *profileClassName(ProfileClass C);

/// One reconstructed edge count: the suggested repair for the edge
/// From -> its SuccIndex-th successor.
struct FlowRepair {
  BlockId From = InvalidBlock;
  size_t SuccIndex = 0;
  BlockId To = InvalidBlock;
  uint64_t Count = 0; ///< The value restoring conservation.
};

/// One conservation violation in the profile as given.
struct FlowViolation {
  BlockId Block = InvalidBlock;
  bool Inflow = false; ///< True: in-edge side; false: out-edge side.
  uint64_t Have = 0;   ///< Sum of the given edge counts.
  uint64_t Want = 0;   ///< The block count the sum must meet.
};

/// The full result of analyzing one procedure's profile.
struct FlowAnalysis {
  ProfileClass Class = ProfileClass::Consistent;

  /// Conservation violations of the profile exactly as given (before
  /// reconstruction), in ascending block order.
  std::vector<FlowViolation> Violations;

  /// Deterministic assignments to unknown edges that restore (or move
  /// toward) conservation. Meaningful unless Class is Contradictory.
  std::vector<FlowRepair> Repairs;

  /// The profile with Repairs applied. Flow-consistent when Class is
  /// Consistent or Repairable; best-effort otherwise.
  ProcedureProfile Repaired;

  /// Human-readable account of the first contradiction, empty otherwise.
  std::string Contradiction;
};

/// The conservation violations of \p Profile exactly as given, in
/// ascending block order (FlowAnalysis::Violations): in-edge sums that
/// miss the block count (at the entry, only sums above it), and
/// out-edge sums of non-Return blocks that miss it. Sums are taken in
/// 128 bits, so counts near 2^64 cannot wrap into a fake balance, and a
/// sum past 2^64 - 1 is reported as 2^64 - 1. balign-verify's
/// profile-flow pass reads these without the rest of analyzeFlow. The
/// profile must be shaped like the procedure.
std::vector<FlowViolation> flowViolations(const Procedure &Proc,
                                          const ProcedureProfile &Profile);

/// Per-edge known/unknown mask, shaped like ProcedureProfile::EdgeCounts.
using EdgeMask = std::vector<std::vector<bool>>;

/// Analyzes \p Profile against \p Proc. With \p Known null, an edge is
/// unknown iff its count is zero while both endpoints have nonzero block
/// counts (the stale-profile signature); with a mask, exactly the edges
/// it marks false are unknown (their given counts are ignored). The
/// profile must be shaped like the procedure (callers screen shape
/// first; LintEngine does).
FlowAnalysis analyzeFlow(const Procedure &Proc,
                         const ProcedureProfile &Profile,
                         const EdgeMask *Known = nullptr);

} // namespace balign

#endif // BALIGN_STATIC_FLOWSOLVER_H
