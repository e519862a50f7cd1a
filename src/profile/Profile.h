//===- profile/Profile.h - Edge-frequency profiles ------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Edge-frequency profiles: the only information the branch-alignment
/// algorithms need from a program run. The paper instruments programs
/// with HALT and profiles a training input; we collect the identical data
/// (per-CFG-edge execution counts) from traces produced by the generator
/// in Trace.h.
///
/// Counts are stored parallel to Procedure successor lists:
/// EdgeCounts[B][I] is how many times execution followed the I-th
/// successor edge of block B.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_PROFILE_PROFILE_H
#define BALIGN_PROFILE_PROFILE_H

#include "ir/CFG.h"

#include <cstdint>
#include <vector>

namespace balign {

/// Counts above this are overflow-suspicious: penalties multiply counts
/// by up to 7 cycles and sum them in int64, so profile counts must stay
/// far below the 2^63 ceiling. balign-verify's profile-flow pass warns
/// above it and balign-lint's lint.counter-overflow check errs.
inline constexpr uint64_t ProfileOverflowLimit = uint64_t(1) << 56;

/// Per-procedure edge and block execution counts.
struct ProcedureProfile {
  /// EdgeCounts[B][I]: executions of the I-th successor edge of block B.
  std::vector<std::vector<uint64_t>> EdgeCounts;

  /// BlockCounts[B]: executions of block B (entries into the block).
  std::vector<uint64_t> BlockCounts;

  /// Creates a zeroed profile shaped like \p Proc.
  static ProcedureProfile zeroed(const Procedure &Proc);

  /// Total executions of conditional and multiway branch instructions
  /// (the paper's "executed branch instructions", Table 1).
  uint64_t executedBranches(const Procedure &Proc) const;

  /// Number of conditional/multiway blocks executed at least once (the
  /// paper's "branch sites touched", Table 1).
  size_t branchSitesTouched(const Procedure &Proc) const;

  /// Executions of block \p Id.
  uint64_t blockCount(BlockId Id) const { return BlockCounts[Id]; }

  /// Count of the edge \p From -> its \p SuccIndex-th successor.
  uint64_t edgeCount(BlockId From, size_t SuccIndex) const {
    return EdgeCounts[From][SuccIndex];
  }

  /// Index of the most frequently taken successor edge of \p From (ties
  /// broken toward the lower index so results are deterministic).
  /// Returns 0 for blocks with successors but no executions.
  size_t hottestSuccessor(BlockId From) const;

  /// True if the profile's vectors are shaped exactly like \p Proc:
  /// one block count per block and one edge-count list per block whose
  /// length matches the block's successor list. Anything that walks
  /// EdgeCounts parallel to the CFG (penalty evaluation, fingerprinting)
  /// requires this; the pipeline rejects profiles that fail it.
  bool shapeMatches(const Procedure &Proc) const;
};

/// Whole-program profile: one ProcedureProfile per procedure, in program
/// order.
struct ProgramProfile {
  std::vector<ProcedureProfile> Procs;

  uint64_t executedBranches(const Program &Prog) const;
  size_t branchSitesTouched(const Program &Prog) const;
};

} // namespace balign

#endif // BALIGN_PROFILE_PROFILE_H
