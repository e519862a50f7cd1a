//===- workloads/Generator.h - Structured random CFG construction ---------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Builds procedures with compiler-shaped control flow: nested
/// if-then-else regions, natural loops, multiway dispatch, and early
/// returns, emitted in source order (which therefore *is* the "original"
/// layout the paper normalizes against). The generator records which
/// conditional blocks are loop headers so the behavior models can give
/// them realistic trip-count-driven biases.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_WORKLOADS_GENERATOR_H
#define BALIGN_WORKLOADS_GENERATOR_H

#include "ir/CFG.h"
#include "support/Random.h"

#include <string>
#include <vector>

namespace balign {

/// Shape parameters for one procedure.
struct GenParams {
  /// Approximate number of branch sites (conditional + multiway blocks).
  unsigned TargetBranchSites = 8;

  /// Fraction of branch sites realized as multiway dispatch.
  double MultiwayFraction = 0.05;

  /// Multiway arm count range.
  unsigned MultiwayArmsMin = 3;
  unsigned MultiwayArmsMax = 8;

  /// Probability that a conditional region is a loop rather than an if.
  double LoopFraction = 0.3;

  /// Fraction of loops emitted top-tested (while-style: conditional
  /// header + unconditional back edge). The rest are bottom-tested
  /// (do-while-style latch), which is what optimizing compilers emit and
  /// what keeps the original layout's loop-wrap cost at one
  /// correctly-predicted taken branch per iteration.
  double TopTestedLoopFraction = 0.25;

  /// Probability that an if-arm ends in an early return.
  double EarlyReturnProb = 0.1;

  /// Probability that an if region has an else arm. Else arms matter for
  /// alignment: whichever arm is hot, the original layout wastes cycles
  /// (a taken branch into a hot else, or a hot then-arm jumping over the
  /// else to the join), so higher values mean more removable penalty.
  double ElseFraction = 0.6;

  /// Straight-line block size range (instructions).
  uint32_t BlockSizeMin = 3;
  uint32_t BlockSizeMax = 12;

  /// Maximum region nesting depth.
  unsigned MaxDepth = 6;
};

/// A generated procedure plus the structural tags the behavior models
/// need.
struct GeneratedProcedure {
  Procedure Proc{"gen"};

  /// Per block: the successor index that stays inside the loop if the
  /// block is a loop header, -1 otherwise.
  std::vector<int8_t> LoopStayIndex;
};

/// Generates one verified procedure. Deterministic in (\p Params, \p Rng
/// state).
GeneratedProcedure generateProcedure(std::string Name,
                                     const GenParams &Params, Rng &Rng);

} // namespace balign

#endif // BALIGN_WORKLOADS_GENERATOR_H
