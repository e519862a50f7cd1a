//===- static/Reachability.h - Forward/backward CFG reachability ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Forward reachability (from the entry) and backward reachability (to
/// any Return block) over a Procedure. The two bit-vectors partition the
/// blocks into the live core (both), dead code (neither / not forward),
/// and trapped regions (forward-reachable but unable to exit — the
/// infinite-loop smell lint reports). Pure and allocation-light; used by
/// the lint checks, by balign-verify's cfg-verify pass, and by tests as
/// the brute-force-comparable baseline.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_STATIC_REACHABILITY_H
#define BALIGN_STATIC_REACHABILITY_H

#include "ir/CFG.h"

#include <vector>

namespace balign {

/// Reachability facts for one procedure.
struct Reachability {
  /// FromEntry[B]: a CFG path entry ->* B exists.
  std::vector<bool> FromEntry;

  /// ToExit[B]: a CFG path B ->* some Return block exists.
  std::vector<bool> ToExit;

  /// True when the block is live: reachable from the entry and able to
  /// reach an exit.
  bool live(BlockId B) const { return FromEntry[B] && ToExit[B]; }
};

/// Computes both directions for \p Proc.
Reachability computeReachability(const Procedure &Proc);

} // namespace balign

#endif // BALIGN_STATIC_REACHABILITY_H
