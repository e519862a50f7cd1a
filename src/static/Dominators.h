//===- static/Dominators.h - CHK dominator tree ---------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The dominator tree of a Procedure's CFG, computed with the
/// Cooper-Harvey-Kennedy iterative algorithm ("A Simple, Fast Dominance
/// Algorithm"): number the blocks in reverse postorder, then iterate
/// two-finger idom intersection to a fixpoint. On the small, shallow
/// CFGs the alignment pipeline sees this beats Lengauer-Tarjan on both
/// code size and constant factor, and the RPO numbering it produces is
/// reused by the loop and flow analyses.
///
/// This is the foundation layer of balign-lint (src/static): every
/// analysis here runs *before* alignment, never mutates its inputs, and
/// is a pure function of the Procedure — so lint runs cannot perturb
/// alignment results by construction.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_STATIC_DOMINATORS_H
#define BALIGN_STATIC_DOMINATORS_H

#include "ir/CFG.h"

#include <vector>

namespace balign {

/// Immediate-dominator tree over a procedure's CFG. Blocks unreachable
/// from the entry have no dominator information (reachable() is false
/// and idom() is InvalidBlock); callers that care run reachability or
/// lint first.
class DominatorTree {
public:
  /// Computes the tree for \p Proc. Always succeeds; unreachable blocks
  /// simply stay outside the tree.
  static DominatorTree compute(const Procedure &Proc);

  /// The immediate dominator of \p B, or InvalidBlock for the entry and
  /// for unreachable blocks.
  BlockId idom(BlockId B) const { return Idom[B]; }

  /// True when \p B is reachable from the entry (equivalently: in the
  /// dominator tree).
  bool reachable(BlockId B) const {
    return B == Entry || Idom[B] != InvalidBlock;
  }

  /// True when \p A dominates \p B (reflexively: every block dominates
  /// itself). False whenever \p B is unreachable.
  bool dominates(BlockId A, BlockId B) const;

  /// Depth of \p B in the dominator tree (entry = 0); 0 for unreachable
  /// blocks, which are not in the tree.
  unsigned depth(BlockId B) const { return Depth[B]; }

  /// The blocks reachable from the entry in reverse postorder. The
  /// entry is always first; this is the canonical iteration order for
  /// the forward dataflow analyses built on top.
  const std::vector<BlockId> &reversePostOrder() const { return Rpo; }

  /// Position of \p B in reversePostOrder(); undefined for unreachable
  /// blocks.
  unsigned rpoIndex(BlockId B) const { return RpoIndex[B]; }

private:
  BlockId Entry = 0;
  std::vector<BlockId> Idom;      ///< Per block; InvalidBlock = none.
  std::vector<unsigned> Depth;    ///< Tree depth; entry and unreachable 0.
  std::vector<BlockId> Rpo;       ///< Reachable blocks, reverse postorder.
  std::vector<unsigned> RpoIndex; ///< Block -> position in Rpo.
};

} // namespace balign

#endif // BALIGN_STATIC_DOMINATORS_H
