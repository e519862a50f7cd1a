//===- objective/Layout.h - Block layouts and their materialization -----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A branch alignment is "essentially a permutation of the basic blocks of
/// each procedure, implemented with the appropriate inversions of
/// conditional branches and insertions or deletions of unconditional
/// jumps to ensure that program semantics are maintained" (paper,
/// Section 2.1). Layout holds the permutation; materializeLayout performs
/// the inversions and fixup insertions, assigns addresses, and records the
/// static prediction of every branch (most common CFG successor on the
/// *training* profile, per Section 3.3).
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_OBJECTIVE_LAYOUT_H
#define BALIGN_OBJECTIVE_LAYOUT_H

#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "profile/Profile.h"

#include <vector>

namespace balign {

/// A permutation of a procedure's blocks; Order[0] must be the entry.
struct Layout {
  std::vector<BlockId> Order;

  /// The identity ("original") layout of \p Proc.
  static Layout original(const Procedure &Proc);

  /// True if Order is a permutation of the blocks starting at the entry.
  bool isValid(const Procedure &Proc) const;
};

/// One emitted unit in a materialized layout: an original block or an
/// inserted fixup jump.
struct LayoutItem {
  /// Original block id, or InvalidBlock for an inserted fixup jump.
  BlockId Block = InvalidBlock;

  /// For fixup jumps: the CFG block the jump transfers to.
  BlockId FixupTarget = InvalidBlock;

  /// Start address in bytes from the procedure base.
  uint64_t Address = 0;

  /// Size in instructions (fixup jumps are a single instruction),
  /// excluding any long-form branch growth (see LongForm).
  uint32_t SizeInstrs = 1;

  /// Under MachineModel::Encoding == ShortLong: true when the item's
  /// branch had to take the long form because its short-form displacement
  /// could not reach the target. Adds LongBranchExtraInstrs instructions
  /// to the item's emitted size (itemBytes in objective/Displace.h).
  /// Always false under the default Fixed encoding.
  bool LongForm = false;

  bool isFixup() const { return Block == InvalidBlock; }
};

/// How a conditional block was arranged by the materializer.
struct BranchArrangement {
  /// Successor reached when the conditional branch is taken.
  BlockId TakenTarget = InvalidBlock;

  /// Successor ultimately reached on fall-through (possibly via a fixup
  /// jump placed directly after the block).
  BlockId FallThroughTarget = InvalidBlock;

  /// Static prediction: true = predict taken. Derived from the training
  /// profile (predict the most common CFG successor).
  bool PredictTaken = false;

  /// True if a fixup jump was inserted after the block to realize the
  /// fall-through edge.
  bool FallThroughViaFixup = false;
};

/// The executable form of a layout.
struct MaterializedLayout {
  std::vector<LayoutItem> Items;

  /// Indexed by original block id: position of that block in Items.
  std::vector<size_t> ItemOfBlock;

  /// Indexed by original block id; meaningful for Conditional blocks.
  std::vector<BranchArrangement> Arrangements;

  /// Indexed by original block id; for Multiway blocks: the successor
  /// index predicted by the (training-profile) static predictor.
  std::vector<size_t> MultiwayPrediction;

  /// Total size in bytes.
  uint64_t TotalBytes = 0;

  /// Number of inserted fixup jumps.
  size_t NumFixups = 0;

  /// Number of items whose branch took the long form (0 under Fixed).
  size_t NumLongBranches = 0;

  /// Address of original block \p Id.
  uint64_t blockAddress(BlockId Id) const {
    return Items[ItemOfBlock[Id]].Address;
  }
};

/// Materializes \p Layout for \p Proc: chooses branch directions and
/// static predictions from \p Train (most common CFG successor), inserts
/// fixup jumps where neither successor of a conditional — or the single
/// successor of an unconditional — can fall through, and assigns byte
/// addresses. For conditionals whose both successors are laid out
/// elsewhere, the cheaper of the two fixup orientations under \p Model
/// and \p Train is chosen (the same rule the cost matrix uses, so
/// materialized penalties equal DTSP edge costs).
MaterializedLayout materializeLayout(const Procedure &Proc,
                                     const Layout &Layout,
                                     const ProcedureProfile &Train,
                                     const MachineModel &Model);

} // namespace balign

#endif // BALIGN_OBJECTIVE_LAYOUT_H
