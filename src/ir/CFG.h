//===- ir/CFG.h - Basic blocks, procedures, and programs -----------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The minimal compiler IR the branch-alignment algorithms consume: a
/// program is a list of procedures; a procedure is a control-flow graph of
/// basic blocks; each block carries an instruction count (for address
/// assignment and cycle accounting) and a terminator kind that determines
/// which rows of the paper's Table 3 apply to it.
///
/// Terminator kinds:
///  * Unconditional - exactly one CFG successor. Whether any branch
///    instruction exists is a property of the *layout*: if the successor
///    is the layout successor the block simply falls through (0 cycles,
///    the paper's "no branch" row); otherwise an unconditional branch is
///    required (2 cycles on the 21164 model).
///  * Conditional   - exactly two distinct CFG successors; the layout
///    decides which one (if either) is the fall-through.
///  * Multiway      - a register/indirect jump with two or more possible
///    targets (e.g. a switch dispatch); it never falls through.
///  * Return        - procedure exit; no CFG successors.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_IR_CFG_H
#define BALIGN_IR_CFG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace balign {

/// Index of a basic block within its procedure.
using BlockId = uint32_t;

/// Sentinel for "no block".
inline constexpr BlockId InvalidBlock = ~static_cast<BlockId>(0);

/// Classification of the control-transfer instruction ending a block.
enum class TerminatorKind : uint8_t {
  Unconditional, ///< One successor; branch only if layout demands it.
  Conditional,   ///< Two successors; direction chosen at runtime.
  Multiway,      ///< Indirect jump; >= 2 successors, never falls through.
  Return,        ///< Procedure exit; no successors.
};

/// Returns a stable lowercase mnemonic ("jump", "cond", "multi", "ret").
const char *terminatorKindName(TerminatorKind Kind);

/// The successor-count rule of \p Kind as verify words it, e.g.
/// "cond needs exactly 2 successors".
const char *arityRule(TerminatorKind Kind);

/// A structural rule a procedure breaks.
enum class CfgRule : uint8_t {
  NoBlocks,       ///< The procedure has no blocks.
  SuccOutOfRange, ///< A successor names no block.
  EmptyBlock,     ///< A block has no instructions.
  Arity,          ///< A block's successor count does not fit its kind.
  RepeatedSucc,   ///< A block names one successor twice.
};

/// One broken rule, as Procedure::forEachRuleViolation reports it.
struct CfgViolation {
  CfgRule Rule;
  BlockId Block = InvalidBlock; ///< InvalidBlock for NoBlocks.
  BlockId Succ = InvalidBlock;  ///< The bad successor (SuccOutOfRange).
};

/// Exit distance of a block with no path to a Return block.
inline constexpr uint32_t NoReturnPath = ~static_cast<uint32_t>(0);

/// Largest InstrCount a single block may carry (2^28 instructions = 1 GiB
/// of code at 4 bytes each — far beyond any real procedure). The text
/// parser rejects larger sizes, so downstream address assignment can sum
/// per-item byte sizes into a uint64_t without overflow checks on every
/// add: even 2^32 maximal blocks total less than 2^62 bytes.
inline constexpr uint32_t MaxBlockInstrCount = 1u << 28;

/// A basic block: a run of straight-line instructions plus a terminator.
/// Successor edges live in the owning Procedure.
struct BasicBlock {
  /// Number of instructions in the block, *including* its terminator when
  /// one is present in the original code. Used for address assignment in
  /// the layout materializer and for base-cycle accounting in the
  /// pipeline simulator. Always >= 1.
  uint32_t InstrCount = 1;

  /// Which Table 3 rows govern this block's layout penalties.
  TerminatorKind Kind = TerminatorKind::Return;

  /// Optional symbolic name; empty means "b<index>".
  std::string Name;
};

/// A procedure: blocks plus CFG successor edges. Block 0 is the entry.
class Procedure {
public:
  explicit Procedure(std::string Name = "proc") : Name(std::move(Name)) {}

  /// Appends a block; returns its id. Successors start empty.
  BlockId addBlock(BasicBlock Block);

  /// Appends the CFG edge From -> To. Order matters for conditionals:
  /// successor 0 is the original taken target, successor 1 the original
  /// fall-through (layout may invert them).
  void addEdge(BlockId From, BlockId To);

  const std::string &getName() const { return Name; }
  void setName(std::string NewName) { Name = std::move(NewName); }

  size_t numBlocks() const { return Blocks.size(); }
  const BasicBlock &block(BlockId Id) const { return Blocks[Id]; }
  BasicBlock &block(BlockId Id) { return Blocks[Id]; }
  const std::vector<BasicBlock> &blocks() const { return Blocks; }

  /// The name the text formats print for block \p Id: its Name, or
  /// "b<index>" when that is empty.
  std::string blockName(BlockId Id) const;

  const std::vector<BlockId> &successors(BlockId Id) const {
    return Successors[Id];
  }

  /// Calls Fn(From, SuccIndex, To) for every CFG edge, in canonical order
  /// (blocks ascending, successor lists in declaration order). This order
  /// is part of the cache-fingerprint contract: two procedures hash equal
  /// iff this enumeration yields the same sequence.
  template <typename FnT> void forEachEdge(FnT &&Fn) const {
    for (BlockId From = 0; From != Blocks.size(); ++From)
      for (size_t I = 0; I != Successors[From].size(); ++I)
        Fn(From, I, Successors[From][I]);
  }

  /// Predecessor lists, computed on demand (invalidated by addEdge).
  /// Out-of-range successors are skipped.
  std::vector<std::vector<BlockId>> computePredecessors() const;

  /// The entry block; always block 0.
  BlockId entry() const { return 0; }

  /// Calls Fn(const CfgViolation &) for each structural rule the
  /// procedure breaks, in this order: no blocks (which ends the walk);
  /// then per block, each successor out of range, an empty block, a
  /// successor count its kind does not allow, a repeated successor.
  /// Stops as soon as Fn returns false. Allocates nothing.
  template <typename FnT> void forEachRuleViolation(FnT &&Fn) const {
    if (Blocks.empty()) {
      Fn(CfgViolation{CfgRule::NoBlocks});
      return;
    }
    for (BlockId Id = 0; Id != Blocks.size(); ++Id) {
      const std::vector<BlockId> &Succs = Successors[Id];
      for (BlockId Succ : Succs)
        if (Succ >= Blocks.size() &&
            !Fn(CfgViolation{CfgRule::SuccOutOfRange, Id, Succ}))
          return;
      if (Blocks[Id].InstrCount == 0 &&
          !Fn(CfgViolation{CfgRule::EmptyBlock, Id}))
        return;
      if (!arityAllows(Blocks[Id].Kind, Succs.size()) &&
          !Fn(CfgViolation{CfgRule::Arity, Id}))
        return;
      if (hasRepeatedSuccessor(Id) &&
          !Fn(CfgViolation{CfgRule::RepeatedSucc, Id}))
        return;
    }
  }

  /// Per block: whether a CFG path leads to it from the entry.
  /// Out-of-range successors are skipped.
  std::vector<bool> reachableFromEntry() const;

  /// Per block: the fewest edges on a CFG path from it to a Return block
  /// (0 for a Return block), or NoReturnPath when there is none.
  /// Out-of-range successors are skipped.
  std::vector<uint32_t> exitDistances() const;

  /// Checks the structural rules and reachability from the entry; on
  /// failure returns false and stores a diagnostic naming the first
  /// violation in \p Error (may be null).
  bool verify(std::string *Error = nullptr) const;

private:
  static bool arityAllows(TerminatorKind Kind, size_t NumSuccs);
  bool hasRepeatedSuccessor(BlockId Id) const;

  std::string Name;
  std::vector<BasicBlock> Blocks;
  std::vector<std::vector<BlockId>> Successors;
};

/// A whole program: procedures aligned independently (the problem is
/// intraprocedural) but simulated together (shared instruction cache).
class Program {
public:
  explicit Program(std::string Name = "program") : Name(std::move(Name)) {}

  size_t addProcedure(Procedure Proc);

  const std::string &getName() const { return Name; }
  size_t numProcedures() const { return Procs.size(); }
  const Procedure &proc(size_t Index) const { return Procs[Index]; }
  Procedure &proc(size_t Index) { return Procs[Index]; }
  const std::vector<Procedure> &procedures() const { return Procs; }

  /// Verifies every procedure; stops at the first failure.
  bool verify(std::string *Error = nullptr) const;

private:
  std::string Name;
  std::vector<Procedure> Procs;
};

} // namespace balign

#endif // BALIGN_IR_CFG_H
