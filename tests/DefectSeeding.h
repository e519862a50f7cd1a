//===- tests/DefectSeeding.h - The lint true-positive corpus -----*- C++ -*-===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test fixture: seeds one known defect into a generated (procedure,
/// profile) pair and names the balign-lint check that must report it.
/// The lint and static-analysis tests build their true-positive corpora
/// with it; no tool or harness does.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_DEFECTSEEDING_H
#define BALIGN_TESTS_DEFECTSEEDING_H

#include "analysis/Diagnostics.h"
#include "ir/CFG.h"
#include "profile/Profile.h"
#include "support/Random.h"

#include <cassert>
#include <cstdint>
#include <vector>

namespace balign {

/// Seeded defect kinds for the balign-lint true-positive corpus. Each
/// kind mutates a (procedure, profile) pair so that one specific lint
/// check is guaranteed to fire. Flow defects cascade (a profile lie in
/// one counter usually breaks several conservation equations), so tests
/// should assert the returned check is *present*, not *exclusive*.
enum class DefectKind : uint8_t {
  /// Appends a two-entry cycle (the textbook irreducible region). The
  /// CFG stays verify()-legal and the extended profile stays
  /// flow-consistent, so this is a purely structural finding.
  IrreducibleLoop,

  /// Appends a single-entry natural loop with no exit edge. Also
  /// verify()-legal and flow-consistent.
  NoExitLoop,

  /// Adds a conditional self-edge to a hot block and claims it is
  /// always taken (the "spinning" profile shape retargeting bugs
  /// produce).
  SelfLoopSpin,

  /// Appends a block with no in-edges but a nonzero execution count —
  /// the signature of a profile collected against a stale CFG. The
  /// mutated procedure no longer passes Procedure::verify() (and the
  /// text parser would reject it), so this kind exists for in-memory
  /// lint corpora only.
  UnreachableHot,

  /// Zeroes one hot edge count. Flow reconstruction can re-derive the
  /// missing value, so the profile classifies as repairable.
  StaleProfile,

  /// Raises one edge count above its source block's execution count;
  /// no assignment to the remaining unknowns can balance that, so the
  /// profile classifies as contradictory.
  ContradictoryProfile,

  /// Pins one hot block count at UINT64_MAX (a wrapped/clamped
  /// hardware counter).
  SaturatedCounter,

  /// Raises one hot block count beyond the lint overflow limit while
  /// staying below saturation.
  OverflowCounter,
};

inline constexpr size_t NumDefectKinds = 8;

/// Unconditional blocks whose single successor is some *other* block.
/// These can be promoted to conditionals by adding a second, distinct
/// out-edge without breaking Procedure::verify()'s arity invariants.
inline std::vector<BlockId> promotableBlocks(const Procedure &Proc) {
  std::vector<BlockId> Out;
  for (BlockId B = 0; B != Proc.numBlocks(); ++B)
    if (Proc.block(B).Kind == TerminatorKind::Unconditional &&
        Proc.successors(B)[0] != B)
      Out.push_back(B);
  return Out;
}

/// Appends the two-block cycle X <-> Y and routes each block in
/// \p Entries into it (block I enters at cycle block I % 2) by
/// promoting it from unconditional to conditional. Extends \p Profile
/// with all-zero counts so it stays shape-matched and flow-consistent.
inline void spliceCycle(Procedure &Proc, ProcedureProfile &Profile,
                        const std::vector<BlockId> &Entries) {
  BlockId X = Proc.addBlock({1, TerminatorKind::Unconditional, "cyc0"});
  BlockId Y = Proc.addBlock({1, TerminatorKind::Unconditional, "cyc1"});
  Proc.addEdge(X, Y);
  Proc.addEdge(Y, X);
  for (size_t I = 0; I != Entries.size(); ++I) {
    Proc.block(Entries[I]).Kind = TerminatorKind::Conditional;
    Proc.addEdge(Entries[I], I % 2 == 0 ? X : Y);
    Profile.EdgeCounts[Entries[I]].push_back(0);
  }
  Profile.BlockCounts.push_back(0); // X
  Profile.BlockCounts.push_back(0); // Y
  Profile.EdgeCounts.push_back({0}); // X -> Y
  Profile.EdgeCounts.push_back({0}); // Y -> X
}

/// Picks a block with a nonzero execution count, uniformly.
inline BlockId pickHotBlock(const ProcedureProfile &Profile, Rng &Rng) {
  std::vector<BlockId> Hot;
  for (BlockId B = 0; B != Profile.BlockCounts.size(); ++B)
    if (Profile.BlockCounts[B] > 0)
      Hot.push_back(B);
  assert(!Hot.empty() && "defect seeding needs a nonzero profile");
  return Hot[Rng.nextIndex(Hot.size())];
}

/// Stable lowercase name ("irreducible-loop", "stale-profile", ...).
inline const char *defectKindName(DefectKind Kind) {
  switch (Kind) {
  case DefectKind::IrreducibleLoop:
    return "irreducible-loop";
  case DefectKind::NoExitLoop:
    return "no-exit-loop";
  case DefectKind::SelfLoopSpin:
    return "self-loop-spin";
  case DefectKind::UnreachableHot:
    return "unreachable-hot";
  case DefectKind::StaleProfile:
    return "stale-profile";
  case DefectKind::ContradictoryProfile:
    return "contradictory-profile";
  case DefectKind::SaturatedCounter:
    return "saturated-counter";
  case DefectKind::OverflowCounter:
    return "overflow-counter";
  }
  return "unknown";
}

/// Injects \p Kind into \p Proc / \p Profile (which must shape-match)
/// and returns the CheckId balign-lint must report for it. Mutation
/// sites (a hot block, a promotable unconditional block) are chosen
/// deterministically via \p Rng; the profile is re-shaped alongside any
/// structural edit so shapeMatches() keeps holding afterwards.
inline CheckId seedDefect(DefectKind Kind, Procedure &Proc,
                          ProcedureProfile &Profile, Rng &Rng) {
  assert(Profile.shapeMatches(Proc) &&
         "defects are seeded into shape-matched pairs");
  switch (Kind) {
  case DefectKind::IrreducibleLoop: {
    // Two distinct entries into the appended cycle make it irreducible:
    // neither cycle block dominates the other, so the DFS retreating
    // edge closing the cycle is not a back edge.
    std::vector<BlockId> Cands = promotableBlocks(Proc);
    assert(Cands.size() >= 2 && "need two promotable blocks");
    size_t I = Rng.nextIndex(Cands.size());
    size_t J = Rng.nextIndex(Cands.size() - 1);
    if (J >= I)
      ++J;
    spliceCycle(Proc, Profile, {Cands[I], Cands[J]});
    return CheckId::LintIrreducibleLoop;
  }

  case DefectKind::NoExitLoop: {
    // A single entry keeps the cycle reducible — it becomes a natural
    // loop — but nothing inside it can reach a return.
    std::vector<BlockId> Cands = promotableBlocks(Proc);
    assert(!Cands.empty() && "need a promotable block");
    spliceCycle(Proc, Profile, {Cands[Rng.nextIndex(Cands.size())]});
    return CheckId::LintNoLoopExit;
  }

  case DefectKind::SelfLoopSpin: {
    std::vector<BlockId> Cands;
    for (BlockId B : promotableBlocks(Proc))
      if (Profile.BlockCounts[B] > 0)
        Cands.push_back(B);
    assert(!Cands.empty() && "need a hot promotable block");
    BlockId A = Cands[Rng.nextIndex(Cands.size())];
    Proc.block(A).Kind = TerminatorKind::Conditional;
    Proc.addEdge(A, A);
    // Claim the self-edge accounts for every execution of the block —
    // i.e. the block never leaves itself, which its positive original
    // out-edge count contradicts.
    Profile.EdgeCounts[A].push_back(Profile.BlockCounts[A]);
    return CheckId::LintSelfLoop;
  }

  case DefectKind::UnreachableHot: {
    Proc.addBlock({4, TerminatorKind::Return, "orphan"});
    Profile.BlockCounts.push_back(1 + Rng.nextBelow(1u << 20));
    Profile.EdgeCounts.push_back({});
    return CheckId::LintUnreachableHot;
  }

  case DefectKind::StaleProfile: {
    // Zero one hot edge. Both endpoints keep nonzero block counts, so
    // flow reconstruction treats the edge as unknown and re-derives it:
    // the profile is repairable, not contradictory.
    struct Site {
      BlockId From;
      size_t Succ;
    };
    std::vector<Site> Sites;
    for (BlockId From = 0; From != Proc.numBlocks(); ++From)
      for (size_t S = 0; S != Proc.successors(From).size(); ++S)
        if (Profile.EdgeCounts[From][S] > 0 &&
            Proc.successors(From)[S] != From)
          Sites.push_back({From, S});
    assert(!Sites.empty() && "defect seeding needs a hot edge");
    const Site &Hit = Sites[Rng.nextIndex(Sites.size())];
    Profile.EdgeCounts[Hit.From][Hit.Succ] = 0;
    return CheckId::LintFlowImbalance;
  }

  case DefectKind::ContradictoryProfile: {
    // Push one edge count above its source block's execution count. The
    // outflow equation's known sum then exceeds its target, which no
    // assignment to the (non-negative) unknowns can fix.
    std::vector<BlockId> Cands;
    for (BlockId B = 0; B != Proc.numBlocks(); ++B)
      if (Profile.BlockCounts[B] > 0 && !Proc.successors(B).empty())
        Cands.push_back(B);
    assert(!Cands.empty() && "need a hot non-return block");
    BlockId From = Cands[Rng.nextIndex(Cands.size())];
    size_t Succ = Rng.nextIndex(Proc.successors(From).size());
    Profile.EdgeCounts[From][Succ] =
        Profile.BlockCounts[From] + 1 + Rng.nextBelow(1000);
    return CheckId::LintFlowContradictory;
  }

  case DefectKind::SaturatedCounter: {
    Profile.BlockCounts[pickHotBlock(Profile, Rng)] = UINT64_MAX;
    return CheckId::LintCounterSaturated;
  }

  case DefectKind::OverflowCounter: {
    // Far past the default lint overflow limit (2^56) yet not pinned at
    // the saturation sentinel.
    Profile.BlockCounts[pickHotBlock(Profile, Rng)] = uint64_t(1) << 60;
    return CheckId::LintCounterOverflow;
  }
  }
  assert(false && "unknown defect kind");
  return CheckId::LintFlowContradictory;
}

} // namespace balign

#endif // BALIGN_TESTS_DEFECTSEEDING_H
