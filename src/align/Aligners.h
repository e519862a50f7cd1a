//===- align/Aligners.h - The layout algorithms beside the DTSP -----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The layout algorithms that do not solve the alignment DTSP. The
/// paper's own three layouts per procedure — original, greedy and the
/// iterated-3-Opt tour — come from one path, alignProgram
/// (align/Pipeline.h), which calls GreedyAligner and ExtTspAligner as its
/// greedy and chain rungs:
///
///  * GreedyAligner — Pettis-Hansen-style bottom-up chaining: consider
///    CFG edges in decreasing execution-frequency order; accept an edge
///    when its head has no layout successor yet, its tail no layout
///    predecessor, and accepting closes no cycle; finally concatenate the
///    chains (entry chain first, remaining chains by falling execution
///    weight).
///  * CalderGrunwaldAligner — the related-work refinement of Section 5:
///    greedy driven by *cost-model benefit* rather than raw frequency,
///    followed by an exhaustive search over the orders of the hottest
///    few chains (our bounded adaptation of their "all orders of the
///    blocks touched by the 15 hottest edges" search). A baseline for
///    the studies only; no pipeline rung runs it.
///  * ExtTspAligner — the 2020s-era baseline: Newell/Pupyrev-style chain
///    merging driven by an ObjectiveFn score delta (objective/), with a
///    bounded split-point search when inserting into short hot chains.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_ALIGNERS_H
#define BALIGN_ALIGN_ALIGNERS_H

#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "objective/Objective.h"
#include "profile/Profile.h"

namespace balign {

/// Pettis-Hansen-style frequency-greedy chaining.
class GreedyAligner {
public:
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const;
};

/// Cost-model greedy with bounded exhaustive chain-order search: the
/// hottest six chains beyond the entry chain take part in the exhaustive
/// order search; the rest keep the greedy order.
class CalderGrunwaldAligner {
public:
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const;
};

/// Newell/Pupyrev-style chain merging ("Improved Basic Block Reordering"):
/// every block starts as its own chain; the pair of chains connected by an
/// executed CFG edge whose merge improves the objective score the most is
/// merged, repeatedly, until no merge improves the score. Besides plain
/// concatenation X+Y, a bounded split-point search inserts Y at every
/// interior position of X when X is short (at most 16 blocks) and at
/// least as hot as Y — the adaptation of the paper's split merges that
/// keeps each round linear in chain length. Leftover chains concatenate
/// entry-first, then by falling execution weight. Fully deterministic:
/// candidate pairs are enumerated in chain-index order and ties keep the
/// first candidate.
class ExtTspAligner {
public:
  explicit ExtTspAligner(ObjectiveKind Objective = ObjectiveKind::ExtTsp)
      : Objective(Objective) {}

  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const;

private:
  ObjectiveKind Objective;
};

} // namespace balign

#endif // BALIGN_ALIGN_ALIGNERS_H
