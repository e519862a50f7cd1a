//===- align/Aligners.h - The three layout algorithms compared -------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The layout algorithms the paper evaluates:
///
///  * OriginalAligner — the identity layout ("original" bars; the
///    normalization baseline of Figures 2 and 3).
///  * GreedyAligner — Pettis-Hansen-style bottom-up chaining: consider
///    CFG edges in decreasing execution-frequency order; accept an edge
///    when its head has no layout successor yet, its tail no layout
///    predecessor, and accepting closes no cycle; finally concatenate the
///    chains (entry chain first, remaining chains by falling execution
///    weight).
///  * TspAligner — the paper's contribution: reduce to a DTSP
///    (Reduction.h) and solve with iterated 3-Opt on the pair-locked
///    symmetric transformation.
///  * CalderGrunwaldAligner — the related-work refinement of Section 5:
///    greedy driven by *cost-model benefit* rather than raw frequency,
///    followed by an exhaustive search over the orders of the hottest
///    few chains (our bounded adaptation of their "all orders of the
///    blocks touched by the 15 hottest edges" search).
///  * ExtTspAligner — the 2020s-era baseline: Newell/Pupyrev-style chain
///    merging driven by an ObjectiveFn score delta (objective/), with a
///    bounded split-point search when inserting into short hot chains.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_ALIGNERS_H
#define BALIGN_ALIGN_ALIGNERS_H

#include "align/Reduction.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "objective/Objective.h"
#include "profile/Profile.h"
#include "tsp/IteratedOpt.h"

#include <string>

namespace balign {

/// Interface shared by every layout algorithm.
class Aligner {
public:
  virtual ~Aligner();

  /// Short stable identifier ("original", "greedy", "tsp", "cg").
  virtual std::string name() const = 0;

  /// Computes a layout of \p Proc from the training profile.
  virtual Layout align(const Procedure &Proc, const ProcedureProfile &Train,
                       const MachineModel &Model) const = 0;
};

/// Identity layout.
class OriginalAligner : public Aligner {
public:
  std::string name() const override { return "original"; }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;
};

/// Pettis-Hansen-style frequency-greedy chaining.
class GreedyAligner : public Aligner {
public:
  std::string name() const override { return "greedy"; }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;
};

/// The DTSP-based aligner (the paper's method).
class TspAligner : public Aligner {
public:
  explicit TspAligner(IteratedOptOptions Options = {})
      : Options(Options) {}

  std::string name() const override { return "tsp"; }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;

  /// Like align() but also reports solver statistics (tour cost, number
  /// of runs that tied the best — the appendix's reproducibility stat).
  struct Result {
    Layout L;
    int64_t TourCost = 0;
    unsigned NumRuns = 0;
    unsigned RunsFindingBest = 0;
  };
  Result alignWithStats(const Procedure &Proc, const ProcedureProfile &Train,
                        const MachineModel &Model) const;

private:
  IteratedOptOptions Options;
};

/// Cost-model greedy with bounded exhaustive chain-order search: the
/// hottest six chains beyond the entry chain take part in the exhaustive
/// order search; the rest keep the greedy order.
class CalderGrunwaldAligner : public Aligner {
public:
  std::string name() const override { return "cg"; }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;
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
class ExtTspAligner : public Aligner {
public:
  explicit ExtTspAligner(ObjectiveKind Objective = ObjectiveKind::ExtTsp)
      : Objective(Objective) {}

  std::string name() const override { return "exttsp"; }
  Layout align(const Procedure &Proc, const ProcedureProfile &Train,
               const MachineModel &Model) const override;

  ObjectiveKind objective() const { return Objective; }

private:
  ObjectiveKind Objective;
};

} // namespace balign

#endif // BALIGN_ALIGN_ALIGNERS_H
