//===- objective/Objective.h - Layout scoring objectives ------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Objective functions over block layouts. The 1997 paper optimizes pure
/// fall-through adjacency (every taken branch pays, position is otherwise
/// irrelevant); the Ext-TSP line of work (Mestre/Pupyrev/Umboh, "On the
/// Extended TSP Problem"; Newell/Pupyrev, "Improved Basic Block
/// Reordering") scores *near* jumps too: a branch whose target lands
/// within an I-cache window of the branch site is almost as good as a
/// fall through, with credit decaying linearly in byte distance.
///
/// ObjectiveFn abstracts "how good is this arrangement of blocks" so the
/// chain-merging aligner can optimize either objective, and studies can
/// score any layout under both. Scores are *maximized* (higher = better),
/// the opposite sign convention from penalty cycles.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_OBJECTIVE_OBJECTIVE_H
#define BALIGN_OBJECTIVE_OBJECTIVE_H

#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "profile/Profile.h"

#include <memory>
#include <string>
#include <vector>

namespace balign {

/// Which objective an Ext-TSP-style aligner maximizes.
enum class ObjectiveKind : uint8_t {
  Fallthrough = 0, ///< Negated Section 2.2 penalty (the paper's objective).
  ExtTsp = 1,      ///< Windowed locality score (Newell/Pupyrev).
};

/// Parses a flag spelling, "fallthrough" or "exttsp"; returns false on
/// unknown names.
bool parseObjectiveKind(const std::string &Name, ObjectiveKind &Out);

/// A score over arrangements of basic blocks; higher is better.
class ObjectiveFn {
public:
  virtual ~ObjectiveFn();

  /// Short stable identifier ("fallthrough", "exttsp").
  virtual std::string name() const = 0;

  /// Scores \p Seq — distinct blocks of \p Proc laid out consecutively,
  /// possibly a strict subset (a chain). Only score attributable to the
  /// blocks *in* Seq is counted: edges between Seq members score by their
  /// in-sequence placement, and blocks outside Seq contribute nothing.
  /// Summing scoreSequence over the chains of a partition therefore
  /// under-approximates the score of any concatenation of those chains,
  /// and on a full layout's Order it is the exact layout score.
  virtual double scoreSequence(const Procedure &Proc,
                               const ProcedureProfile &Profile,
                               const std::vector<BlockId> &Seq) const = 0;

  /// Scores a complete (valid) layout of \p Proc.
  double scoreLayout(const Procedure &Proc, const ProcedureProfile &Profile,
                     const Layout &L) const;
};

/// The paper's objective: the negated Section 2.2 control penalty, so
/// that maximizing this objective minimizes penalty cycles. Wraps
/// blockLayoutPenalty — on a full layout, scoreLayout is exactly
/// -evaluateLayout(Proc, L, Model, Profile, Profile) (penalties are
/// integers, so the double is exact below 2^53 cycles). On a chain, each
/// member is charged with its in-chain successor (the last with the
/// detached end-of-layout term).
class FallthroughObjective : public ObjectiveFn {
public:
  explicit FallthroughObjective(MachineModel Model) : Model(std::move(Model)) {}

  std::string name() const override { return "fallthrough"; }
  double scoreSequence(const Procedure &Proc, const ProcedureProfile &Profile,
                       const std::vector<BlockId> &Seq) const override;

private:
  MachineModel Model;
};

/// The Ext-TSP objective. Every executed CFG edge (From -> To) with both
/// endpoints placed scores, per execution:
///   * 1.0 when To starts exactly at From's end (fall through);
///   * ExtTspForwardWeight * (1 - d/ForwardWindow) when To lies d bytes
///     (0 < d < ForwardWindow) past From's end;
///   * ExtTspBackwardWeight * (1 - d/BackwardWindow) when To lies d bytes
///     (0 < d <= BackwardWindow) before From's end;
///   * 0 otherwise.
/// Block addresses come from InstrCount * BytesPerInstr, with no fixup
/// jumps modeled (the objective scores the permutation itself, as in the
/// Ext-TSP literature). With windows of 1, only fall throughs score and
/// the objective degenerates to weighted adjacency — the classical
/// objective the paper's DTSP maximizes (see DESIGN.md §15).
class ExtTspObjective : public ObjectiveFn {
public:
  explicit ExtTspObjective(MachineModel Model) : Model(std::move(Model)) {}

  std::string name() const override { return "exttsp"; }
  double scoreSequence(const Procedure &Proc, const ProcedureProfile &Profile,
                       const std::vector<BlockId> &Seq) const override;

private:
  MachineModel Model;
};

/// Factory over ObjectiveKind; \p Model supplies penalties (fallthrough)
/// or windows and weights (exttsp).
std::unique_ptr<ObjectiveFn> makeObjective(ObjectiveKind Kind,
                                           const MachineModel &Model);

} // namespace balign

#endif // BALIGN_OBJECTIVE_OBJECTIVE_H
