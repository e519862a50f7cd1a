//===- analysis/MatrixCheck.cpp - DTSP cost-matrix auditing ---------------------===//
//
// Pass 4 of balign-verify: audits the alignment DTSP instance against the
// construction contract of align/Reduction.h.
//
// Structural invariants (every level): the dummy city's outgoing row is
// exactly {0 to the entry, EntryPin elsewhere}; every real cell is
// non-negative and strictly below EntryPin (a cell at or above the pin
// means the big-M leaked into the penalty scale); and EntryPin exceeds
// the worst-case layout total recomputed from the matrix itself, so no
// feasible layout can ever be outbid by a pin-paying tour.
//
// Exactness audits (VerifyLevel::Full): every cell must equal a fresh
// blockLayoutPenalty evaluation, and the DTSP->STSP transform must be
// exact — a lock bonus above the instance's total absolute cost, and a
// probe tour whose symmetric cost maps back to its directed cost to the
// cycle. The transform is a view that computes each symmetric cell from
// the directed matrix by one rule (unit-tested), so no cell is swept.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "objective/Penalty.h"
#include "robust/FaultInjector.h"
#include "tsp/Transform.h"

#include <algorithm>

using namespace balign;

static const char PassName[] = "matrix-audit";

static size_t auditTransform(const Procedure &Proc, const AlignmentTsp &Atsp,
                             DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();
  const DirectedTsp &Dtsp = Atsp.Tsp;
  size_t N = Dtsp.numCities();
  // An instance whose big-M constants overflow gets the trivial bounds,
  // so no solver reads its transform and there is nothing to audit.
  std::optional<int64_t> Total = Dtsp.totalAbsCost();
  if (!Total || !bigMConstants(Dtsp).Fits)
    return 0;
  // The audit re-runs the transform, which carries a balign-shield fault
  // site; verification must neither trip it nor consume a hit.
  FaultInjector::ScopedSuppress SuppressFaults;
  SymmetricTransform T = transformToSymmetric(Dtsp);

  if (T.LockBonus <= *Total)
    Diags.report(Severity::Error, CheckId::MatrixTransformInexact, PassName,
                 DiagLocation::procedure(Name),
                 "lock bonus does not dominate the total absolute cost");

  // Probe tour round trip: the canonical directed tour must survive
  // expansion and collapse, and its symmetric cost must map back to its
  // directed cost exactly.
  std::vector<City> Probe(N);
  for (City I = 0; I != N; ++I)
    Probe[I] = I;
  std::vector<City> SymTour = T.toSymmetricTour(Probe);
  if (T.toDirectedTour(SymTour) != Probe ||
      T.toDirectedCost(T.tourCost(SymTour)) != Dtsp.tourCost(Probe))
    Diags.report(Severity::Error, CheckId::MatrixTransformInexact, PassName,
                 DiagLocation::procedure(Name),
                 "probe tour does not round-trip through the transform");

  return Diags.errorCount() - Before;
}

size_t balign::checkCostMatrix(const Procedure &Proc,
                               const ProcedureProfile &Train,
                               const MachineModel &Model,
                               const AlignmentTsp &Atsp,
                               DiagnosticEngine &Diags,
                               const VerifyOptions &Options) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();
  const DirectedTsp &Dtsp = Atsp.Tsp;
  size_t N = Atsp.numBlocks();

  if (Dtsp.numCities() != N + 1 || N != Proc.numBlocks()) {
    Diags.report(Severity::Error, CheckId::MatrixDummyRowBroken, PassName,
                 DiagLocation::procedure(Name),
                 "instance has " + std::to_string(Dtsp.numCities()) +
                     " cities for " + std::to_string(Proc.numBlocks()) +
                     " blocks (want blocks + 1 dummy)");
    return Diags.errorCount() - Before;
  }

  // Dummy-city row: may only be left into the entry for free; every
  // other exit pays the pin.
  for (City B = 0; B != N; ++B) {
    int64_t Cost = Dtsp.cost(Atsp.DummyCity, B);
    int64_t Want = B == Proc.entry() ? 0 : Atsp.EntryPin;
    if (Cost != Want)
      Diags.report(Severity::Error, CheckId::MatrixDummyRowBroken, PassName,
                   DiagLocation::block(Name, B),
                   "dummy -> block costs " + std::to_string(Cost) +
                       ", want " + std::to_string(Want));
  }

  // Real rows: penalties are counts times non-negative cycle charges, so
  // cells are non-negative; and the pin must dominate every real cell,
  // otherwise it has leaked into the penalty scale.
  int64_t WorstTotal = 0;
  for (City B = 0; B != N; ++B) {
    int64_t Worst = 0;
    for (City X = 0; X != N + 1; ++X) {
      if (X == B)
        continue;
      int64_t Cost = Dtsp.cost(B, X);
      if (Cost < 0)
        Diags.report(Severity::Error, CheckId::MatrixNegativeCost, PassName,
                     DiagLocation::edge(Name, B, X),
                     "negative layout-edge cost " + std::to_string(Cost));
      if (Cost >= Atsp.EntryPin && Atsp.EntryPin > 0)
        Diags.report(Severity::Error, CheckId::MatrixBigMLeak, PassName,
                     DiagLocation::edge(Name, B, X),
                     "real cell cost " + std::to_string(Cost) +
                         " reaches the entry pin " +
                         std::to_string(Atsp.EntryPin));
      Worst = std::max(Worst, Cost);
    }
    WorstTotal += Worst;
  }
  if (Atsp.EntryPin <= WorstTotal)
    Diags.report(Severity::Error, CheckId::MatrixEntryPinTooSmall, PassName,
                 DiagLocation::procedure(Name),
                 "entry pin " + std::to_string(Atsp.EntryPin) +
                     " does not exceed the worst-case layout total " +
                     std::to_string(WorstTotal));

  if (Options.Level != VerifyLevel::Full)
    return Diags.errorCount() - Before;

  // Exactness: every cell equals a fresh penalty-model evaluation.
  for (City B = 0; B != N; ++B) {
    for (City X = 0; X != N + 1; ++X) {
      if (X == B)
        continue;
      BlockId LayoutSucc = X == Atsp.DummyCity ? InvalidBlock : X;
      int64_t Want = static_cast<int64_t>(
          blockLayoutPenalty(Proc, Model, Train, Train, B, LayoutSucc));
      if (Dtsp.cost(B, X) != Want)
        Diags.report(Severity::Error, CheckId::MatrixCostMismatch, PassName,
                     DiagLocation::edge(Name, B, X),
                     "cell costs " + std::to_string(Dtsp.cost(B, X)) +
                         " but the penalty model says " +
                         std::to_string(Want));
    }
  }

  auditTransform(Proc, Atsp, Diags);
  return Diags.errorCount() - Before;
}
