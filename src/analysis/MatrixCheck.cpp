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
// exact — locked pair edges at -LockBonus, real arcs carrying the
// directed costs, forbidden cells at +LockBonus, and a probe tour whose
// symmetric cost maps back to its directed cost to the cycle.
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
  // The audit re-runs the transform, which carries a balign-shield fault
  // site; verification must neither trip it nor consume a hit.
  FaultInjector::ScopedSuppress SuppressFaults;
  SymmetricTransform T = transformToSymmetric(Dtsp);

  if (T.DirectedN != N || T.Sym.numCities() != 2 * N) {
    Diags.report(Severity::Error, CheckId::MatrixTransformInexact, PassName,
                 DiagLocation::procedure(Name),
                 "symmetric transform has the wrong city count");
    return Diags.errorCount() - Before;
  }
  if (T.LockBonus <= Dtsp.totalAbsCost())
    Diags.report(Severity::Error, CheckId::MatrixTransformInexact, PassName,
                 DiagLocation::procedure(Name),
                 "lock bonus does not dominate the total absolute cost");

  // Cell-by-cell shape: city i splits into in-city i and out-city i + N.
  size_t CellFindings = 0;
  for (City I = 0; I != N && CellFindings < 8; ++I) {
    for (City J = 0; J != N; ++J) {
      int64_t InIn = T.Sym.dist(I, J);
      int64_t OutIn = T.Sym.dist(I + N, J);
      int64_t Expected;
      bool Bad = false;
      if (I == J) {
        // Locked pair edge; in-in diagonal is unused (0 by construction
        // of the dense matrix) and not checked.
        Bad = OutIn != -T.LockBonus;
        Expected = -T.LockBonus;
      } else {
        // Real directed arc i -> j lives on (i_out, j_in); in-in cells
        // are forbidden.
        Bad = OutIn != Dtsp.cost(I, J) || InIn != T.LockBonus;
        Expected = Dtsp.cost(I, J);
      }
      if (T.Sym.dist(I + N, J + N) != T.LockBonus && I != J)
        Bad = true; // out-out cells are forbidden too.
      if (Bad) {
        Diags.report(Severity::Error, CheckId::MatrixTransformInexact,
                     PassName, DiagLocation::edge(Name, I, J),
                     "transformed cell disagrees with the 2-city scheme "
                     "(expected arc cost " +
                         std::to_string(Expected) + ")");
        if (++CellFindings == 8)
          break; // One corruption usually smears; don't flood.
      }
    }
  }

  // Probe tour round trip: the canonical directed tour must survive
  // expansion and collapse, and its symmetric cost must map back to its
  // directed cost exactly.
  std::vector<City> Probe(N);
  for (City I = 0; I != N; ++I)
    Probe[I] = I;
  std::vector<City> SymTour = T.toSymmetricTour(Probe);
  if (T.toDirectedTour(SymTour) != Probe ||
      T.toDirectedCost(T.Sym.tourCost(SymTour)) != Dtsp.tourCost(Probe))
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
