//===- analysis/TourCheck.cpp - Tour and bound consistency ----------------------===//
//
// Pass 5 of balign-verify: checks solved tours and the lower bounds
// reported next to them.
//
// The tour checks close the reduction loop end to end: a reported tour
// must be a valid permutation of the instance's cities, its reported
// cost must equal the instance's own evaluation, it must not have paid
// the entry pin (a pin-paying tour is repaired by layoutFromTour but
// signals a sick solver), and — the paper's central claim — the layout
// derived from it must evaluate to exactly the tour's cost on the
// training profile.
//
// The bound checks keep the Figure 2 "near-optimal" story honest on the
// directed penalty scale: 0 <= HeldKarp <= best-tour penalty and
// 0 <= Assignment <= best-tour penalty. A violation means a bound
// computation leaked the big-M of the symmetric transform or the entry
// pin into penalty units.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "objective/Penalty.h"

using namespace balign;

static const char PassName[] = "tour-bounds";

size_t balign::checkTour(const Procedure &Proc, const ProcedureProfile &Train,
                         const MachineModel &Model, const AlignmentTsp &Atsp,
                         const std::vector<City> &Tour, int64_t ReportedCost,
                         DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();

  if (!isValidTour(Tour, Atsp.Tsp.numCities())) {
    Diags.report(Severity::Error, CheckId::TourInvalid, PassName,
                 DiagLocation::procedure(Name),
                 "tour is not a permutation of the " +
                     std::to_string(Atsp.Tsp.numCities()) + " cities");
    return Diags.errorCount() - Before;
  }

  int64_t ActualCost = Atsp.Tsp.tourCost(Tour);
  if (ActualCost != ReportedCost)
    Diags.report(Severity::Error, CheckId::TourCostMismatch, PassName,
                 DiagLocation::procedure(Name),
                 "reported cost " + std::to_string(ReportedCost) +
                     " != instance evaluation " +
                     std::to_string(ActualCost));

  // A tour that paid the pin left the dummy into a non-entry block; the
  // layout repair hoists the entry, but the cost is no longer a penalty.
  bool PinPaid = Atsp.EntryPin > 0 && ActualCost >= Atsp.EntryPin;
  if (PinPaid)
    Diags.report(Severity::Warning, CheckId::TourPinPaid, PassName,
                 DiagLocation::procedure(Name),
                 "tour cost " + std::to_string(ActualCost) +
                     " includes the entry pin; the heuristic left the "
                     "dummy into a non-entry block");

  // Reduction exactness: walk cost == evaluated layout penalty. Only
  // meaningful when the tour respects the pin (otherwise the hoist
  // repair legitimately changes the cost).
  if (!PinPaid) {
    Layout L = layoutFromTour(Proc, Atsp, Tour);
    uint64_t Penalty = evaluateLayout(Proc, L, Model, Train, Train);
    if (ActualCost < 0 ||
        Penalty != static_cast<uint64_t>(ActualCost))
      Diags.report(Severity::Error, CheckId::TourPenaltyMismatch, PassName,
                   DiagLocation::procedure(Name),
                   "tour cost " + std::to_string(ActualCost) +
                       " != evaluated layout penalty " +
                       std::to_string(Penalty) +
                       " (the reduction must be exact)");
  }

  return Diags.errorCount() - Before;
}

size_t balign::checkBounds(const Procedure &Proc, const PenaltyBounds &Bounds,
                           uint64_t TspPenalty, DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();

  if (Bounds.HeldKarp < 0.0 || Bounds.Assignment < 0)
    Diags.report(Severity::Warning, CheckId::BoundNegative, PassName,
                 DiagLocation::procedure(Name),
                 "negative lower bound survived clamping (HK " +
                     std::to_string(Bounds.HeldKarp) + ", AP " +
                     std::to_string(Bounds.Assignment) + ")");

  // Both are lower bounds on the optimum, which the best tour can only
  // overestimate; allow HK a hair of floating-point slack.
  double Tsp = static_cast<double>(TspPenalty);
  if (Bounds.HeldKarp > Tsp + 1e-6)
    Diags.report(Severity::Error, CheckId::BoundHkExceedsTour, PassName,
                 DiagLocation::procedure(Name),
                 "Held-Karp bound " + std::to_string(Bounds.HeldKarp) +
                     " exceeds the best tour's penalty " +
                     std::to_string(TspPenalty));
  if (Bounds.Assignment > static_cast<int64_t>(TspPenalty))
    Diags.report(Severity::Error, CheckId::BoundApExceedsTour, PassName,
                 DiagLocation::procedure(Name),
                 "assignment bound " + std::to_string(Bounds.Assignment) +
                     " exceeds the best tour's penalty " +
                     std::to_string(TspPenalty));

  return Diags.errorCount() - Before;
}
