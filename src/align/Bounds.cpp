//===- align/Bounds.cpp -------------------------------------------------------===//

#include "align/Bounds.h"

#include "tsp/Assignment.h"
#include "trace/Scope.h"

#include <algorithm>

using namespace balign;

PenaltyBounds balign::computePenaltyBounds(const Procedure &Proc,
                                           const ProcedureProfile &Train,
                                           const MachineModel &Model,
                                           uint64_t UpperBound,
                                           const HeldKarpOptions &Options) {
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Train, Model);
  PenaltyBounds Bounds;
  // Counts near the profile overflow screen can push the solvers' big-M
  // constants past int64_t. Neither bound is defined there, so report the
  // trivial ones: no layout's penalty is below 0.
  if (!bigMConstants(Atsp.Tsp).Fits)
    return Bounds;

  // The entry-pinned instance gives every feasible layout (= tour) a cost
  // equal to its penalty: the dummy->entry edge costs 0. Lower bounds on
  // tour cost are therefore lower bounds on penalty directly.
  double Hk;
  {
    ScopedSpan HkSpan("bounds.held-karp", SpanCat::Solver);
    Hk = heldKarpBoundDirected(Atsp.Tsp, static_cast<int64_t>(UpperBound),
                               Options);
  }
  Bounds.HeldKarp = std::clamp(Hk, 0.0, static_cast<double>(UpperBound));

  AssignmentResult Ap;
  {
    ScopedSpan ApSpan("bounds.assignment", SpanCat::Solver);
    Ap = assignmentBound(Atsp.Tsp);
  }
  Bounds.Assignment =
      std::clamp<int64_t>(Ap.Cost, 0, static_cast<int64_t>(UpperBound));
  Bounds.AssignmentCycles = Ap.NumCycles;
  return Bounds;
}
