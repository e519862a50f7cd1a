//===- align/Reduction.h - Branch alignment as a DTSP ----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The paper's central reduction (Section 2.2): build a complete directed
/// graph whose vertices are the procedure's basic blocks plus a dummy
/// block "representing the end of the layout"; the cost of edge (B, X) is
/// the number of penalty cycles that occur at B in a layout where X
/// succeeds B. A minimum-cost walk through this graph is a
/// minimum-penalty branch alignment.
///
/// Two engineering details beyond the paper's prose:
///  * Cities are blocks 0..N-1 plus dummy city N. Closing the tour
///    through the dummy turns walks into tours, so the standard cyclic
///    DTSP machinery applies.
///  * A procedure must be entered at its first instruction, so the entry
///    block is pinned first: the dummy's edge to the entry costs 0 and
///    its edges to every other block cost EntryPin, a constant larger
///    than any real layout's total penalty. Optimal (and in practice all
///    heuristic) tours therefore leave the dummy straight into the
///    entry; layoutFromTour asserts but also repairs the rare heuristic
///    violation. The pin is summed with overflow checks, and an instance
///    whose pin does not fit three times in int64 is refused (see
///    buildPinnedTsp).
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_REDUCTION_H
#define BALIGN_ALIGN_REDUCTION_H

#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "profile/Profile.h"
#include "tsp/Instance.h"

#include <functional>
#include <stdexcept>

namespace balign {

/// An instance too large for the solver to handle: a DTSP whose entry
/// pin would overflow (buildPinnedTsp). alignProgram maps it to
/// FailureKind::ResourceCap.
class ResourceCapError : public std::runtime_error {
public:
  using std::runtime_error::runtime_error;
};

/// A branch-alignment DTSP instance: city i (< numBlocks) is block i; the
/// last city is the dummy end-of-layout marker.
struct AlignmentTsp {
  DirectedTsp Tsp;
  City DummyCity = 0;
  int64_t EntryPin = 0;

  size_t numBlocks() const { return DummyCity; }
};

/// The reduction's shape, shared by every cost model: the cell (B, X)
/// costs \p Penalty(B, X), the cell (B, dummy) costs
/// \p Penalty(B, InvalidBlock), and the dummy row pins the entry first.
/// EntryPin is one more than the sum of every block's dearest cell,
/// summed in checked uint64 arithmetic before any cell is stored as
/// int64. Every tour costs less than 2 x EntryPin and the 3-Opt move
/// deltas stay above -3 x EntryPin, so an instance whose 3 x EntryPin
/// does not fit int64 throws ResourceCapError instead of letting the
/// solver run on wrapped costs.
AlignmentTsp
buildPinnedTsp(const Procedure &Proc,
               const std::function<uint64_t(BlockId B, BlockId X)> &Penalty);

/// Builds the DTSP instance for \p Proc under \p Train and \p Model.
/// Edge costs call blockLayoutPenalty with Predict = Charge = Train, so a
/// tour's cost equals evaluateLayout of the corresponding layout on the
/// training profile (tested invariant). Throws ResourceCapError as
/// buildPinnedTsp does.
AlignmentTsp buildAlignmentTsp(const Procedure &Proc,
                               const ProcedureProfile &Train,
                               const MachineModel &Model);

/// Converts a directed tour over \p Atsp back into a layout: rotates the
/// dummy city out and, if a heuristic tour did not leave the dummy into
/// the entry block, hoists the entry to the front.
Layout layoutFromTour(const Procedure &Proc, const AlignmentTsp &Atsp,
                      const std::vector<City> &Tour);

} // namespace balign

#endif // BALIGN_ALIGN_REDUCTION_H
