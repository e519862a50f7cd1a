//===- analysis/DeterminismCheck.cpp - Cross-run replay checking ----------------===//
//
// Pass 6 of balign-verify: determinism by replay. The repository's
// contract is that every stage is a pure function of (inputs, seed) —
// the tables must regenerate bit-for-bit. This pass re-executes the
// matrix-build, solve, and layout-derivation stages with identical
// inputs and diffs the artifacts against the first run. Divergence
// means hidden global state, an uninitialized read that was stable
// within one run, or iteration over an address-keyed container.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include "align/Pipeline.h"
#include "objective/Penalty.h"
#include "robust/FaultInjector.h"

using namespace balign;

static const char PassName[] = "determinism";

size_t balign::checkDeterminism(const Procedure &Proc,
                                const ProcedureProfile &Train,
                                const MachineModel &Model,
                                const AlignmentTsp &ExpectedMatrix,
                                const IteratedOptOptions &SolverOptions,
                                const std::vector<City> &ExpectedTour,
                                int64_t ExpectedCost,
                                const Layout &ExpectedLayout,
                                DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();

  // The replay re-executes production stages that carry balign-shield
  // fault sites. Suppress the injector for this thread: a replay must
  // neither trip an armed fault (the pipeline proper already survived
  // this procedure) nor consume hits the pipeline's deterministic hit
  // sequence would otherwise see.
  FaultInjector::ScopedSuppress SuppressFaults;

  // Stage 1: matrix build.
  AlignmentTsp Replayed = buildAlignmentTsp(Proc, Train, Model);
  bool MatrixSame =
      Replayed.Tsp.numCities() == ExpectedMatrix.Tsp.numCities() &&
      Replayed.EntryPin == ExpectedMatrix.EntryPin &&
      Replayed.DummyCity == ExpectedMatrix.DummyCity;
  if (MatrixSame) {
    size_t N = Replayed.Tsp.numCities();
    for (City A = 0; A != N && MatrixSame; ++A)
      for (City B = 0; B != N; ++B)
        if (Replayed.Tsp.cost(A, B) != ExpectedMatrix.Tsp.cost(A, B)) {
          MatrixSame = false;
          break;
        }
  }
  if (!MatrixSame)
    Diags.report(Severity::Error, CheckId::DeterminismMatrixDiverged,
                 PassName, DiagLocation::procedure(Name),
                 "rebuilding the cost matrix from identical inputs "
                 "produced different costs");

  // Stage 2: solve, from the *expected* matrix so a stage-1 divergence
  // does not cascade. Same options, same seed, so the same tour and
  // cost must come back.
  DtspSolution Replay = solveDirectedTsp(ExpectedMatrix.Tsp, SolverOptions);
  if (Replay.Cost != ExpectedCost || Replay.Tour != ExpectedTour)
    Diags.report(Severity::Error, CheckId::DeterminismTourDiverged, PassName,
                 DiagLocation::procedure(Name),
                 "re-solving with the same seed produced cost " +
                     std::to_string(Replay.Cost) + " (expected " +
                     std::to_string(ExpectedCost) +
                     (Replay.Tour != ExpectedTour ? ") and a different tour"
                                                  : ")"));

  // Stage 3: layout derivation from the expected tour, including the
  // balign-displace refinement round (a no-op under a fixed encoding),
  // which the contract requires to be a pure function like every other
  // stage.
  if (isValidTour(ExpectedTour, ExpectedMatrix.Tsp.numCities())) {
    Layout L = layoutFromTour(Proc, ExpectedMatrix, ExpectedTour);
    uint64_t Penalty = evaluateLayout(Proc, L, Model, Train, Train);
    refineLayoutForEncoding(Proc, Train, Model, ExpectedMatrix, SolverOptions,
                            L, Penalty);
    if (L.Order != ExpectedLayout.Order)
      Diags.report(Severity::Error, CheckId::DeterminismLayoutDiverged,
                   PassName, DiagLocation::procedure(Name),
                   "deriving the layout from the same tour produced a "
                   "different block order");
  }

  return Diags.errorCount() - Before;
}
