//===- analysis/Verifier.h - The six balign-verify analyses ---------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The verifier-pass layer of balign-verify: six analyses covering the
/// whole reduction chain CFG -> profile -> DTSP matrix -> STSP transform
/// -> tour -> layout, in the spirit of LLVM's IR verifier and
/// Boender & Sacerdoti Coen's machine-checked branch-displacement
/// invariants. Each pass is a free function that inspects one artifact,
/// reports structured findings into a DiagnosticEngine, and returns the
/// number of *errors* it added (so callers can gate on a single pass).
///
/// The passes, their names, and their check-ID prefixes:
///
///  1. cfg-verify    (cfg.*)     deep CFG structural verification —
///                               subsumes Procedure::verify and adds
///                               exit-reachability and no-return findings.
///  2. profile-flow  (profile.*) Kirchhoff flow conservation of edge
///                               profiles with entry/exit slack; shape
///                               and overflow screens.
///  3. layout-check  (layout.*)  layout legality: permutation, entry
///                               pinning, realizability of every executed
///                               CFG edge in the materialized layout,
///                               fixup-target and address invariants.
///  4. matrix-audit  (matrix.*)  DTSP cost-matrix invariants: big-M
///                               containment, dummy-city row shape, cell
///                               exactness against the penalty model,
///                               DTSP<->STSP transform exactness (lock
///                               bonus, probe-tour round trip).
///  5. tour-bounds   (tour.* / bounds.*) tour validity, reported-cost and
///                               reduction exactness (tour cost ==
///                               layout penalty), HK/AP bound ordering
///                               against the best tour on the directed
///                               cost scale.
///  6. determinism   (determinism.*) replays a pipeline stage with the
///                               same seed and diffs matrix, tour cost,
///                               and layout against the first run.
///
/// Passes never mutate their inputs and never abort; policy (abort, exit
/// code, test assertion) belongs to callers. PipelineVerifier.h wires
/// them into align::Pipeline as its verify-each procedure hook.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ANALYSIS_VERIFIER_H
#define BALIGN_ANALYSIS_VERIFIER_H

#include "align/Bounds.h"
#include "align/Reduction.h"
#include "analysis/Diagnostics.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "profile/Profile.h"
#include "tsp/Instance.h"
#include "tsp/IteratedOpt.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace balign {

struct ProgramAlignment;

/// How much verification effort to spend.
enum class VerifyLevel : uint8_t {
  None,  ///< Verification disabled.
  Quick, ///< Linear-time structural checks only.
  Full,  ///< Adds O(N^2) matrix exactness audits and determinism replay.
};

/// Knobs shared by the passes.
struct VerifyOptions {
  VerifyLevel Level = VerifyLevel::Full;
};

//===--------------------------------------------------------------------===//
// 1. cfg-verify
//===--------------------------------------------------------------------===//

/// Deep CFG verification of one procedure. Reports every violation (it
/// does not stop at the first, unlike Procedure::verify).
size_t checkCfg(const Procedure &Proc, DiagnosticEngine &Diags);

/// Verifies every procedure of \p Prog.
size_t checkCfg(const Program &Prog, DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 2. profile-flow
//===--------------------------------------------------------------------===//

/// Flow-conservation check of \p Profile against \p Proc: shape match,
/// per-block Kirchhoff balance (inflow == block count for non-entry
/// blocks; entry absorbs invocation slack; any outflow deficit warns as
/// a truncated walk), and overflow screening against
/// ProfileOverflowLimit.
size_t checkProfileFlow(const Procedure &Proc,
                        const ProcedureProfile &Profile,
                        DiagnosticEngine &Diags);

/// Whole-program profile check, including the program/profile arity.
size_t checkProfileFlow(const Program &Prog, const ProgramProfile &Profile,
                        DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 3. layout-check
//===--------------------------------------------------------------------===//

/// Legality of \p L for \p Proc: a permutation pinned at the entry, whose
/// materialization realizes every executed CFG edge (every edge with a
/// nonzero training count must be reachable as a fall-through, taken
/// branch, multiway target, or fixup jump), with correct fixup targets
/// and strictly increasing, gap-free item addresses.
size_t checkLayout(const Procedure &Proc, const Layout &L,
                   const ProcedureProfile &Train, const MachineModel &Model,
                   DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 4. matrix-audit
//===--------------------------------------------------------------------===//

/// Audits the alignment DTSP instance \p Atsp built for \p Proc:
/// dummy-city row invariants (0 to the entry, EntryPin elsewhere),
/// non-negative real costs below the pin, EntryPin actually exceeding
/// the worst-case layout total, and — at VerifyLevel::Full — exactness
/// of every cell against blockLayoutPenalty and of the DTSP->STSP
/// transform: a lock bonus above the total absolute cost, and a probe
/// tour whose cost round-trips (its cells follow one unit-tested rule).
size_t checkCostMatrix(const Procedure &Proc, const ProcedureProfile &Train,
                       const MachineModel &Model, const AlignmentTsp &Atsp,
                       DiagnosticEngine &Diags,
                       const VerifyOptions &Options = {});

//===--------------------------------------------------------------------===//
// 5. tour-bounds
//===--------------------------------------------------------------------===//

/// Checks a solved tour over \p Atsp: validity, agreement of the
/// reported cost with the instance, no entry-pin leakage into the cost,
/// and the reduction's central exactness invariant — the tour's walk
/// cost equals evaluateLayout of the derived layout on the training
/// profile.
size_t checkTour(const Procedure &Proc, const ProcedureProfile &Train,
                 const MachineModel &Model, const AlignmentTsp &Atsp,
                 const std::vector<City> &Tour, int64_t ReportedCost,
                 DiagnosticEngine &Diags);

/// Checks lower-bound ordering on the directed penalty scale:
/// 0 <= HeldKarp <= TspPenalty and 0 <= Assignment <= TspPenalty, where
/// \p TspPenalty is the best tour's penalty in cycles.
size_t checkBounds(const Procedure &Proc, const PenaltyBounds &Bounds,
                   uint64_t TspPenalty, DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 6. determinism
//===--------------------------------------------------------------------===//

/// Replays the matrix-build and solve stages for \p Proc with the same
/// inputs and seed and diffs the results against the first run's
/// artifacts. Catches hidden global state, uninitialized reads that
/// happen to be stable within a run, and order-dependent accumulation.
size_t checkDeterminism(const Procedure &Proc, const ProcedureProfile &Train,
                        const MachineModel &Model,
                        const AlignmentTsp &ExpectedMatrix,
                        const IteratedOptOptions &SolverOptions,
                        const std::vector<City> &ExpectedTour,
                        int64_t ExpectedCost, const Layout &ExpectedLayout,
                        DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 7. shield (balign-shield bridge)
//===--------------------------------------------------------------------===//

/// Surfaces every failure balign-shield isolated during \p Alignment as
/// a structured warning — shield.fallback for procedures degraded down
/// the ladder, shield.skipped for those kept at the original layout
/// under OnErrorPolicy::Skip — so `--verify` output shows exactly what
/// degraded and why. Warnings, not errors: the shipped layouts are
/// legal (layout-check still covers them), just not the full-path
/// result. Returns the number of findings reported.
size_t reportShieldFindings(const ProgramAlignment &Alignment,
                            DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 8. trace (balign-scope bridge)
//===--------------------------------------------------------------------===//

class TraceSession;
struct TraceSpan;

/// Validates a drained balign-scope span stream: every span must have
/// EndNs >= StartNs (trace.negative-duration), the spans opened by each
/// thread must nest like a call stack — a span at depth D+1 must lie
/// inside the enclosing depth-D span's [start, end] window
/// (trace.bad-nesting) — and the per-track sequence numbers must be
/// contiguous from zero (trace.seq-gap), which is what makes the drain
/// order reproducible across thread counts. Nesting is checked per
/// *thread*, not per track: the main thread's verify hook runs on a
/// procedure's track at the main thread's depth. Returns the number of
/// errors reported.
size_t checkTraceSpans(const std::vector<TraceSpan> &Spans,
                       DiagnosticEngine &Diags);

/// Convenience wrapper: drains \p Session and validates the spans.
size_t checkTrace(const TraceSession &Session, DiagnosticEngine &Diags);

/// Checks counter monotonicity between two snapshots of the same
/// registry (e.g. taken before and after a pipeline stage): every
/// counter present in \p Before must exist in \p After with a value >=
/// its old one (trace.counter-regressed). Gauges carry no such promise
/// and are not checked. Returns the number of errors reported.
size_t checkCounterMonotonic(const std::map<std::string, uint64_t> &Before,
                             const std::map<std::string, uint64_t> &After,
                             DiagnosticEngine &Diags);

//===--------------------------------------------------------------------===//
// 9. displace-check
//===--------------------------------------------------------------------===//

/// Encoding soundness of a materialized layout (displace.*), after
/// Boender & Sacerdoti Coen: re-derives every item address from the item
/// sizes and checks they match the stored ones
/// (displace.address-mismatch), proves every short-form branch site can
/// reach its target within MachineModel::ShortBranchRange
/// (displace.unreachable — the emitted code would jump wild), and flags
/// long-form branches whose displacement would in fact fit the short
/// form (displace.not-minimal, a warning: the solver promises the least
/// fixpoint, so a fitting long branch means wasted bytes, not broken
/// code). Under BranchEncoding::Fixed the pass only asserts that no item
/// is long-form. Returns the number of errors reported.
size_t checkDisplacement(const Procedure &Proc, const MaterializedLayout &Mat,
                         const MachineModel &Model, DiagnosticEngine &Diags);

/// Convenience wrapper: materializes \p L (running the displacement
/// fixpoint under fault suppression) and audits the result.
size_t checkDisplacement(const Procedure &Proc, const Layout &L,
                         const ProcedureProfile &Train,
                         const MachineModel &Model, DiagnosticEngine &Diags);

} // namespace balign

#endif // BALIGN_ANALYSIS_VERIFIER_H
