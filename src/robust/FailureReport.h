//===- robust/FailureReport.h - Structured per-procedure failure records --===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The record-keeping half of balign-shield: when the pipeline's
/// per-procedure isolation catches a failure — an injected fault, a real
/// exception, a deadline expiry, a resource-cap trip — it lands here as a
/// structured ProcedureFailure naming the procedure, what went wrong, and
/// which degradation-ladder rung produced the layout that shipped
/// instead. Under OnErrorPolicy::Abort nothing ships, so the ladder is
/// not walked and the failure carries no rung. The report is part of
/// ProgramAlignment, so callers (and the balign-verify bridge) see
/// exactly what degraded without grepping stderr.
///
/// The ladder follows the literature's practice of falling back to
/// cheaper orderings when the expensive optimization is infeasible:
/// iterated 3-Opt first, Pettis-Hansen-style greedy chaining second, the
/// original compiler order last (always available, never fails).
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ROBUST_FAILUREREPORT_H
#define BALIGN_ROBUST_FAILUREREPORT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace balign {

/// The degradation ladder, best rung first. A ProcedureAlignment's Rung
/// names the algorithm that actually produced its chosen (Tsp-slot)
/// layout.
enum class LadderRung : uint8_t {
  Tsp,      ///< Iterated 3-Opt over the DTSP reduction (the full path).
  Greedy,   ///< Pettis-Hansen-style frequency-greedy chaining.
  Original, ///< The compiler's original order (the identity layout).
};

/// Returns "tsp", "greedy", or "original".
const char *ladderRungName(LadderRung Rung);

/// Why a procedure left the full path.
enum class FailureKind : uint8_t {
  Fault,       ///< An injected FaultInjector fault fired.
  Deadline,    ///< A per-procedure or whole-run deadline expired.
  ResourceCap, ///< The reduction is too large: the profile is so hot
               ///< that the DTSP entry pin does not fit three times
               ///< in int64.
  Exception,   ///< Any other exception escaped a stage.
};

/// Returns "fault", "deadline", "resource-cap", or "exception".
const char *failureKindName(FailureKind Kind);

/// One isolated per-procedure failure.
struct ProcedureFailure {
  size_t ProcIndex = 0;     ///< Program-order index of the procedure.
  std::string ProcName;     ///< Its name, for human-readable reports.
  FailureKind Kind = FailureKind::Exception;
  std::string What;         ///< The exception's what() / guard message.
  /// Rung that shipped instead; left at Original under
  /// OnErrorPolicy::Abort, where nothing ships.
  LadderRung Rung = LadderRung::Original;
  bool Skipped = false;     ///< True under OnErrorPolicy::Skip.

  /// "proc 'f': deadline: ..." — the failure without a rung, which is
  /// AlignmentAborted's message.
  std::string cause() const;

  /// cause() plus the rung that shipped: "proc 'f': deadline: ...;
  /// rung=greedy" (or "...; skipped (rung=original)").
  std::string str() const;
};

/// Every failure one alignProgram call isolated, in program order
/// (deterministic at any thread count: workers record privately and the
/// drain loop appends in order).
struct FailureReport {
  std::vector<ProcedureFailure> Failures;

  bool empty() const { return Failures.empty(); }
  size_t size() const { return Failures.size(); }

  /// Procedures that shipped \p Rung due to a failure (the full-path
  /// majority is TotalProcs minus all failures).
  size_t countRung(LadderRung Rung) const;

  /// Failures with Skipped set.
  size_t countSkipped() const;

  /// "procs=7 tsp=5 greedy=2 original=0 skipped=0 failures=2" — the
  /// --cache-stats-style counter line (stable key=value form, greppable
  /// by CI). \p TotalProcs is the program's procedure count.
  std::string summary(size_t TotalProcs) const;
};

} // namespace balign

#endif // BALIGN_ROBUST_FAILUREREPORT_H
