//===- static/Lint.h - The balign-lint check driver -----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// balign-lint: static analysis of alignment *inputs*, run before any
/// alignment work. Where balign-verify checks that the pipeline's own
/// artifacts are right, lint checks that the program and profile handed
/// to the pipeline deserve to be trusted — dead blocks, profiles that
/// cannot have come from a real run, irreducible or degenerate CFG
/// shapes, and machine models configured inside-out.
///
/// Findings reuse the balign-verify diagnostic substrate: structured
/// Diagnostic records under the stable `lint.*` check IDs of
/// analysis/Diagnostics.h, collected in a DiagnosticEngine, rendered as
/// text or JSON. The severity taxonomy is part of the contract:
///
///   Error   — the profile lies: no real execution produces this data
///             (hot unreachable blocks, saturated or overflow-suspicious
///             counters, flow-conservation violations).
///   Warning — structural anomalies the aligner tolerates but a build
///             system should see (unreachable blocks, irreducible loops,
///             extreme nesting, exit-less loops, self-loop anomalies,
///             suspicious machine models).
///   Note    — advisory (nothing to align in a branch-free procedure;
///             suggested flow repairs).
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_STATIC_LINT_H
#define BALIGN_STATIC_LINT_H

#include "analysis/Diagnostics.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "profile/Profile.h"
#include "static/FlowSolver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace balign {

/// Everything one lint run produced.
struct LintResult {
  /// The findings, in deterministic program/procedure/check order.
  DiagnosticEngine Diags;

  /// Individual check evaluations performed (the lint.checks counter).
  size_t ChecksRun = 0;

  /// True when a profile was supplied and the profile checks ran.
  bool Profiled = false;

  /// Per-procedure flow verdicts, parallel to the program's procedure
  /// list; empty unless Profiled.
  std::vector<ProfileClass> ProcClasses;

  /// Procedure names, parallel to ProcClasses (for report rendering).
  std::vector<std::string> ProcNames;

  /// True when any finding is at least as severe as \p Min — the
  /// --lint=err exit-code predicate.
  bool failedAt(Severity Min) const;

  /// Worst flow verdict over all procedures (Consistent when unprofiled).
  ProfileClass worstClass() const;
};

/// Lints one procedure (with \p Profile null, structural checks only)
/// into \p Diags. Returns the number of check evaluations performed.
/// \p ProcClass, when non-null, receives the flow verdict (Consistent
/// when no profile was supplied).
size_t lintProcedure(const Procedure &Proc, const ProcedureProfile *Profile,
                     DiagnosticEngine &Diags,
                     ProfileClass *ProcClass = nullptr);

/// Lints a whole program: every procedure, plus the machine-model screen
/// when \p Model is non-null. \p Profile may be null (structural checks
/// only). Deterministic: byte-identical reports for identical inputs,
/// independent of thread count (lint itself is single-threaded and runs
/// before the parallel pipeline).
LintResult lintProgram(const Program &Prog, const ProgramProfile *Profile,
                       const MachineModel *Model);

/// Renders \p Result as one JSON object (schema documented in DESIGN.md
/// §13): {"version", "summary", "classes", "findings"}. Stable field
/// order; byte-identical for identical results.
std::string lintReportJson(const LintResult &Result);

/// \p S as the body of a JSON string: `"` and `\` backslash-escaped,
/// \n \t \r as themselves, every other control byte as \u00XX; bytes
/// from 0x20 up pass through. lintReportJson escapes every name and
/// message with it, and align_tool's batch lint array its file names.
std::string jsonEscaped(const std::string &S);

} // namespace balign

#endif // BALIGN_STATIC_LINT_H
