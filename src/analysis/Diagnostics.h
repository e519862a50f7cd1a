//===- analysis/Diagnostics.h - Structured verifier diagnostics -----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The diagnostic substrate of the balign-verify subsystem: every verifier
/// pass reports findings as structured Diagnostic records — severity, the
/// emitting pass, a stable machine-readable check ID, and a location
/// expressed in pipeline terms (procedure / block / edge) — collected by a
/// DiagnosticEngine that counts, filters, and renders them.
///
/// Stable check IDs are the contract: tests assert on them, and they must
/// never be renamed once released (add new ones instead). The full catalog
/// lives in the CheckId enum below; DESIGN.md's "Verification" section
/// documents the taxonomy.
///
/// This header deliberately depends only on the IR layer so that low-level
/// libraries (align, workloads) can emit diagnostics without linking the
/// verifier passes themselves.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ANALYSIS_DIAGNOSTICS_H
#define BALIGN_ANALYSIS_DIAGNOSTICS_H

#include "ir/CFG.h"

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace balign {

/// Diagnostic severity, ordered by increasing gravity.
enum class Severity : uint8_t {
  Note,    ///< Informational context attached to another finding.
  Warning, ///< Suspicious but not provably wrong (e.g. truncated flow).
  Error,   ///< An invariant is violated; results cannot be trusted.
};

/// Returns "note", "warning", or "error".
const char *severityName(Severity Sev);

/// Stable machine-readable identifiers for every check the verifier
/// framework performs. The printable form (checkIdName) is
/// "<pass>.<check>" and is part of the public contract: tests and
/// downstream tooling match on it.
enum class CheckId : uint16_t {
  // cfg-verify: deep CFG structural verification.
  CfgNoBlocks,        ///< cfg.no-blocks
  CfgEmptyBlock,      ///< cfg.empty-block
  CfgSuccOutOfRange,  ///< cfg.succ-out-of-range
  CfgJumpArity,       ///< cfg.jump-arity
  CfgCondArity,       ///< cfg.cond-arity
  CfgMultiArity,      ///< cfg.multi-arity
  CfgRetHasSucc,      ///< cfg.ret-has-succ
  CfgDuplicateEdge,   ///< cfg.duplicate-edge
  CfgUnreachable,     ///< cfg.unreachable-block
  CfgNoExitPath,      ///< cfg.no-exit-path
  CfgNoReturn,        ///< cfg.no-return-block

  // profile-flow: Kirchhoff flow conservation of edge profiles.
  ProfileShapeMismatch, ///< profile.shape-mismatch
  ProfileUnknownEdge,   ///< profile.unknown-edge
  ProfileFlowImbalance, ///< profile.flow-imbalance
  ProfileFlowTruncated, ///< profile.flow-truncated
  ProfileCountOverflow, ///< profile.count-overflow

  // layout-check: layout legality and materialization fidelity.
  LayoutNotPermutation,   ///< layout.not-permutation
  LayoutEntryNotFirst,    ///< layout.entry-not-first
  LayoutEdgeUnrealizable, ///< layout.edge-unrealizable
  LayoutFixupTargetWrong, ///< layout.fixup-target-wrong
  LayoutAddressDisorder,  ///< layout.address-disorder
  LayoutItemIndexBroken,  ///< layout.item-index-broken

  // matrix-audit: DTSP cost matrix and STSP transform invariants (the
  // transform's lock bonus and probe-tour round trip).
  MatrixNegativeCost,     ///< matrix.negative-cost
  MatrixBigMLeak,         ///< matrix.bigm-leak
  MatrixDummyRowBroken,   ///< matrix.dummy-row-broken
  MatrixCostMismatch,     ///< matrix.cost-mismatch
  MatrixTransformInexact, ///< matrix.transform-inexact
  MatrixEntryPinTooSmall, ///< matrix.entry-pin-too-small

  // tour-bounds: tour validity and lower-bound ordering.
  TourInvalid,         ///< tour.invalid
  TourCostMismatch,    ///< tour.cost-mismatch
  TourPinPaid,         ///< tour.pin-paid
  TourPenaltyMismatch, ///< tour.penalty-mismatch
  BoundHkExceedsTour,  ///< bounds.hk-exceeds-tour
  BoundApExceedsTour,  ///< bounds.ap-exceeds-tour
  BoundNegative,       ///< bounds.negative

  // determinism: cross-run replay divergence.
  DeterminismMatrixDiverged, ///< determinism.matrix-diverged
  DeterminismTourDiverged,   ///< determinism.tour-diverged
  DeterminismLayoutDiverged, ///< determinism.layout-diverged

  // pipeline: argument contracts of the alignment driver.
  PipelineProfileArity,     ///< pipeline.profile-arity
  PipelineProfileShape,     ///< pipeline.profile-shape
  PipelineLayoutArity,      ///< pipeline.layout-arity
  PipelineCacheNotAttached, ///< pipeline.cache-not-attached

  // shield: balign-shield failure isolation (surfaced as warnings — the
  // shipped layout is legal, just produced by a lower ladder rung).
  ShieldFallback, ///< shield.fallback
  ShieldSkipped,  ///< shield.skipped

  // trace: balign-scope span-stream and metric sanity.
  TraceNegativeDuration, ///< trace.negative-duration
  TraceBadNesting,       ///< trace.bad-nesting
  TraceSeqGap,           ///< trace.seq-gap
  TraceCounterRegressed, ///< trace.counter-regressed

  // lint: balign-lint static CFG/profile analysis (src/static/Lint.h).
  // Errors are profile lies (the training data cannot have come from a
  // real run); warnings are structural anomalies the aligner tolerates
  // but a build system should see; notes are advisory.
  LintUnreachableBlock,  ///< lint.unreachable-block
  LintUnreachableHot,    ///< lint.unreachable-hot
  LintCounterOverflow,   ///< lint.counter-overflow
  LintCounterSaturated,  ///< lint.counter-saturated
  LintFlowImbalance,     ///< lint.flow-imbalance
  LintFlowContradictory, ///< lint.flow-contradictory
  LintFlowRepair,        ///< lint.flow-repair
  LintIrreducibleLoop,   ///< lint.irreducible-loop
  LintDeepNest,          ///< lint.deep-nest
  LintNoLoopExit,        ///< lint.no-loop-exit
  LintSelfLoop,          ///< lint.self-loop
  LintLinearCfg,         ///< lint.linear-cfg
  LintModelSuspicious,   ///< lint.model-suspicious
  LintObjectiveWindow,   ///< lint.objective.window

  // displace-check: branch-displacement encoding soundness (pass 9,
  // analysis/DisplaceCheck.cpp). Errors mean the emitted code would not
  // execute correctly (a short-form branch cannot reach its target);
  // the minimality finding is a warning — wide-but-reachable code runs,
  // it is just not the least fixpoint the solver promises.
  DisplaceUnreachable,     ///< displace.unreachable
  DisplaceNotMinimal,      ///< displace.not-minimal
  DisplaceAddressMismatch, ///< displace.address-mismatch
};

/// Returns the stable printable ID, e.g. "cfg.unreachable-block".
const char *checkIdName(CheckId Check);

/// Where a finding is anchored: program scope (all fields empty), a
/// procedure, a block within it, or an edge Block -> EdgeTo.
struct DiagLocation {
  std::string Proc;               ///< Procedure name; empty = program scope.
  BlockId Block = InvalidBlock;   ///< Block within Proc, if any.
  BlockId EdgeTo = InvalidBlock;  ///< Set when the finding names an edge.

  static DiagLocation program() { return DiagLocation(); }
  static DiagLocation procedure(std::string Name);
  static DiagLocation block(std::string ProcName, BlockId Id);
  static DiagLocation edge(std::string ProcName, BlockId From, BlockId To);

  /// "proc 'f' block 3 -> 5" style rendering; "<program>" at top scope.
  std::string str() const;
};

/// One structured finding.
struct Diagnostic {
  Severity Sev = Severity::Error;
  CheckId Check = CheckId::CfgNoBlocks;
  std::string Pass; ///< Emitting pass name, e.g. "cfg-verify".
  DiagLocation Loc;
  std::string Message;

  /// "error: [cfg.unreachable-block] cfg-verify: proc 'f' block 3: ...".
  std::string render() const;
};

/// Collects diagnostics from verifier passes; counts by severity and
/// renders reports. Engines are cheap to construct; a fresh engine per
/// verification run keeps counters meaningful.
class DiagnosticEngine {
public:
  /// Reports a fully-formed diagnostic.
  void report(Diagnostic Diag);

  /// Convenience: builds and reports in one call.
  void report(Severity Sev, CheckId Check, std::string Pass,
              DiagLocation Loc, std::string Message);

  size_t errorCount() const { return NumErrors; }
  size_t warningCount() const { return NumWarnings; }
  size_t noteCount() const { return NumNotes; }
  bool hasErrors() const { return NumErrors != 0; }

  const std::vector<Diagnostic> &diagnostics() const { return Diags; }

  /// Number of collected diagnostics carrying \p Check.
  size_t count(CheckId Check) const;

  /// True if any collected diagnostic carries \p Check.
  bool has(CheckId Check) const { return count(Check) != 0; }

  /// All diagnostics rendered one per line.
  std::string renderAll() const;

  /// "3 errors, 1 warning" style summary.
  std::string summary() const;

  /// If true (default false), every report() also prints to stderr as it
  /// arrives — the -verify-each experience for command-line tools.
  void setEchoToStderr(bool Echo) { EchoToStderr = Echo; }

  void clear();

private:
  std::vector<Diagnostic> Diags;
  size_t NumErrors = 0;
  size_t NumWarnings = 0;
  size_t NumNotes = 0;
  bool EchoToStderr = false;
};

/// Renders \p Diag to stderr and aborts. The LLVM report_fatal_error
/// analogue used where continuing would compute garbage (e.g. a pipeline
/// invoked with a profile shaped for a different program).
[[noreturn]] void reportFatal(const Diagnostic &Diag);

/// If \p Diags holds any errors, renders them all to stderr (prefixed
/// with \p What) and aborts. Used by self-checking generators.
void reportFatalIfErrors(const DiagnosticEngine &Diags, const char *What);

} // namespace balign

#endif // BALIGN_ANALYSIS_DIAGNOSTICS_H
