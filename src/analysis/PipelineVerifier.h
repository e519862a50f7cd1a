//===- analysis/PipelineVerifier.h - verify-each for align::Pipeline --------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Ties the balign-verify passes to the alignment pipeline's procedure
/// hook (the LLVM -verify-each idea): a PipelineVerifier installs
/// AlignmentOptions::AfterProcedure so every cost matrix, tour, and
/// layout the pipeline produces is checked as each procedure completes,
/// and collects all findings in one DiagnosticEngine.
///
/// The verifier must outlive the alignProgram call it instruments (the
/// installed callback captures `this`).
///
/// The verifier is deliberately single-threaded: the pipeline's hook
/// contract (Pipeline.h) guarantees the callback runs serialized on the
/// calling thread, in program order — even when
/// AlignmentOptions::Threads parallelizes the stage computations — so
/// it needs no locking at any thread count.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ANALYSIS_PIPELINEVERIFIER_H
#define BALIGN_ANALYSIS_PIPELINEVERIFIER_H

#include "align/Pipeline.h"
#include "analysis/Verifier.h"

namespace balign {

class PipelineVerifier {
public:
  explicit PipelineVerifier(DiagnosticEngine &Diags,
                            VerifyOptions Options = VerifyOptions())
      : Diags(Diags), Options(Options) {}

  /// Verifies the pipeline's inputs: every procedure's CFG and every
  /// procedure profile's flow conservation. Returns errors added.
  size_t verifyInputs(const Program &Prog, const ProgramProfile &Train);

  /// Installs the verify-each callback as \p AlignOptions'
  /// AfterProcedure. Overwrites any hook already present.
  void install(AlignmentOptions &AlignOptions);

  /// Verifies a finished whole-program alignment with the checks
  /// verify-each runs on every procedure's result (checkResult). For
  /// alignments produced without the hook installed; the matrix audit,
  /// tour check and determinism replay need the in-flight solve
  /// artifacts and only run through verify-each.
  size_t verifyAlignment(const Program &Prog, const ProgramProfile &Train,
                         const MachineModel &Model,
                         const ProgramAlignment &Alignment);

private:
  /// The checks every finished procedure gets, hooked or not: layout
  /// legality and branch reach of all three layouts, and bound order.
  void checkResult(const Procedure &Proc, const ProcedureProfile &Train,
                   const ProcedureAlignment &Result);

  void afterProcedure(const Procedure &Proc, const ProcedureProfile &Train,
                      const ProcedureAlignment &Result,
                      const SolveArtifacts *Artifacts);

  DiagnosticEngine &Diags;
  VerifyOptions Options;
  MachineModel Model = MachineModel::alpha21164();
};

/// One-call verified alignment: checks the inputs, runs alignProgram
/// with verify-each installed, then checks the produced layouts and
/// bounds. All findings land in \p Diags; the alignment is returned
/// regardless (callers decide whether errors are fatal).
ProgramAlignment alignProgramVerified(const Program &Prog,
                                      const ProgramProfile &Train,
                                      AlignmentOptions Options,
                                      DiagnosticEngine &Diags,
                                      VerifyOptions Verify = VerifyOptions());

} // namespace balign

#endif // BALIGN_ANALYSIS_PIPELINEVERIFIER_H
