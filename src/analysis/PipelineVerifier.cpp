//===- analysis/PipelineVerifier.cpp - verify-each for align::Pipeline ------===//

#include "analysis/PipelineVerifier.h"

#include "trace/Scope.h"

using namespace balign;

size_t PipelineVerifier::verifyInputs(const Program &Prog,
                                      const ProgramProfile &Train) {
  ScopedSpan Span("verify.inputs", SpanCat::Verify);
  size_t Errors = checkCfg(Prog, Diags);
  Errors += checkProfileFlow(Prog, Train, Diags);
  return Errors;
}

void PipelineVerifier::install(AlignmentOptions &AlignOptions) {
  Model = AlignOptions.Model;
  AlignOptions.AfterProcedure =
      [this](size_t, const Procedure &Proc, const ProcedureProfile &Train,
             const ProcedureAlignment &Result,
             const SolveArtifacts *Artifacts) {
        afterProcedure(Proc, Train, Result, Artifacts);
      };
}

void PipelineVerifier::checkResult(const Procedure &Proc,
                                   const ProcedureProfile &Train,
                                   const ProcedureAlignment &Result) {
  const Layout *Layouts[] = {&Result.OriginalLayout, &Result.GreedyLayout,
                             &Result.TspLayout};
  for (const Layout *L : Layouts)
    checkLayout(Proc, *L, Train, Model, Diags);
  {
    ScopedSpan DisplaceSpan("verify.displace.reachable", SpanCat::Verify);
    for (const Layout *L : Layouts)
      checkDisplacement(Proc, *L, Train, Model, Diags);
  }
  checkBounds(Proc, Result.Bounds, Result.TspPenalty, Diags);
}

void PipelineVerifier::afterProcedure(const Procedure &Proc,
                                      const ProcedureProfile &Train,
                                      const ProcedureAlignment &Result,
                                      const SolveArtifacts *Artifacts) {
  if (Artifacts) {
    {
      ScopedSpan Span("verify.matrix-audit", SpanCat::Verify);
      checkCostMatrix(Proc, Train, Model, Artifacts->Atsp, Diags, Options);
    }
    ScopedSpan Span("verify.tour-bounds", SpanCat::Verify);
    checkTour(Proc, Train, Model, Artifacts->Atsp, Artifacts->Solution.Tour,
              Artifacts->Solution.Cost, Diags);
  }

  ScopedSpan Span("verify.layout-check", SpanCat::Verify);
  checkResult(Proc, Train, Result);

  if (Artifacts && Options.Level == VerifyLevel::Full) {
    ScopedSpan ReplaySpan("verify.determinism", SpanCat::Verify);
    checkDeterminism(Proc, Train, Model, Artifacts->Atsp,
                     Artifacts->SolverOptions, Artifacts->Solution.Tour,
                     Artifacts->Solution.Cost, Result.TspLayout, Diags);
  }
}

size_t PipelineVerifier::verifyAlignment(const Program &Prog,
                                         const ProgramProfile &Train,
                                         const MachineModel &AlignModel,
                                         const ProgramAlignment &Alignment) {
  size_t Before = Diags.errorCount();
  if (Alignment.Procs.size() != Prog.numProcedures() ||
      Train.Procs.size() != Prog.numProcedures()) {
    Diags.report(Severity::Error, CheckId::PipelineLayoutArity,
                 "pipeline-verify", DiagLocation::program(),
                 "alignment covers " + std::to_string(Alignment.Procs.size()) +
                     " procedures, profile " +
                     std::to_string(Train.Procs.size()) +
                     ", program has " + std::to_string(Prog.numProcedures()));
    return Diags.errorCount() - Before;
  }
  Model = AlignModel;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    checkResult(Prog.proc(I), Train.Procs[I], Alignment.Procs[I]);
  return Diags.errorCount() - Before;
}

ProgramAlignment balign::alignProgramVerified(const Program &Prog,
                                              const ProgramProfile &Train,
                                              AlignmentOptions AlignOptions,
                                              DiagnosticEngine &Diags,
                                              VerifyOptions Verify) {
  if (Verify.Level == VerifyLevel::None)
    return alignProgram(Prog, Train, AlignOptions);
  PipelineVerifier Verifier(Diags, Verify);
  Verifier.verifyInputs(Prog, Train);
  Verifier.install(AlignOptions);
  ProgramAlignment Alignment = alignProgram(Prog, Train, AlignOptions);
  // Surface what balign-shield degraded alongside the verify findings:
  // fallback layouts are legal (layout-check above covered them), but
  // `--verify` readers should see exactly which procedures left the
  // full path and why.
  reportShieldFindings(Alignment, Diags);
  return Alignment;
}
