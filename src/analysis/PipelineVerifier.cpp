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
  AlignOptions.Hooks.AfterMatrix =
      [this](size_t I, const Procedure &Proc, const ProcedureProfile &Train,
             const AlignmentTsp &Atsp) { afterMatrix(I, Proc, Train, Atsp); };
  AlignOptions.Hooks.AfterSolve =
      [this](size_t I, const Procedure &Proc, const ProcedureProfile &Train,
             const AlignmentTsp &Atsp, const DtspSolution &Solution,
             const IteratedOptOptions &SolverOptions) {
        afterSolve(I, Proc, Train, Atsp, Solution, SolverOptions);
      };
  AlignOptions.Hooks.AfterProcedure =
      [this](size_t I, const Procedure &Proc, const ProcedureProfile &Train,
             const ProcedureAlignment &Result) {
        afterProcedure(I, Proc, Train, Result);
      };
}

void PipelineVerifier::afterMatrix(size_t ProcIndex, const Procedure &Proc,
                                   const ProcedureProfile &Train,
                                   const AlignmentTsp &Atsp) {
  ScopedSpan Span("verify.matrix-audit", SpanCat::Verify);
  checkCostMatrix(Proc, Train, Model, Atsp, Diags, Options);
  Cache.Valid = true;
  Cache.ProcIndex = ProcIndex;
  Cache.Atsp = Atsp;
  Cache.Solution = DtspSolution();
}

void PipelineVerifier::afterSolve(size_t ProcIndex, const Procedure &Proc,
                                  const ProcedureProfile &Train,
                                  const AlignmentTsp &Atsp,
                                  const DtspSolution &Solution,
                                  const IteratedOptOptions &SolverOptions) {
  ScopedSpan Span("verify.tour-bounds", SpanCat::Verify);
  checkTour(Proc, Train, Model, Atsp, Solution.Tour, Solution.Cost, Diags);
  if (Cache.Valid && Cache.ProcIndex == ProcIndex) {
    Cache.Solution = Solution;
    Cache.SolverOptions = SolverOptions;
  }
}

void PipelineVerifier::afterProcedure(size_t ProcIndex, const Procedure &Proc,
                                      const ProcedureProfile &Train,
                                      const ProcedureAlignment &Result) {
  ScopedSpan Span("verify.layout-check", SpanCat::Verify);
  checkLayout(Proc, Result.OriginalLayout, Train, Model, Diags);
  checkLayout(Proc, Result.GreedyLayout, Train, Model, Diags);
  checkLayout(Proc, Result.TspLayout, Train, Model, Diags);
  {
    ScopedSpan DisplaceSpan("verify.displace.reachable", SpanCat::Verify);
    checkDisplacement(Proc, Result.OriginalLayout, Train, Model, Diags);
    checkDisplacement(Proc, Result.GreedyLayout, Train, Model, Diags);
    checkDisplacement(Proc, Result.TspLayout, Train, Model, Diags);
  }
  checkBounds(Proc, Result.Bounds, Result.TspPenalty, Diags);

  bool Profiled = Cache.Valid && Cache.ProcIndex == ProcIndex &&
                  !Cache.Solution.Tour.empty();
  if (Profiled && Options.Level == VerifyLevel::Full) {
    ScopedSpan ReplaySpan("verify.determinism", SpanCat::Verify);
    checkDeterminism(Proc, Train, Model, Cache.Atsp, Cache.SolverOptions,
                     Cache.Solution.Tour, Cache.Solution.Cost,
                     Result.TspLayout, Diags);
  }
  Cache.Valid = false;
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
  for (size_t I = 0; I != Prog.numProcedures(); ++I) {
    const ProcedureAlignment &PA = Alignment.Procs[I];
    checkLayout(Prog.proc(I), PA.OriginalLayout, Train.Procs[I], Model, Diags);
    checkLayout(Prog.proc(I), PA.GreedyLayout, Train.Procs[I], Model, Diags);
    checkLayout(Prog.proc(I), PA.TspLayout, Train.Procs[I], Model, Diags);
    checkDisplacement(Prog.proc(I), PA.TspLayout, Train.Procs[I], Model,
                      Diags);
    checkBounds(Prog.proc(I), PA.Bounds, PA.TspPenalty, Diags);
  }
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
