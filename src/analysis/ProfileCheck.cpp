//===- analysis/ProfileCheck.cpp - Profile flow conservation --------------------===//
//
// Pass 2 of balign-verify: Kirchhoff flow conservation of edge profiles.
//
// The trace model (profile/Trace.h) fixes the conservation law exactly:
// an invocation enters at the entry block and leaves through a return, so
// for every block B
//
//   inflow(B)  = BlockCounts[B]                    for B != entry
//   inflow(E)  = BlockCounts[E] - Invocations      for the entry E
//   outflow(B) = BlockCounts[B]                    for non-return B
//
// A walk never stops short of a return (walkProfile throws rather than
// abandon one), so any outflow deficit is a truncated or hand-edited
// profile and the pass warns. Outflow exceeding the block count, or
// inflow disagreeing with the block count at a non-entry block, can
// never happen in a real profile and is an error. Shape mismatches (rows
// for edges the CFG does not have) and overflow-suspicious magnitudes
// are screened first since the flow sums assume a well-shaped profile.
// The sums themselves are lint's (flowViolations, static/FlowSolver.h),
// taken in wide integers, so counts near 2^64 cannot wrap into a fake
// balance; a sum past 2^64 - 1 is reported as 2^64 - 1.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include "static/FlowSolver.h"

using namespace balign;

static const char PassName[] = "profile-flow";

size_t balign::checkProfileFlow(const Procedure &Proc,
                                const ProcedureProfile &Profile,
                                DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();

  if (Profile.BlockCounts.size() != Proc.numBlocks() ||
      Profile.EdgeCounts.size() != Proc.numBlocks()) {
    Diags.report(Severity::Error, CheckId::ProfileShapeMismatch, PassName,
                 DiagLocation::procedure(Name),
                 "profile is shaped for " +
                     std::to_string(Profile.BlockCounts.size()) +
                     " blocks but the procedure has " +
                     std::to_string(Proc.numBlocks()));
    return Diags.errorCount() - Before;
  }

  bool Shaped = true;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    size_t Expected = Proc.successors(Id).size();
    size_t Got = Profile.EdgeCounts[Id].size();
    if (Got == Expected)
      continue;
    Shaped = false;
    // Extra rows are counts for edges absent from the CFG — the classic
    // stale-profile corruption; missing rows are a builder bug.
    Diags.report(Severity::Error,
                 Got > Expected ? CheckId::ProfileUnknownEdge
                                : CheckId::ProfileShapeMismatch,
                 PassName, DiagLocation::block(Name, Id),
                 "profile has " + std::to_string(Got) +
                     " edge counts but the block has " +
                     std::to_string(Expected) + " successors");
  }
  if (!Shaped)
    return Diags.errorCount() - Before;

  // Overflow screen: penalties compute count * cycles (<= 7) sums in
  // int64, so any single count near 2^56 deserves a warning.
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    if (Profile.BlockCounts[Id] > ProfileOverflowLimit)
      Diags.report(Severity::Warning, CheckId::ProfileCountOverflow,
                   PassName, DiagLocation::block(Name, Id),
                   "block count " + std::to_string(Profile.BlockCounts[Id]) +
                       " is overflow-suspicious");
    for (size_t S = 0; S != Profile.EdgeCounts[Id].size(); ++S)
      if (Profile.EdgeCounts[Id][S] > ProfileOverflowLimit)
        Diags.report(Severity::Warning, CheckId::ProfileCountOverflow,
                     PassName,
                     DiagLocation::edge(Name, Id, Proc.successors(Id)[S]),
                     "edge count " +
                         std::to_string(Profile.EdgeCounts[Id][S]) +
                         " is overflow-suspicious");
  }

  // Kirchhoff inflow is exact for non-entry blocks; the entry absorbs
  // one external arrival per invocation, so its inflow is flagged only
  // above the count. Outflow (returns exit the procedure) must meet
  // the count; a shortfall is an abandoned walk tail, summed below.
  uint64_t OutflowDeficit = 0;
  for (const FlowViolation &V : flowViolations(Proc, Profile)) {
    DiagLocation Here = DiagLocation::block(Name, V.Block);
    std::string Have = std::to_string(V.Have);
    std::string Want = std::to_string(V.Want);
    if (V.Inflow && V.Block == Proc.entry())
      Diags.report(Severity::Error, CheckId::ProfileFlowImbalance, PassName,
                   Here, "entry inflow " + Have + " exceeds block count " +
                             Want);
    else if (V.Inflow)
      Diags.report(Severity::Error, CheckId::ProfileFlowImbalance, PassName,
                   Here, "inflow " + Have + " != block count " + Want);
    else if (V.Have > V.Want)
      Diags.report(Severity::Error, CheckId::ProfileFlowImbalance, PassName,
                   Here, "outflow " + Have + " exceeds block count " + Want);
    else if (__builtin_add_overflow(OutflowDeficit, V.Want - V.Have,
                                    &OutflowDeficit))
      OutflowDeficit = ~uint64_t(0);
  }

  if (OutflowDeficit != 0)
    Diags.report(Severity::Warning, CheckId::ProfileFlowTruncated, PassName,
                 DiagLocation::procedure(Name),
                 "aggregate outflow deficit " +
                     std::to_string(OutflowDeficit) +
                     " exceeds slack 0 (truncated walks?)");

  return Diags.errorCount() - Before;
}

size_t balign::checkProfileFlow(const Program &Prog,
                                const ProgramProfile &Profile,
                                DiagnosticEngine &Diags) {
  if (Profile.Procs.size() != Prog.numProcedures()) {
    Diags.report(Severity::Error, CheckId::ProfileShapeMismatch, PassName,
                 DiagLocation::program(),
                 "profile has " + std::to_string(Profile.Procs.size()) +
                     " procedures but the program has " +
                     std::to_string(Prog.numProcedures()));
    return 1;
  }
  size_t Errors = 0;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    Errors += checkProfileFlow(Prog.proc(I), Profile.Procs[I], Diags);
  return Errors;
}
