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
// are screened first since the arithmetic below assumes a well-shaped
// profile.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"

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

  // Inflow per block. Counts are far below 2^56 (screened above, and the
  // screen only warns), so the uint64 sums cannot wrap meaningfully.
  std::vector<uint64_t> Inflow(Proc.numBlocks(), 0);
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
    for (size_t S = 0; S != Profile.EdgeCounts[Id].size(); ++S)
      Inflow[Proc.successors(Id)[S]] += Profile.EdgeCounts[Id][S];

  uint64_t OutflowDeficit = 0;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    uint64_t Count = Profile.BlockCounts[Id];

    // Kirchhoff inflow: exact for non-entry blocks; the entry absorbs
    // one external arrival per invocation, so its inflow may fall short
    // but never exceed the count.
    if (Id == Proc.entry()) {
      if (Inflow[Id] > Count)
        Diags.report(Severity::Error, CheckId::ProfileFlowImbalance,
                     PassName, DiagLocation::block(Name, Id),
                     "entry inflow " + std::to_string(Inflow[Id]) +
                         " exceeds block count " + std::to_string(Count));
    } else if (Inflow[Id] != Count) {
      Diags.report(Severity::Error, CheckId::ProfileFlowImbalance, PassName,
                   DiagLocation::block(Name, Id),
                   "inflow " + std::to_string(Inflow[Id]) +
                       " != block count " + std::to_string(Count));
    }

    // Kirchhoff outflow: returns exit the procedure; every other block
    // must leave through an edge, except for abandoned walk tails.
    if (Proc.block(Id).Kind == TerminatorKind::Return)
      continue;
    uint64_t OutSum = 0;
    for (uint64_t EdgeCount : Profile.EdgeCounts[Id])
      OutSum += EdgeCount;
    if (OutSum > Count)
      Diags.report(Severity::Error, CheckId::ProfileFlowImbalance, PassName,
                   DiagLocation::block(Name, Id),
                   "outflow " + std::to_string(OutSum) +
                       " exceeds block count " + std::to_string(Count));
    else
      OutflowDeficit += Count - OutSum;
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
