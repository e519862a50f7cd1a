//===- profile/Profile.cpp -------------------------------------------------===//

#include "profile/Profile.h"

#include <cassert>

using namespace balign;

ProcedureProfile ProcedureProfile::zeroed(const Procedure &Proc) {
  ProcedureProfile Profile;
  Profile.EdgeCounts.resize(Proc.numBlocks());
  Profile.BlockCounts.assign(Proc.numBlocks(), 0);
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
    Profile.EdgeCounts[Id].assign(Proc.successors(Id).size(), 0);
  return Profile;
}

uint64_t ProcedureProfile::executedBranches(const Procedure &Proc) const {
  uint64_t Sum = 0;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    TerminatorKind Kind = Proc.block(Id).Kind;
    if (Kind == TerminatorKind::Conditional ||
        Kind == TerminatorKind::Multiway)
      Sum += BlockCounts[Id];
  }
  return Sum;
}

size_t ProcedureProfile::branchSitesTouched(const Procedure &Proc) const {
  size_t Count = 0;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    TerminatorKind Kind = Proc.block(Id).Kind;
    if ((Kind == TerminatorKind::Conditional ||
         Kind == TerminatorKind::Multiway) &&
        BlockCounts[Id] > 0)
      ++Count;
  }
  return Count;
}

size_t ProcedureProfile::hottestSuccessor(BlockId From) const {
  const std::vector<uint64_t> &Counts = EdgeCounts[From];
  assert(!Counts.empty() && "block has no successors");
  size_t Best = 0;
  for (size_t I = 1; I != Counts.size(); ++I)
    if (Counts[I] > Counts[Best])
      Best = I;
  return Best;
}

bool ProcedureProfile::shapeMatches(const Procedure &Proc) const {
  if (BlockCounts.size() != Proc.numBlocks() ||
      EdgeCounts.size() != Proc.numBlocks())
    return false;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
    if (EdgeCounts[Id].size() != Proc.successors(Id).size())
      return false;
  return true;
}

uint64_t ProgramProfile::executedBranches(const Program &Prog) const {
  uint64_t Sum = 0;
  for (size_t I = 0; I != Procs.size(); ++I)
    Sum += Procs[I].executedBranches(Prog.proc(I));
  return Sum;
}

size_t ProgramProfile::branchSitesTouched(const Program &Prog) const {
  size_t Sum = 0;
  for (size_t I = 0; I != Procs.size(); ++I)
    Sum += Procs[I].branchSitesTouched(Prog.proc(I));
  return Sum;
}
