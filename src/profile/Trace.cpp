//===- profile/Trace.cpp ---------------------------------------------------===//

#include "profile/Trace.h"

#include <cassert>
#include <cmath>
#include <string>

using namespace balign;

BranchBehavior BranchBehavior::uniform(const Procedure &Proc) {
  BranchBehavior Behavior;
  Behavior.Probs.resize(Proc.numBlocks());
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    size_t NumSuccs = Proc.successors(Id).size();
    if (NumSuccs != 0)
      Behavior.Probs[Id].assign(NumSuccs, 1.0 / static_cast<double>(NumSuccs));
  }
  return Behavior;
}

bool BranchBehavior::isValid(const Procedure &Proc) const {
  if (Probs.size() != Proc.numBlocks())
    return false;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    size_t NumSuccs = Proc.successors(Id).size();
    if (Probs[Id].size() != NumSuccs)
      return false;
    if (NumSuccs == 0)
      continue;
    double Sum = 0.0;
    for (double P : Probs[Id]) {
      if (P < 0.0 || P > 1.0)
        return false;
      Sum += P;
    }
    if (std::fabs(Sum - 1.0) > 1e-9)
      return false;
  }
  return true;
}

/// Samples a successor index from the distribution \p Probs.
static size_t sampleSuccessor(const std::vector<double> &Probs, Rng &Rng) {
  double Draw = Rng.nextDouble();
  double Cumulative = 0.0;
  for (size_t I = 0; I != Probs.size(); ++I) {
    Cumulative += Probs[I];
    if (Draw < Cumulative)
      return I;
  }
  return Probs.size() - 1; // Rounding slack lands on the last successor.
}

/// For every block, the successor index on a shortest path to a Return
/// block (so a walk can wind down quickly once its branch budget is
/// spent). Blocks that cannot reach a return get NoExit.
static constexpr size_t NoExit = ~static_cast<size_t>(0);

static std::vector<size_t> computeExitSuccessors(const Procedure &Proc) {
  size_t N = Proc.numBlocks();
  constexpr uint32_t Inf = ~static_cast<uint32_t>(0);
  std::vector<uint32_t> Dist(N, Inf);
  std::vector<size_t> ExitSucc(N, NoExit);

  // Reverse BFS from the return blocks (uniform edge weight).
  std::vector<std::vector<BlockId>> Preds = Proc.computePredecessors();
  std::vector<BlockId> Frontier;
  for (BlockId B = 0; B != N; ++B) {
    if (Proc.block(B).Kind == TerminatorKind::Return) {
      Dist[B] = 0;
      Frontier.push_back(B);
    }
  }
  for (size_t Head = 0; Head != Frontier.size(); ++Head) {
    BlockId B = Frontier[Head];
    for (BlockId P : Preds[B]) {
      if (Dist[P] != Inf)
        continue;
      Dist[P] = Dist[B] + 1;
      Frontier.push_back(P);
    }
  }
  for (BlockId B = 0; B != N; ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    for (size_t S = 0; S != Succs.size(); ++S) {
      if (Dist[Succs[S]] == Inf)
        continue;
      if (ExitSucc[B] == NoExit ||
          Dist[Succs[S]] < Dist[Succs[ExitSucc[B]]])
        ExitSucc[B] = S;
    }
  }
  return ExitSucc;
}

/// The ProfileWalkError text for a walk of \p Proc that reached the cap
/// in block \p Id (named as the text format prints it).
static std::string walkCapMessage(const Procedure &Proc, BlockId Id) {
  const std::string &Name = Proc.block(Id).Name;
  return "synthetic walk of procedure '" + Proc.getName() +
         "' did not return within " +
         std::to_string(MaxBlocksPerInvocation) +
         " blocks (stopped in block '" +
         (Name.empty() ? "b" + std::to_string(Id) : Name) +
         "'); pass --profile";
}

ProcedureProfile balign::walkProfile(const Procedure &Proc,
                                     const BranchBehavior &Behavior,
                                     Rng &Rng, uint64_t BranchBudget,
                                     ExecutionTrace *Trace,
                                     const Deadline *Limit) {
  assert(Behavior.isValid(Proc) && "behavior does not match procedure");
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  std::vector<size_t> ExitSucc = computeExitSuccessors(Proc);
  uint64_t BranchesExecuted = 0;
  while (BranchesExecuted < BranchBudget) {
    if (Limit && Limit->expired())
      throw DeadlineExceeded("synthetic walk of procedure '" +
                             Proc.getName() + "' exceeded its deadline");
    uint64_t BranchesBefore = BranchesExecuted;
    if (Trace)
      ++Trace->Invocations;
    BlockId Current = Proc.entry();
    uint64_t Steps = 0;
    while (true) {
      ++Profile.BlockCounts[Current];
      if (Trace)
        Trace->Blocks.push_back(Current);
      const BasicBlock &Block = Proc.block(Current);
      if (Block.Kind == TerminatorKind::Conditional ||
          Block.Kind == TerminatorKind::Multiway)
        ++BranchesExecuted;
      if (Block.Kind == TerminatorKind::Return)
        break;
      if (++Steps > MaxBlocksPerInvocation)
        throw ProfileWalkError(walkCapMessage(Proc, Current));
      size_t Choice;
      if (BranchesExecuted >= BranchBudget && ExitSucc[Current] != NoExit) {
        // Budget spent: wind the invocation down along a shortest path
        // to a return so the overshoot stays small and the walk still
        // ends at invocation granularity (keeping profiles
        // flow-consistent).
        Choice = ExitSucc[Current];
      } else {
        Choice = sampleSuccessor(Behavior.Probs[Current], Rng);
      }
      ++Profile.EdgeCounts[Current][Choice];
      Current = Proc.successors(Current)[Choice];
    }
    // A branch-free invocation made only forced choices; every later
    // one would repeat it and the budget could never be met.
    if (BranchesExecuted == BranchesBefore)
      break;
  }
  return Profile;
}

ProcedureProfile balign::collectProfile(const Procedure &Proc,
                                        const ExecutionTrace &Trace) {
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  for (size_t I = 0; I != Trace.Blocks.size(); ++I) {
    BlockId Current = Trace.Blocks[I];
    ++Profile.BlockCounts[Current];
    if (Proc.block(Current).Kind == TerminatorKind::Return)
      continue; // Next trace element (if any) starts a new invocation.
    if (I + 1 == Trace.Blocks.size())
      continue; // A hand-built trace may end mid-invocation.
    BlockId Next = Trace.Blocks[I + 1];
    const std::vector<BlockId> &Succs = Proc.successors(Current);
    // In a walk's trace a non-return block is always followed by one of
    // its CFG successors. A hand-built trace may break an invocation off
    // before its return; the pair then counts only if the next block
    // happens to be a successor.
    for (size_t S = 0; S != Succs.size(); ++S) {
      if (Succs[S] == Next) {
        ++Profile.EdgeCounts[Current][S];
        break;
      }
    }
  }
  return Profile;
}

ProcedureProfile balign::expectedProfile(const Procedure &Proc,
                                         const BranchBehavior &Behavior,
                                         uint64_t Invocations,
                                         double LoopTolerance) {
  assert(Behavior.isValid(Proc) && "behavior does not match procedure");
  size_t N = Proc.numBlocks();
  std::vector<double> Flow(N, 0.0);

  // Power iteration: repeatedly push the entry mass through the chain
  // until the residual change drops below tolerance.
  std::vector<double> In(N, 0.0);
  In[Proc.entry()] = static_cast<double>(Invocations);
  std::vector<double> Next(N, 0.0);
  for (unsigned Iter = 0; Iter != 100000; ++Iter) {
    double Moved = 0.0;
    std::fill(Next.begin(), Next.end(), 0.0);
    for (BlockId Id = 0; Id != N; ++Id) {
      double Mass = In[Id];
      if (Mass == 0.0)
        continue;
      Flow[Id] += Mass;
      const std::vector<BlockId> &Succs = Proc.successors(Id);
      for (size_t S = 0; S != Succs.size(); ++S) {
        double Push = Mass * Behavior.Probs[Id][S];
        Next[Succs[S]] += Push;
        Moved += Push;
      }
    }
    std::swap(In, Next);
    if (Moved < LoopTolerance)
      break;
  }

  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  for (BlockId Id = 0; Id != N; ++Id) {
    const std::vector<BlockId> &Succs = Proc.successors(Id);
    uint64_t OutSum = 0;
    for (size_t S = 0; S != Succs.size(); ++S) {
      uint64_t Count = static_cast<uint64_t>(
          std::llround(Flow[Id] * Behavior.Probs[Id][S]));
      Profile.EdgeCounts[Id][S] = Count;
      OutSum += Count;
    }
    // Keep the flow-consistency invariant exactly: a block executes as
    // often as its out-edges fire; returns execute per rounded inflow.
    Profile.BlockCounts[Id] =
        Succs.empty() ? static_cast<uint64_t>(std::llround(Flow[Id]))
                      : OutSum;
  }
  return Profile;
}
