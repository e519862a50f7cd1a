//===- profile/Trace.cpp ---------------------------------------------------===//

#include "profile/Trace.h"

#include "support/Format.h"

#include <cassert>
#include <cmath>
#include <limits>
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
    // Written so that NaN fails both tests.
    for (double P : Probs[Id]) {
      if (!(P >= 0.0 && P <= 1.0))
        return false;
      Sum += P;
    }
    if (!(std::fabs(Sum - 1.0) <= 1e-9))
      return false;
  }
  return true;
}

/// For every block, the successor index on a shortest path to a Return
/// block (so a walk can wind down quickly once its branch budget is
/// spent). Blocks that cannot reach a return get NoExit.
static constexpr uint32_t NoExit = ~static_cast<uint32_t>(0);

static std::vector<uint32_t> computeExitSuccessors(const Procedure &Proc) {
  size_t N = Proc.numBlocks();
  constexpr uint32_t Inf = ~static_cast<uint32_t>(0);
  std::vector<uint32_t> Dist(N, Inf);
  std::vector<uint32_t> ExitSucc(N, NoExit);

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
    for (uint32_t S = 0; S != Succs.size(); ++S) {
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
  return "synthetic walk of procedure '" + escapeControlBytes(Proc.getName()) +
         "' did not return within " +
         std::to_string(MaxBlocksPerInvocation) +
         " blocks (stopped in block '" +
         (Name.empty() ? "b" + std::to_string(Id) : escapeControlBytes(Name)) +
         "'); pass --profile";
}

namespace {

enum StepFlags : uint8_t { IsBranch = 1, IsReturn = 2 };

/// One block of the walk, flat. A successor is chosen as a draw from the
/// behavior's distribution: the first successor whose running sum of
/// probabilities (added left to right) exceeds the draw, else the last.
/// With two successors that is Succ[Draw < Sum0 ? 0 : 1]; a jump is the
/// same step with Sum0 = +inf and its target twice. A block of three or
/// more successors reads its sums from the per-slot arrays.
struct StepRecord {
  double Sum0;
  BlockId Succ[2];
  /// The block's first slot in the per-slot arrays: one slot per
  /// successor edge, and one for a return block's own count.
  uint32_t Slot;
  uint32_t NumSuccs;
  uint32_t Exit; ///< Successor index on a shortest path to a return.
  uint8_t Flags;
};

/// The walk's view of a procedure and its behavior.
struct WalkTables {
  std::vector<StepRecord> Steps;
  std::vector<double> Sums;      ///< Per slot: the running sum through it.
  std::vector<BlockId> Targets;  ///< Per slot: the edge's target.
};

WalkTables buildWalkTables(const Procedure &Proc,
                           const BranchBehavior &Behavior) {
  std::vector<uint32_t> ExitSucc = computeExitSuccessors(Proc);
  WalkTables T;
  T.Steps.resize(Proc.numBlocks());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    StepRecord &Step = T.Steps[B];
    TerminatorKind Kind = Proc.block(B).Kind;
    const std::vector<BlockId> &Succs = Proc.successors(B);
    const std::vector<double> &Probs = Behavior.Probs[B];
    Step.Slot = static_cast<uint32_t>(T.Sums.size());
    Step.NumSuccs = static_cast<uint32_t>(Succs.size());
    Step.Exit = ExitSucc[B];
    if (Kind == TerminatorKind::Return) {
      Step.Flags = IsReturn;
      T.Sums.push_back(0.0);
      T.Targets.push_back(InvalidBlock);
      continue;
    }
    assert(!Succs.empty() && "a non-return block needs a successor");
    if (Kind == TerminatorKind::Conditional ||
        Kind == TerminatorKind::Multiway)
      Step.Flags = IsBranch;
    double Cumulative = 0.0;
    for (size_t I = 0; I != Succs.size(); ++I) {
      Cumulative += Probs[I];
      T.Sums.push_back(Cumulative);
      T.Targets.push_back(Succs[I]);
    }
    if (Succs.size() == 1) {
      Step.Sum0 = std::numeric_limits<double>::infinity();
      Step.Succ[0] = Step.Succ[1] = Succs[0];
    } else if (Succs.size() == 2) {
      Step.Sum0 = T.Sums[Step.Slot];
      Step.Succ[0] = Succs[0];
      Step.Succ[1] = Succs[1];
    }
  }
  return T;
}

/// The walk itself, over \p T with per-slot counters \p Counts. The
/// generator is held in a local copy and written back to \p Gen however
/// the walk ends.
template <bool Traced>
void runWalk(const Procedure &Proc, const WalkTables &T, Rng &Gen,
             uint64_t BranchBudget, std::vector<uint64_t> &Counts,
             ExecutionTrace *Trace, const Deadline *Limit) {
  Rng R = Gen;
  const StepRecord *Steps = T.Steps.data();
  uint64_t *Slots = Counts.data();
  uint64_t BranchesExecuted = 0;
  while (BranchesExecuted < BranchBudget) {
    if (Limit && Limit->expired()) {
      Gen = R;
      throw DeadlineExceeded("synthetic walk of procedure '" +
                             escapeControlBytes(Proc.getName()) +
                             "' exceeded its deadline");
    }
    uint64_t BranchesBefore = BranchesExecuted;
    if constexpr (Traced)
      ++Trace->Invocations;
    BlockId Current = 0; // The entry.
    uint64_t Visited = 0;
    while (true) {
      const StepRecord &Step = Steps[Current];
      if constexpr (Traced)
        Trace->Blocks.push_back(Current);
      BranchesExecuted += static_cast<uint64_t>(Step.Flags & IsBranch);
      if (Step.Flags & IsReturn) {
        ++Slots[Step.Slot];
        break;
      }
      if (++Visited > MaxBlocksPerInvocation) {
        Gen = R;
        throw ProfileWalkError(walkCapMessage(Proc, Current));
      }
      uint32_t Choice;
      BlockId Next;
      if (BranchesExecuted >= BranchBudget && Step.Exit != NoExit)
          [[unlikely]] {
        // Budget spent: wind the invocation down along a shortest path
        // to a return so the overshoot stays small and the walk still
        // ends at invocation granularity (keeping profiles
        // flow-consistent).
        Choice = Step.Exit;
        Next = T.Targets[Step.Slot + Choice];
      } else if (Step.NumSuccs > 2) [[unlikely]] {
        double Draw = R.nextDouble();
        Choice = 0;
        while (Choice + 1 != Step.NumSuccs &&
               !(Draw < T.Sums[Step.Slot + Choice]))
          ++Choice;
        Next = T.Targets[Step.Slot + Choice];
      } else {
        bool Second = !(R.nextDouble() < Step.Sum0);
        Choice = Second;
        Next = Second ? Step.Succ[1] : Step.Succ[0];
      }
      ++Slots[Step.Slot + Choice];
      Current = Next;
    }
    // A branch-free invocation made only forced choices; every later
    // one would repeat it and the budget could never be met.
    if (BranchesExecuted == BranchesBefore)
      break;
  }
  Gen = R;
}

} // namespace

ProcedureProfile balign::walkProfile(const Procedure &Proc,
                                     const BranchBehavior &Behavior,
                                     Rng &Rng, uint64_t BranchBudget,
                                     ExecutionTrace *Trace,
                                     const Deadline *Limit) {
  assert(Behavior.isValid(Proc) && "behavior does not match procedure");
  WalkTables T = buildWalkTables(Proc, Behavior);
  std::vector<uint64_t> Counts(T.Sums.size(), 0);
  if (Trace)
    runWalk<true>(Proc, T, Rng, BranchBudget, Counts, Trace, Limit);
  else
    runWalk<false>(Proc, T, Rng, BranchBudget, Counts, nullptr, Limit);

  // A non-return block ran as often as its edges fired; a return block
  // has its own slot.
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    const StepRecord &Step = T.Steps[B];
    if (Step.Flags & IsReturn) {
      Profile.BlockCounts[B] = Counts[Step.Slot];
      continue;
    }
    std::vector<uint64_t> &Edges = Profile.EdgeCounts[B];
    for (size_t I = 0; I != Edges.size(); ++I) {
      Edges[I] = Counts[Step.Slot + I];
      Profile.BlockCounts[B] += Edges[I];
    }
  }
  return Profile;
}
