//===- tests/ProfileOracles.h - Count oracles for profiles and CFGs -*- C++ -*-===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test oracles: independent ways to count what a CFG holds and what a
/// profile says ran, which the tests check walkProfile, the workload
/// generator, the simulator and hand-built fixtures against. No shipped
/// output reads them.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_PROFILEORACLES_H
#define BALIGN_TESTS_PROFILEORACLES_H

#include "ir/CFG.h"
#include "profile/Profile.h"
#include "profile/Trace.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <utility>
#include <vector>

namespace balign {

/// Number of blocks ending in a conditional or multiway branch; the
/// paper's "branch sites" unit (Table 1 counts executed sites).
inline size_t numBranchSites(const Procedure &Proc) {
  size_t Count = 0;
  for (const BasicBlock &Block : Proc.blocks())
    if (Block.Kind == TerminatorKind::Conditional ||
        Block.Kind == TerminatorKind::Multiway)
      ++Count;
  return Count;
}

/// Checks the internal consistency invariant: for every non-return
/// block, the outgoing edge counts sum to the block count.
inline bool isFlowConsistent(const ProcedureProfile &Profile,
                             const Procedure &Proc) {
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    if (Proc.block(Id).Kind == TerminatorKind::Return)
      continue;
    uint64_t OutSum = 0;
    for (uint64_t Count : Profile.EdgeCounts[Id])
      OutSum += Count;
    if (OutSum != Profile.BlockCounts[Id])
      return false;
  }
  return true;
}

/// Total dynamic instruction count (sum over blocks of
/// BlockCounts[B] * InstrCount).
inline uint64_t dynamicInstructions(const ProcedureProfile &Profile,
                                    const Procedure &Proc) {
  uint64_t Sum = 0;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
    Sum += Profile.BlockCounts[Id] * Proc.block(Id).InstrCount;
  return Sum;
}

/// dynamicInstructions summed over every procedure of \p Prog.
inline uint64_t dynamicInstructions(const ProgramProfile &Profile,
                                    const Program &Prog) {
  uint64_t Sum = 0;
  for (size_t I = 0; I != Profile.Procs.size(); ++I)
    Sum += dynamicInstructions(Profile.Procs[I], Prog.proc(I));
  return Sum;
}

/// Derives edge/block counts from a trace. Every adjacent pair in the
/// trace within one invocation contributes one edge count. For a walk's
/// recorded trace this equals the profile the walk returned.
inline ProcedureProfile collectProfile(const Procedure &Proc,
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

/// Builds a profile directly from expected edge frequencies without
/// materializing a trace: BlockCounts/EdgeCounts are the expected counts
/// of a random walk, computed by flow propagation from the entry with
/// \p Invocations entries. Useful for tests that need an exactly
/// flow-consistent profile.
inline ProcedureProfile expectedProfile(const Procedure &Proc,
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

} // namespace balign

#endif // BALIGN_TESTS_PROFILEORACLES_H
