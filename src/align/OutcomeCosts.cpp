//===- align/OutcomeCosts.cpp ------------------------------------------------------===//

#include "align/OutcomeCosts.h"

#include "machine/Predictors.h"

#include <algorithm>
#include <cassert>

using namespace balign;

OutcomeCounts OutcomeCounts::zeroed(const Procedure &Proc) {
  OutcomeCounts Counts;
  Counts.Correct.resize(Proc.numBlocks());
  Counts.Incorrect.resize(Proc.numBlocks());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    Counts.Correct[B].assign(Proc.successors(B).size(), 0);
    Counts.Incorrect[B].assign(Proc.successors(B).size(), 0);
  }
  return Counts;
}

OutcomeCounts balign::collectOutcomeCounts(const Procedure &Proc,
                                           const MaterializedLayout &Mat,
                                           const ExecutionTrace &Trace) {
  OutcomeCounts Counts = OutcomeCounts::zeroed(Proc);
  BimodalPredictor Predictor(BimodalTableEntries);

  auto SuccIndexOf = [&](BlockId From, BlockId To) -> size_t {
    const std::vector<BlockId> &Succs = Proc.successors(From);
    for (size_t S = 0; S != Succs.size(); ++S)
      if (Succs[S] == To)
        return S;
    return Succs.size();
  };

  for (size_t I = 0; I + 1 < Trace.Blocks.size(); ++I) {
    BlockId Current = Trace.Blocks[I];
    const BasicBlock &Block = Proc.block(Current);
    if (Block.Kind == TerminatorKind::Return)
      continue;
    BlockId Next = Trace.Blocks[I + 1];
    size_t SuccIdx = SuccIndexOf(Current, Next);
    if (SuccIdx == Proc.successors(Current).size())
      continue; // Abandoned walk boundary.

    switch (Block.Kind) {
    case TerminatorKind::Return:
      break;
    case TerminatorKind::Unconditional:
      // No prediction needed; always "correct".
      ++Counts.Correct[Current][SuccIdx];
      break;
    case TerminatorKind::Conditional: {
      // Trace-driven bimodal outcome; branch addresses (and hence table
      // aliasing) come from the given layout — the footnote 6 caveat.
      const BranchArrangement &Arr = Mat.Arrangements[Current];
      uint64_t Addr = Mat.blockAddress(Current);
      bool ActualTaken = Next == Arr.TakenTarget;
      bool Correct = Predictor.predict(Addr) == ActualTaken;
      Predictor.update(Addr, ActualTaken);
      if (Correct)
        ++Counts.Correct[Current][SuccIdx];
      else
        ++Counts.Incorrect[Current][SuccIdx];
      break;
    }
    case TerminatorKind::Multiway: {
      // Tallied provisionally as Correct; fixed up below once the most
      // common (predicted) arm is known.
      ++Counts.Correct[Current][SuccIdx];
      break;
    }
    }
  }

  // Multiway fixup: the predicted arm is the most common one; all other
  // arms' transfers were mispredictions.
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    if (Proc.block(B).Kind != TerminatorKind::Multiway)
      continue;
    std::vector<uint64_t> &Correct = Counts.Correct[B];
    size_t Best = 0;
    for (size_t S = 1; S != Correct.size(); ++S)
      if (Correct[S] > Correct[Best])
        Best = S;
    for (size_t S = 0; S != Correct.size(); ++S) {
      if (S == Best)
        continue;
      Counts.Incorrect[B][S] = Correct[S];
      Correct[S] = 0;
    }
  }
  return Counts;
}

/// penalty(B, X) under the general formula; X == InvalidBlock means no
/// CFG-related block follows (end of layout or an unrelated block).
static uint64_t outcomePenalty(const Procedure &Proc,
                               const OutcomeCounts &Outcomes,
                               const MachineModel &Model, BlockId B,
                               BlockId X) {
  const std::vector<BlockId> &Succs = Proc.successors(B);
  switch (Proc.block(B).Kind) {
  case TerminatorKind::Return:
    return 0;

  case TerminatorKind::Unconditional: {
    if (X == Succs[0])
      return 0;
    return (Outcomes.Correct[B][0] + Outcomes.Incorrect[B][0]) *
           Model.UncondBranch;
  }

  case TerminatorKind::Conditional: {
    auto EdgeCost = [&](size_t S, bool FallsThrough, bool ViaFixup) {
      uint64_t C = Outcomes.Correct[B][S];
      uint64_t I = Outcomes.Incorrect[B][S];
      uint64_t Cost = FallsThrough
                          ? C * Model.CondFallThrough + I * Model.CondMispredict
                          : C * Model.CondTakenCorrect + I * Model.CondMispredict;
      if (ViaFixup)
        Cost += (C + I) * Model.UncondBranch;
      return Cost;
    };
    if (X == Succs[0])
      return EdgeCost(0, true, false) + EdgeCost(1, false, false);
    if (X == Succs[1])
      return EdgeCost(1, true, false) + EdgeCost(0, false, false);
    // Fixup: one edge leaves through a fall-through jump; pick the
    // cheaper orientation (the paper attaches the fixup cost to the
    // DTSP edge that required it).
    uint64_t TakeFirst = EdgeCost(0, false, false) + EdgeCost(1, true, true);
    uint64_t TakeSecond = EdgeCost(1, false, false) + EdgeCost(0, true, true);
    return std::min(TakeFirst, TakeSecond);
  }

  case TerminatorKind::Multiway: {
    uint64_t Sum = 0;
    for (size_t S = 0; S != Succs.size(); ++S)
      Sum += Outcomes.Correct[B][S] * Model.MultiwayPredicted +
             Outcomes.Incorrect[B][S] * Model.MultiwayMispredict;
    return Sum;
  }
  }
  assert(false && "unknown terminator kind");
  return 0;
}

AlignmentTsp balign::buildOutcomeTsp(const Procedure &Proc,
                                     const OutcomeCounts &Outcomes,
                                     const MachineModel &Model) {
  return buildPinnedTsp(Proc, [&](BlockId B, BlockId X) {
    return outcomePenalty(Proc, Outcomes, Model, B, X);
  });
}
