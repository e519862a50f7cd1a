//===- align/Aligners.cpp -----------------------------------------------------===//

#include "align/Aligners.h"

#include "objective/Penalty.h"
#include "robust/FaultInjector.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <numeric>

using namespace balign;

namespace {

/// Chains beyond the entry chain whose order CalderGrunwaldAligner
/// searches exhaustively, and the longest chain ExtTspAligner splits to
/// insert another chain inside it.
constexpr size_t ExhaustiveChainLimit = 6, SplitChainLimit = 16;

/// A prioritized CFG edge for the greedy aligners.
struct GreedyEdge {
  uint64_t Priority; ///< Frequency (PH) or modeled benefit (CG).
  BlockId From;
  BlockId To;

  bool operator<(const GreedyEdge &Other) const {
    if (Priority != Other.Priority)
      return Priority > Other.Priority; // Descending priority.
    if (From != Other.From)
      return From < Other.From; // Deterministic tie-breaks.
    return To < Other.To;
  }
};

/// Bottom-up chaining shared by GreedyAligner and CalderGrunwaldAligner:
/// accepts edges in priority order under the Pettis-Hansen feasibility
/// checks; returns the chains with the entry chain first.
class ChainBuilder {
public:
  ChainBuilder(const Procedure &Proc, std::vector<GreedyEdge> Edges)
      : Proc(Proc), Next(Proc.numBlocks(), InvalidBlock),
        Prev(Proc.numBlocks(), InvalidBlock), Leader(Proc.numBlocks()) {
    std::iota(Leader.begin(), Leader.end(), 0);
    std::sort(Edges.begin(), Edges.end());
    for (const GreedyEdge &E : Edges)
      tryAccept(E);
  }

  /// Returns the chains; Chains[0] starts with the entry block.
  std::vector<std::vector<BlockId>>
  chains(const ProcedureProfile &Weights) const {
    std::vector<std::vector<BlockId>> Result;
    size_t EntryChain = 0;
    for (BlockId Head = 0; Head != Proc.numBlocks(); ++Head) {
      if (Prev[Head] != InvalidBlock)
        continue;
      std::vector<BlockId> Chain;
      for (BlockId Walk = Head; Walk != InvalidBlock; Walk = Next[Walk])
        Chain.push_back(Walk);
      if (Chain.front() == Proc.entry())
        EntryChain = Result.size();
      Result.push_back(std::move(Chain));
    }
    std::swap(Result[0], Result[EntryChain]);

    // Order the remaining chains by falling total execution weight
    // (deterministic tie-break on the first block id).
    auto ChainWeight = [&](const std::vector<BlockId> &Chain) {
      uint64_t Sum = 0;
      for (BlockId B : Chain)
        Sum += Weights.blockCount(B);
      return Sum;
    };
    std::sort(Result.begin() + 1, Result.end(),
              [&](const std::vector<BlockId> &A,
                  const std::vector<BlockId> &B) {
                uint64_t WA = ChainWeight(A), WB = ChainWeight(B);
                if (WA != WB)
                  return WA > WB;
                return A.front() < B.front();
              });
    return Result;
  }

private:
  void tryAccept(const GreedyEdge &E) {
    if (E.From == E.To)
      return; // Self loops can never be layout edges.
    if (E.To == Proc.entry())
      return; // Nothing may precede the entry block.
    if (Next[E.From] != InvalidBlock || Prev[E.To] != InvalidBlock)
      return; // Endpoint already claimed.
    if (find(E.From) == find(E.To))
      return; // Would close a layout cycle.
    Next[E.From] = E.To;
    Prev[E.To] = E.From;
    Leader[find(E.From)] = find(E.To);
  }

  BlockId find(BlockId B) const {
    while (Leader[B] != B) {
      Leader[B] = Leader[Leader[B]];
      B = Leader[B];
    }
    return B;
  }

  const Procedure &Proc;
  std::vector<BlockId> Next;
  std::vector<BlockId> Prev;
  mutable std::vector<BlockId> Leader;
};

Layout concatenateChains(const Procedure &Proc,
                         const std::vector<std::vector<BlockId>> &Chains) {
  Layout L;
  L.Order.reserve(Proc.numBlocks());
  for (const std::vector<BlockId> &Chain : Chains)
    L.Order.insert(L.Order.end(), Chain.begin(), Chain.end());
  assert(L.isValid(Proc) && "chaining lost or duplicated a block");
  return L;
}

/// The greedy frequency chains (paper 2.1), without the align.greedy
/// fault probe: the chain merger takes them as its floor, and a fault
/// injected at the greedy rung must not take the chain rung down with
/// it.
Layout greedyChains(const Procedure &Proc, const ProcedureProfile &Train) {
  std::vector<GreedyEdge> Edges;
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    for (size_t S = 0; S != Succs.size(); ++S)
      Edges.push_back({Train.edgeCount(B, S), B, Succs[S]});
  }
  ChainBuilder Builder(Proc, std::move(Edges));
  return concatenateChains(Proc, Builder.chains(Train));
}

} // namespace

Layout GreedyAligner::align(const Procedure &Proc,
                            const ProcedureProfile &Train,
                            const MachineModel &Model) const {
  (void)Model; // Frequency-greedy ignores the machine model (paper 2.1).
  // balign-shield fault site: the greedy aligner is the middle rung of
  // the degradation ladder, so it needs its own probe to exercise the
  // fall-through to the original layout.
  FaultInjector::instance().throwIfFault(FaultSite::AlignGreedy);
  return greedyChains(Proc, Train);
}

Layout CalderGrunwaldAligner::align(const Procedure &Proc,
                                    const ProcedureProfile &Train,
                                    const MachineModel &Model) const {
  // Priority = modeled penalty saved by making To the layout successor
  // of From, instead of laying From out next to nothing useful.
  std::vector<GreedyEdge> Edges;
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    uint64_t Detached =
        blockLayoutPenalty(Proc, Model, Train, Train, B, InvalidBlock);
    for (size_t S = 0; S != Succs.size(); ++S) {
      uint64_t Adjacent =
          blockLayoutPenalty(Proc, Model, Train, Train, B, Succs[S]);
      uint64_t Benefit = Detached >= Adjacent ? Detached - Adjacent : 0;
      Edges.push_back({Benefit, B, Succs[S]});
    }
  }
  ChainBuilder Builder(Proc, std::move(Edges));
  std::vector<std::vector<BlockId>> Chains = Builder.chains(Train);

  // Exhaustively order the hottest few non-entry chains; evaluate each
  // candidate layout under the training profile.
  size_t Permutable =
      std::min<size_t>(ExhaustiveChainLimit,
                       Chains.size() > 1 ? Chains.size() - 1 : 0);
  if (Permutable < 2)
    return concatenateChains(Proc, Chains);

  std::vector<size_t> Perm(Permutable);
  std::iota(Perm.begin(), Perm.end(), 1);
  uint64_t BestPenalty = ~static_cast<uint64_t>(0);
  Layout Best;
  do {
    std::vector<std::vector<BlockId>> Candidate;
    Candidate.push_back(Chains[0]);
    for (size_t Index : Perm)
      Candidate.push_back(Chains[Index]);
    for (size_t I = 1 + Permutable; I < Chains.size(); ++I)
      Candidate.push_back(Chains[I]);
    Layout L = concatenateChains(Proc, Candidate);
    uint64_t Penalty = evaluateLayout(Proc, L, Model, Train, Train);
    if (Penalty < BestPenalty) {
      BestPenalty = Penalty;
      Best = std::move(L);
    }
  } while (std::next_permutation(Perm.begin(), Perm.end()));
  return Best;
}

namespace {

/// Chain-merge working state: chain blocks, cached objective score, and
/// cached execution weight (sum of member block counts).
struct MergeChain {
  std::vector<BlockId> Blocks;
  double Score = 0.0;
  uint64_t Weight = 0;
  bool Alive = true;
};

/// Procedures above this size skip the O(N^3) refinement sweep; the
/// greedy-chains floor below still bounds the result from below.
constexpr size_t RefineMaxBlocks = 320;

/// Objective-guided local refinement: repeatedly relocate each length-1
/// and length-2 segment to its best-scoring position (entry pinned
/// first), to a fixpoint or a bounded pass count. Best-delta chain
/// merging is myopic — merging the chain pair with the largest
/// immediate gain can permanently lock a block behind a slightly hotter
/// edge's source and forfeit a hotter fall through elsewhere — and this
/// sweep is exactly the move (pull one misplaced block or pair back out)
/// that repairs those decisions. Deterministic: fixed scan order, strict
/// improvement only.
void refineSequence(const Procedure &Proc, const ProcedureProfile &Train,
                    const ObjectiveFn &Obj, std::vector<BlockId> &Order,
                    unsigned MaxPasses = 4) {
  size_t N = Order.size();
  if (N < 3 || N > RefineMaxBlocks)
    return;
  double Current = Obj.scoreSequence(Proc, Train, Order);
  std::vector<BlockId> Rest, Candidate, BestCandidate;
  bool Improved = true;
  for (unsigned Pass = 0; Improved && Pass != MaxPasses; ++Pass) {
    Improved = false;
    for (size_t Len = 1; Len <= 2; ++Len) {
      for (size_t I = 1; I + Len <= N; ++I) {
        Rest.clear();
        Rest.insert(Rest.end(), Order.begin(), Order.begin() + I);
        Rest.insert(Rest.end(), Order.begin() + I + Len, Order.end());
        double BestScore = Current;
        bool Found = false;
        for (size_t J = 1; J <= Rest.size(); ++J) {
          if (J == I)
            continue; // Reinserting in place reproduces Order.
          Candidate.clear();
          Candidate.insert(Candidate.end(), Rest.begin(), Rest.begin() + J);
          Candidate.insert(Candidate.end(), Order.begin() + I,
                           Order.begin() + I + Len);
          Candidate.insert(Candidate.end(), Rest.begin() + J, Rest.end());
          double Score = Obj.scoreSequence(Proc, Train, Candidate);
          if (Score > BestScore + 1e-9) {
            BestScore = Score;
            BestCandidate = Candidate;
            Found = true;
          }
        }
        if (Found) {
          Order = BestCandidate;
          Current = BestScore;
          Improved = true;
        }
      }
    }
  }
}

} // namespace

Layout ExtTspAligner::align(const Procedure &Proc,
                            const ProcedureProfile &Train,
                            const MachineModel &Model) const {
  // balign-shield fault site: like align.greedy, the chain merger is a
  // pipeline rung and every recovery path below it must be drivable.
  FaultInjector::instance().throwIfFault(FaultSite::AlignChain);
  if (Proc.numBlocks() <= 1)
    return Layout::original(Proc);

  std::unique_ptr<ObjectiveFn> Obj = makeObjective(Objective, Model);
  std::vector<MergeChain> Chains(Proc.numBlocks());
  std::vector<uint32_t> ChainOf(Proc.numBlocks());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    Chains[B].Blocks = {B};
    Chains[B].Score = Obj->scoreSequence(Proc, Train, Chains[B].Blocks);
    Chains[B].Weight = Train.blockCount(B);
    ChainOf[B] = B;
  }
  const uint32_t EntryChain = ChainOf[Proc.entry()];

  // Candidate merged sequences for the ordered chain pair (X, Y): plain
  // concatenation X+Y always; when X is short and at least as hot as Y,
  // also every interior split X[0..K) + Y + X[K..). The entry chain may
  // only grow at its tail (K >= 1 keeps the entry block first).
  std::vector<BlockId> Merged, BestMerged;
  auto tryCandidates = [&](uint32_t X, uint32_t Y, double &BestDelta,
                           uint32_t &BestX, uint32_t &BestY) {
    const MergeChain &CX = Chains[X], &CY = Chains[Y];
    double Before = CX.Score + CY.Score;
    size_t FirstSplit = CX.Blocks.size(); // Concatenation only by default.
    if (CX.Blocks.size() <= SplitChainLimit && CX.Weight >= CY.Weight)
      FirstSplit = X == EntryChain ? 1 : 0;
    for (size_t K = FirstSplit; K <= CX.Blocks.size(); ++K) {
      Merged.clear();
      Merged.insert(Merged.end(), CX.Blocks.begin(), CX.Blocks.begin() + K);
      Merged.insert(Merged.end(), CY.Blocks.begin(), CY.Blocks.end());
      Merged.insert(Merged.end(), CX.Blocks.begin() + K, CX.Blocks.end());
      double Delta = Obj->scoreSequence(Proc, Train, Merged) - Before;
      if (Delta > BestDelta) {
        BestDelta = Delta;
        BestX = X;
        BestY = Y;
        BestMerged = Merged;
      }
    }
  };

  // Merge the best-scoring pair until no merge strictly improves the
  // score. Each round rebuilds the connected-pair list from the executed
  // CFG edges (cheap: edge count is linear in the CFG).
  std::vector<std::pair<uint32_t, uint32_t>> Pairs;
  while (true) {
    Pairs.clear();
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      const std::vector<BlockId> &Succs = Proc.successors(B);
      for (size_t S = 0; S != Succs.size(); ++S) {
        if (Train.edgeCount(B, S) == 0)
          continue;
        uint32_t CA = ChainOf[B], CB = ChainOf[Succs[S]];
        if (CA != CB)
          Pairs.emplace_back(std::min(CA, CB), std::max(CA, CB));
      }
    }
    std::sort(Pairs.begin(), Pairs.end());
    Pairs.erase(std::unique(Pairs.begin(), Pairs.end()), Pairs.end());

    double BestDelta = 0.0;
    uint32_t BestX = 0, BestY = 0;
    for (const auto &[CA, CB] : Pairs) {
      if (CB != EntryChain)
        tryCandidates(CA, CB, BestDelta, BestX, BestY);
      if (CA != EntryChain)
        tryCandidates(CB, CA, BestDelta, BestX, BestY);
    }
    if (BestDelta <= 0.0)
      break;

    MergeChain &CX = Chains[BestX];
    MergeChain &CY = Chains[BestY];
    CX.Blocks = BestMerged;
    CX.Score = Obj->scoreSequence(Proc, Train, CX.Blocks);
    CX.Weight += CY.Weight;
    CY.Alive = false;
    CY.Blocks.clear();
    for (BlockId B : CX.Blocks)
      ChainOf[B] = BestX;
  }

  // Entry chain first, then falling weight with a front-block tie-break —
  // the same final order rule the greedy chainers use.
  std::vector<uint32_t> Order;
  for (uint32_t I = 0; I != Chains.size(); ++I)
    if (Chains[I].Alive && I != EntryChain)
      Order.push_back(I);
  std::sort(Order.begin(), Order.end(), [&](uint32_t A, uint32_t B) {
    if (Chains[A].Weight != Chains[B].Weight)
      return Chains[A].Weight > Chains[B].Weight;
    return Chains[A].Blocks.front() < Chains[B].Blocks.front();
  });

  std::vector<std::vector<BlockId>> Final;
  Final.push_back(std::move(Chains[EntryChain].Blocks));
  for (uint32_t I : Order)
    Final.push_back(std::move(Chains[I].Blocks));
  Layout Result = concatenateChains(Proc, Final);

  // Floor the merge result at the greedy frequency chains under our own
  // objective, then locally refine whichever start is better. The floor
  // guarantees the chain rung never ships a layout the cheaper greedy
  // rung beats on the very metric this aligner optimises.
  Layout Greedy = greedyChains(Proc, Train);
  if (Obj->scoreSequence(Proc, Train, Greedy.Order) >
      Obj->scoreSequence(Proc, Train, Result.Order) + 1e-9)
    Result = std::move(Greedy);
  refineSequence(Proc, Train, *Obj, Result.Order);
  return Result;
}
