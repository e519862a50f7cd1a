//===- static/Dominators.cpp ----------------------------------------------===//

#include "static/Dominators.h"

#include <algorithm>
#include <cassert>
#include <utility>

using namespace balign;

namespace {

/// Iterative postorder DFS from the entry. Recursion is off the table:
/// generated CFGs nest arbitrarily deep and lint must survive adversarial
/// inputs without blowing the stack.
std::vector<BlockId> postOrder(const Procedure &Proc) {
  std::vector<BlockId> Order;
  if (Proc.numBlocks() == 0)
    return Order;
  std::vector<uint8_t> Visited(Proc.numBlocks(), 0);
  // Each frame is (block, next successor index to explore).
  std::vector<std::pair<BlockId, size_t>> Stack;
  Stack.push_back({Proc.entry(), 0});
  Visited[Proc.entry()] = 1;
  while (!Stack.empty()) {
    auto &[Block, NextSucc] = Stack.back();
    const std::vector<BlockId> &Succs = Proc.successors(Block);
    if (NextSucc < Succs.size()) {
      BlockId To = Succs[NextSucc++];
      if (!Visited[To]) {
        Visited[To] = 1;
        Stack.push_back({To, 0});
      }
    } else {
      Order.push_back(Block);
      Stack.pop_back();
    }
  }
  return Order;
}

} // namespace

DominatorTree DominatorTree::compute(const Procedure &Proc) {
  DominatorTree Tree;
  size_t N = Proc.numBlocks();
  Tree.Entry = Proc.entry();
  Tree.Idom.assign(N, InvalidBlock);
  Tree.Depth.assign(N, 0);
  Tree.RpoIndex.assign(N, 0);
  if (N == 0)
    return Tree;

  // Reverse postorder over the reachable subgraph.
  Tree.Rpo = postOrder(Proc);
  std::reverse(Tree.Rpo.begin(), Tree.Rpo.end());
  for (unsigned I = 0; I != Tree.Rpo.size(); ++I)
    Tree.RpoIndex[Tree.Rpo[I]] = I;

  // Predecessor lists restricted to reachable blocks (an unreachable
  // predecessor has no dominator information to intersect). Every
  // successor of a reachable block is reachable.
  std::vector<std::vector<BlockId>> Preds(N);
  for (BlockId B : Tree.Rpo)
    for (BlockId To : Proc.successors(B))
      Preds[To].push_back(B);

  // CHK: initialize idom(entry) = entry, iterate intersection in RPO
  // until nothing changes. The "two-finger" intersect climbs the
  // partially built tree using RPO numbers as the ordering.
  Tree.Idom[Tree.Entry] = Tree.Entry;
  auto intersect = [&](BlockId A, BlockId B) {
    while (A != B) {
      while (Tree.RpoIndex[A] > Tree.RpoIndex[B])
        A = Tree.Idom[A];
      while (Tree.RpoIndex[B] > Tree.RpoIndex[A])
        B = Tree.Idom[B];
    }
    return A;
  };
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (BlockId B : Tree.Rpo) {
      if (B == Tree.Entry)
        continue;
      BlockId NewIdom = InvalidBlock;
      for (BlockId P : Preds[B]) {
        if (Tree.Idom[P] == InvalidBlock)
          continue; // Not yet processed this sweep.
        NewIdom = NewIdom == InvalidBlock ? P : intersect(P, NewIdom);
      }
      // Every reachable non-entry block has a reachable predecessor, and
      // in RPO at least one predecessor precedes B, so the first sweep
      // already finds a candidate.
      assert(NewIdom != InvalidBlock && "reachable block with no idom");
      if (Tree.Idom[B] != NewIdom) {
        Tree.Idom[B] = NewIdom;
        Changed = true;
      }
    }
  }

  // The entry's self-idom was scaffolding for intersect(); the public
  // contract is "no immediate dominator".
  Tree.Idom[Tree.Entry] = InvalidBlock;

  // Depths, in RPO so a block's idom is always numbered first.
  for (BlockId B : Tree.Rpo)
    if (B != Tree.Entry)
      Tree.Depth[B] = Tree.Depth[Tree.Idom[B]] + 1;
  return Tree;
}

bool DominatorTree::dominates(BlockId A, BlockId B) const {
  if (!reachable(B) || !reachable(A))
    return false;
  // Climb B's idom chain to A's depth; equality there decides.
  while (Depth[B] > Depth[A])
    B = Idom[B];
  return A == B;
}
