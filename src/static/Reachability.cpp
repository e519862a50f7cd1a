//===- static/Reachability.cpp --------------------------------------------===//

#include "static/Reachability.h"

using namespace balign;

Reachability balign::computeReachability(const Procedure &Proc) {
  size_t N = Proc.numBlocks();
  Reachability R;
  R.FromEntry.assign(N, false);
  R.ToExit.assign(N, false);
  if (N == 0)
    return R;

  // Forward: worklist BFS from the entry. Out-of-range successors are
  // skipped: balign-verify's cfg-verify reads this on CFGs it has not
  // yet proven well-formed (and reports those edges itself).
  std::vector<BlockId> Worklist;
  R.FromEntry[Proc.entry()] = true;
  Worklist.push_back(Proc.entry());
  while (!Worklist.empty()) {
    BlockId B = Worklist.back();
    Worklist.pop_back();
    for (BlockId To : Proc.successors(B))
      if (To < N && !R.FromEntry[To]) {
        R.FromEntry[To] = true;
        Worklist.push_back(To);
      }
  }

  // Backward: BFS over reversed edges seeded at every Return block.
  std::vector<std::vector<BlockId>> Preds = Proc.computePredecessors();
  for (BlockId B = 0; B != N; ++B)
    if (Proc.block(B).Kind == TerminatorKind::Return) {
      R.ToExit[B] = true;
      Worklist.push_back(B);
    }
  while (!Worklist.empty()) {
    BlockId B = Worklist.back();
    Worklist.pop_back();
    for (BlockId From : Preds[B])
      if (!R.ToExit[From]) {
        R.ToExit[From] = true;
        Worklist.push_back(From);
      }
  }
  return R;
}
