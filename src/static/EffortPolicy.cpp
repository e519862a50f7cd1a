//===- static/EffortPolicy.cpp --------------------------------------------===//

#include "static/EffortPolicy.h"

#include "static/Dominators.h"
#include "static/Loops.h"

#include <algorithm>

using namespace balign;

bool balign::parseEffortPolicy(const std::string &Name, EffortPolicy &Out) {
  if (Name == "uniform")
    Out = EffortPolicy::Uniform;
  else if (Name == "scaled")
    Out = EffortPolicy::Scaled;
  else if (Name == "scaled-cold-greedy")
    Out = EffortPolicy::ScaledColdGreedy;
  else
    return false;
  return true;
}

EffortDecision balign::decideEffort(const Procedure &Proc,
                                    const ProcedureProfile &Profile,
                                    const IteratedOptOptions &Base,
                                    EffortPolicy Policy) {
  EffortDecision Decision;
  Decision.Solver = Base;
  if (Policy == EffortPolicy::Uniform)
    return Decision;

  uint64_t Branches = Profile.executedBranches(Proc);
  DominatorTree Dom = DominatorTree::compute(Proc);
  unsigned Depth = LoopInfo::compute(Proc, Dom).maxDepth();

  // Kicks per run scale with where the penalty mass lives: loop-free
  // procedures have little to gain past local search, deep hot nests
  // repay extra exploration. MinIterationsPerRun still floors tiny
  // instances, so halving can never starve them.
  if (Depth == 0)
    Decision.Solver.IterationsFactor = Base.IterationsFactor / 2.0;
  else if (Depth >= 2 && Branches >= HotProcBranchThreshold)
    Decision.Solver.IterationsFactor =
        Base.IterationsFactor * std::min(Depth, 4u);

  if (Policy == EffortPolicy::ScaledColdGreedy &&
      Branches < ColdProcBranchThreshold)
    Decision.GreedyOnly = true;
  return Decision;
}
