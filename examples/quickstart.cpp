//===- examples/quickstart.cpp - 60-second tour of the library -------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Builds a small procedure by hand, profiles it with a synthetic trace,
// aligns it with alignProgram (the original, greedy and TSP-based layouts
// of every procedure, and their Held-Karp lower bound), and prints the
// control penalty of every layout next to the bound.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "ir/CFGBuilder.h"
#include "profile/Trace.h"
#include "support/Random.h"

#include <cstdio>

using namespace balign;

int main() {
  // A procedure with a hot loop whose hot path zig-zags through the
  // source order — exactly the situation branch alignment fixes:
  //
  //   entry -> header; header -> {body | exit}; body -> {rare | tail};
  //   rare -> tail; tail -> header
  CFGBuilder B("hot_loop");
  BlockId Entry = B.jump(4, "entry");
  BlockId Header = B.cond(2, "header");
  BlockId Rare = B.jump(6, "rare");     // Placed hot-path-hostile.
  BlockId Body = B.cond(5, "body");
  BlockId Tail = B.jump(3, "tail");
  BlockId Exit = B.ret(1, "exit");
  B.edge(Entry, Header);
  B.branches(Header, Body, Exit); // Taken = stay in loop.
  B.branches(Body, Rare, Tail);
  B.edge(Rare, Tail);
  B.edge(Tail, Header);
  Procedure Proc = B.take();

  // "Run" the procedure: a seeded random walk with a 97%-stay loop and a
  // 2%-rare path stands in for an instrumented profiling run.
  BranchBehavior Behavior = BranchBehavior::uniform(Proc);
  Behavior.Probs[Header] = {0.97, 0.03};
  Behavior.Probs[Body] = {0.02, 0.98};
  Rng TraceRng(42);
  ExecutionTrace Trace;
  ProcedureProfile Profile =
      walkProfile(Proc, Behavior, TraceRng, /*BranchBudget=*/100000, &Trace);
  std::printf("profiled %llu branch executions over %llu invocations\n",
              static_cast<unsigned long long>(Profile.executedBranches(Proc)),
              static_cast<unsigned long long>(Trace.Invocations));

  // Align three ways and evaluate under the Alpha 21164 model (Table 3),
  // the pipeline's default; bounds are on by default too.
  Program Prog("quickstart");
  Prog.addProcedure(Proc);
  ProgramProfile Train;
  Train.Procs.push_back(Profile);
  ProcedureAlignment A = alignProgram(Prog, Train, AlignmentOptions()).Procs[0];

  auto report = [&](const char *Name, const Layout &L, uint64_t Penalty) {
    std::printf("%-8s penalty %10llu cycles | layout:", Name,
                static_cast<unsigned long long>(Penalty));
    for (BlockId Id : L.Order)
      std::printf(" %s", Proc.block(Id).Name.c_str());
    std::printf("\n");
  };
  report("original", A.OriginalLayout, A.OriginalPenalty);
  report("greedy", A.GreedyLayout, A.GreedyPenalty);
  report("tsp", A.TspLayout, A.TspPenalty);

  // How good is that? Ask the Held-Karp bound.
  std::printf("held-karp lower bound: %.1f cycles (tsp is within %.2f%%)\n",
              A.Bounds.HeldKarp,
              A.Bounds.HeldKarp > 0
                  ? 100.0 * (static_cast<double>(A.TspPenalty) -
                             A.Bounds.HeldKarp) /
                        A.Bounds.HeldKarp
                  : 0.0);
  return 0;
}
