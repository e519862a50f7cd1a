//===- examples/interpreter_dispatch.cpp - Aligning a bytecode VM ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// The motivating scenario behind the paper's xli benchmark: a bytecode
// interpreter whose hot loop is a multiway dispatch over opcode handlers.
// The source order lists the handlers alphabetically, but the dynamic
// opcode mix is heavily skewed, so the original layout scatters the hot
// handlers across the instruction cache and pays taken-branch penalties
// on every dispatch.
//
// This example builds that interpreter CFG, profiles two "bytecode
// programs" (one arithmetic-heavy, one comparison-heavy), aligns with
// greedy and TSP, and reports both computed control penalties and
// simulated cycles including instruction-cache behaviour.
//
//===--------------------------------------------------------------------===//

#include "align/Aligners.h"
#include "align/Pipeline.h"
#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "sim/Simulator.h"
#include "support/Format.h"
#include "support/Table.h"

#include <cstdio>
#include <string>
#include <vector>

using namespace balign;

namespace {

constexpr unsigned NumOpcodes = 16;

/// Builds the interpreter: fetch -> dispatch(multiway over handlers);
/// each handler does work and loops back to fetch; HALT leaves.
struct Interpreter {
  Procedure Proc{"interp"};
  BlockId Fetch, Dispatch, Halt;
  std::vector<BlockId> Handlers;

  Interpreter() {
    CFGBuilder B("interp");
    BlockId Entry = B.jump(3, "entry");
    Fetch = B.cond(2, "fetch"); // Continue or halt.
    Dispatch = B.multi(3, "dispatch");
    Halt = B.ret(1, "halt");
    for (unsigned Op = 0; Op != NumOpcodes; ++Op)
      Handlers.push_back(
          B.jump(4 + (Op * 5) % 9, "op" + std::to_string(Op)));
    B.edge(Entry, Fetch);
    B.branches(Fetch, Dispatch, Halt);
    for (BlockId H : Handlers) {
      B.edge(Dispatch, H);
      B.edge(H, Fetch);
    }
    Proc = B.take();
  }

  /// An opcode mix: weights over handlers (normalized internally).
  BranchBehavior behaviorFor(const std::vector<double> &OpcodeMix,
                             double HaltProb) const {
    BranchBehavior Behavior = BranchBehavior::uniform(Proc);
    Behavior.Probs[Fetch] = {1.0 - HaltProb, HaltProb};
    double Sum = 0.0;
    for (double W : OpcodeMix)
      Sum += W;
    Behavior.Probs[Dispatch].clear();
    for (double W : OpcodeMix)
      Behavior.Probs[Dispatch].push_back(W / Sum);
    return Behavior;
  }
};

} // namespace

int main() {
  Interpreter VM;
  MachineModel Model = MachineModel::alpha21164();

  // Arithmetic-heavy program: opcodes 3, 7, 12 dominate.
  std::vector<double> Mix(NumOpcodes, 0.5);
  Mix[3] = 30;
  Mix[7] = 22;
  Mix[12] = 14;
  BranchBehavior Behavior = VM.behaviorFor(Mix, 1.0 / 5000.0);

  Rng TraceRng(2024);
  ExecutionTrace Trace;
  ProcedureProfile Profile = walkProfile(VM.Proc, Behavior, TraceRng,
                                         /*BranchBudget=*/200000, &Trace);
  std::printf("interpreted %s dispatches\n",
              formatCount(Profile.blockCount(VM.Dispatch)).c_str());

  Program Prog("vm");
  Prog.addProcedure(VM.Proc);
  ProgramProfile ProgProfile;
  ProgProfile.Procs.push_back(Profile);

  TextTable T;
  T.addColumn("layout");
  T.addColumn("penalty cycles", TextTable::AlignKind::Right);
  T.addColumn("sim cycles", TextTable::AlignKind::Right);
  T.addColumn("icache misses", TextTable::AlignKind::Right);
  T.addColumn("speedup", TextTable::AlignKind::Right);

  SimConfig Sim;
  Sim.Cache.SizeBytes = 2048; // Small cache: the handler set must fit.
  double BaselineCycles = 0.0;

  auto evaluate = [&](const char *Name, const Layout &L) {
    uint64_t Penalty = evaluateLayout(VM.Proc, L, Model, Profile, Profile);
    MaterializedLayout Mat = materializeLayout(VM.Proc, L, Profile, Model);
    SimResult R = simulateProgram(Prog, {Mat}, {Trace}, Sim);
    if (std::string(Name) == "original")
      BaselineCycles = static_cast<double>(R.Cycles);
    T.addRow({Name, std::to_string(Penalty), std::to_string(R.Cycles),
              std::to_string(R.CacheMisses),
              formatFixed(BaselineCycles / static_cast<double>(R.Cycles),
                          3) +
                  "x"});
  };

  // The original, greedy and TSP layouts are the pipeline's; no pipeline
  // rung runs Calder-Grunwald, so it comes from its class.
  AlignmentOptions Options;
  Options.Model = Model;
  Options.ComputeBounds = false;
  ProcedureAlignment A = alignProgram(Prog, ProgProfile, Options).Procs[0];
  evaluate("original", A.OriginalLayout);
  evaluate("greedy", A.GreedyLayout);
  evaluate("cg", CalderGrunwaldAligner().align(VM.Proc, Profile, Model));
  evaluate("tsp", A.TspLayout);
  std::printf("%s", T.render().c_str());

  std::printf("\nhot handlers (op3, op7, op12) sit adjacent to the "
              "dispatch block in the TSP layout,\nso the common "
              "dispatch->handler->fetch cycle stays within a couple of "
              "cache lines.\n");
  return 0;
}
