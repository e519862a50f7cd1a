//===- sim/Simulator.cpp --------------------------------------------------------===//

#include "sim/Simulator.h"

#include "objective/Displace.h"
#include "sim/Replayer.h"

#include <cassert>

using namespace balign;

std::vector<uint64_t> balign::assignProcedureBases(
    const std::vector<MaterializedLayout> &Layouts, uint64_t LineBytes) {
  std::vector<uint64_t> Bases;
  Bases.reserve(Layouts.size());
  uint64_t Address = 0;
  for (const MaterializedLayout &Mat : Layouts) {
    Bases.push_back(Address);
    Address += Mat.TotalBytes;
    // Procedures start on a fresh cache line, as linkers align them.
    Address = (Address + LineBytes - 1) / LineBytes * LineBytes;
  }
  return Bases;
}

void TraceReplayer::replayRange(const ExecutionTrace &Trace, size_t Begin,
                                size_t End) {
  assert(End <= Trace.Blocks.size() && Begin <= End && "bad slice");
  for (size_t I = Begin; I != End; ++I) {
    BlockId Current = Trace.Blocks[I];
    executeBlock(Current);
    if (Proc.block(Current).Kind == TerminatorKind::Return)
      continue; // Next element starts a new invocation.
    if (I + 1 == End)
      continue; // Slice ends mid-invocation (abandoned walk).
    BlockId Next = Trace.Blocks[I + 1];
    if (!isSuccessor(Current, Next))
      continue; // Abandoned walk followed by a fresh invocation.
    chargeTransfer(Current, Next);
  }
}

bool TraceReplayer::isSuccessor(BlockId From, BlockId To) const {
  for (BlockId Succ : Proc.successors(From))
    if (Succ == To)
      return true;
  return false;
}

/// Cycles to fill one instruction-cache line from the next level.
constexpr uint64_t CacheMissPenalty = 10;

void TraceReplayer::fetchItem(const LayoutItem &Item) {
  // The fetch footprint includes long-form branch growth, so encoding
  // bloat shows up as I-cache pressure the same way it does on hardware.
  uint64_t Misses =
      Cache.accessRange(Base + Item.Address, itemBytes(Item, Config.Model));
  Result.CacheMisses += Misses;
  Result.CacheMissCycles += Misses * CacheMissPenalty;
}

void TraceReplayer::executeBlock(BlockId B) {
  const LayoutItem &Item = Mat.Items[Mat.ItemOfBlock[B]];
  fetchItem(Item);
  Result.BaseCycles += Item.SizeInstrs;
}

void TraceReplayer::executeFixup(BlockId B) {
  const LayoutItem &Fixup = Mat.Items[Mat.ItemOfBlock[B] + 1];
  assert(Fixup.isFixup() && "conditional lost its fixup item");
  fetchItem(Fixup);
  Result.BaseCycles += Fixup.SizeInstrs;
  chargeRedirect(Base + Fixup.Address,
                 Base + Mat.blockAddress(Fixup.FixupTarget),
                 Config.Model.UncondBranch);
  ++Result.FixupsExecuted;
}

void TraceReplayer::chargeRedirect(uint64_t BranchAddr, uint64_t TargetAddr,
                                   uint32_t FullPenalty) {
  if (Config.UseBtb) {
    uint32_t Misfetch = Config.Model.CondTakenCorrect;
    if (TargetBuffer.hit(BranchAddr, TargetAddr) && FullPenalty >= Misfetch)
      FullPenalty -= Misfetch; // The bubble is hidden by the BTB.
    TargetBuffer.update(BranchAddr, TargetAddr);
  }
  Result.ControlPenaltyCycles += FullPenalty;
}

void TraceReplayer::chargeTransfer(BlockId From, BlockId To) {
  const MachineModel &Model = Config.Model;
  switch (Proc.block(From).Kind) {
  case TerminatorKind::Return:
    return;

  case TerminatorKind::Unconditional: {
    // Falls through iff its successor is the next layout item.
    size_t ItemIdx = Mat.ItemOfBlock[From];
    bool FallsThrough =
        ItemIdx + 1 != Mat.Items.size() &&
        Mat.Items[ItemIdx + 1].Block == Proc.successors(From)[0];
    if (!FallsThrough)
      chargeRedirect(Base + Mat.blockAddress(From),
                     Base + Mat.blockAddress(To), Model.UncondBranch);
    return;
  }

  case TerminatorKind::Conditional: {
    const BranchArrangement &Arr = Mat.Arrangements[From];
    bool PredictTaken = Arr.PredictTaken;
    uint64_t BranchAddr = Base + Mat.blockAddress(From);
    switch (Config.Predictor) {
    case PredictorKind::ProfileStatic:
      break;
    case PredictorKind::Btfnt:
      // Hardware backward-taken/forward-not-taken prediction: the
      // penalty now depends on target addresses, which is exactly the
      // situation the paper's DTSP model excludes (footnote 3).
      PredictTaken =
          Mat.blockAddress(Arr.TakenTarget) <= Mat.blockAddress(From);
      break;
    case PredictorKind::Bimodal2Bit:
      // Dynamic 2-bit counters with layout-dependent aliasing
      // (Section 6 / footnote 6).
      PredictTaken = Bimodal.predict(BranchAddr);
      Bimodal.update(BranchAddr, To == Arr.TakenTarget);
      break;
    }
    if (To == Arr.TakenTarget) {
      if (PredictTaken)
        chargeRedirect(BranchAddr, Base + Mat.blockAddress(To),
                       Model.CondTakenCorrect);
      else
        Result.ControlPenaltyCycles += Model.CondMispredict;
      return;
    }
    assert(To == Arr.FallThroughTarget &&
           "trace successor matches neither branch target");
    Result.ControlPenaltyCycles +=
        PredictTaken ? Model.CondMispredict : Model.CondFallThrough;
    if (Arr.FallThroughViaFixup)
      executeFixup(From);
    return;
  }

  case TerminatorKind::Multiway: {
    BlockId Predicted = Proc.successors(From)[Mat.MultiwayPrediction[From]];
    if (To == Predicted)
      chargeRedirect(Base + Mat.blockAddress(From),
                     Base + Mat.blockAddress(To), Model.MultiwayPredicted);
    else
      Result.ControlPenaltyCycles += Model.MultiwayMispredict;
    return;
  }
  }
  assert(false && "unknown terminator kind");
}

std::vector<std::pair<size_t, size_t>>
balign::invocationSlices(const Procedure &Proc, const ExecutionTrace &Trace) {
  std::vector<std::pair<size_t, size_t>> Slices;
  size_t Begin = 0;
  for (size_t I = 0; I != Trace.Blocks.size(); ++I) {
    if (Proc.block(Trace.Blocks[I]).Kind == TerminatorKind::Return) {
      Slices.push_back({Begin, I + 1});
      Begin = I + 1;
    }
  }
  if (Begin != Trace.Blocks.size())
    Slices.push_back({Begin, Trace.Blocks.size()});
  return Slices;
}

SimResult balign::simulateProgram(
    const Program &Prog, const std::vector<MaterializedLayout> &Layouts,
    const std::vector<ExecutionTrace> &Traces, const SimConfig &Config) {
  assert(Layouts.size() == Prog.numProcedures() &&
         Traces.size() == Prog.numProcedures() && "arity mismatch");
  SimState State(Config);
  std::vector<uint64_t> Bases =
      assignProcedureBases(Layouts, Config.Cache.LineBytes);
  for (size_t I = 0; I != Prog.numProcedures(); ++I) {
    TraceReplayer Sim(Prog.proc(I), Layouts[I], Bases[I], Config, State);
    Sim.replay(Traces[I]);
  }
  State.Result.CacheAccesses = State.Cache.accesses();
  State.Result.Cycles = State.Result.BaseCycles +
                        State.Result.ControlPenaltyCycles +
                        State.Result.CacheMissCycles;
  return State.Result;
}
