//===- sim/Replayer.h - Per-procedure trace replay --------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The per-procedure replay engine behind simulateProgram, exposed so the
/// interprocedural placement simulator can interleave invocation slices
/// of different procedures over one shared cache and predictor state.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SIM_REPLAYER_H
#define BALIGN_SIM_REPLAYER_H

#include "ir/CFG.h"
#include "machine/Btb.h"
#include "machine/Predictors.h"
#include "objective/Layout.h"
#include "profile/Trace.h"
#include "sim/ICache.h"
#include "sim/Simulator.h"

#include <utility>
#include <vector>

namespace balign {

/// The machine state shared by every procedure's replayer: one cache,
/// one prediction table, one BTB, one accumulating result.
struct SimState {
  ICache Cache;
  BimodalPredictor Bimodal;
  Btb TargetBuffer;
  SimResult Result;

  explicit SimState(const SimConfig &Config)
      : Cache(Config.Cache), Bimodal(BimodalTableEntries),
        TargetBuffer(BtbEntries) {}
};

/// Replays trace slices of one procedure, charging cycles into a shared
/// SimResult. Cache, predictor, and BTB are shared across replayers so
/// cross-procedure conflicts and aliasing are modeled.
class TraceReplayer {
public:
  TraceReplayer(const Procedure &Proc, const MaterializedLayout &Mat,
                uint64_t Base, const SimConfig &Config, SimState &State)
      : Proc(Proc), Mat(Mat), Base(Base), Config(Config),
        Cache(State.Cache), Bimodal(State.Bimodal),
        TargetBuffer(State.TargetBuffer), Result(State.Result) {}

  /// Replays the whole trace.
  void replay(const ExecutionTrace &Trace) {
    replayRange(Trace, 0, Trace.Blocks.size());
  }

  /// Replays trace positions [Begin, End).
  void replayRange(const ExecutionTrace &Trace, size_t Begin, size_t End);

private:
  const Procedure &Proc;
  const MaterializedLayout &Mat;
  uint64_t Base;
  const SimConfig &Config;
  ICache &Cache;
  BimodalPredictor &Bimodal;
  Btb &TargetBuffer;
  SimResult &Result;

  bool isSuccessor(BlockId From, BlockId To) const;
  /// Charges a correctly-handled redirect's misfetch-bearing penalty,
  /// consulting/updating the BTB when enabled.
  void chargeRedirect(uint64_t BranchAddr, uint64_t TargetAddr,
                      uint32_t FullPenalty);
  void fetchItem(const LayoutItem &Item);
  void executeBlock(BlockId B);
  void executeFixup(BlockId B);
  void chargeTransfer(BlockId From, BlockId To);
};

/// Splits \p Trace into invocation slices: [begin, end) index pairs, one
/// per Return-terminated walk (a trailing abandoned walk forms a final
/// slice of its own).
std::vector<std::pair<size_t, size_t>>
invocationSlices(const Procedure &Proc, const ExecutionTrace &Trace);

} // namespace balign

#endif // BALIGN_SIM_REPLAYER_H
