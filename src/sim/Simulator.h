//===- sim/Simulator.h - Trace-driven frontend simulator -------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A trace-driven pipeline-frontend simulator standing in for the paper's
/// AlphaStation wall-clock measurements (DESIGN.md, Section 2). Cycle
/// accounting per executed block:
///
///   cycles = instructions (CPI 1)
///          + Table 3 control penalty of the block's actual transfer
///          + fixup-jump execution where the layout inserted one
///          + CacheMissPenalty (10) per instruction-cache line miss.
///
/// The control-penalty component uses the same arrangement/prediction
/// data the materializer recorded from the *training* profile, so
/// replaying the *testing* trace reproduces the paper's cross-validation
/// setup end to end; with the training trace it totals exactly the
/// evaluator's computed penalty (tested invariant).
///
/// The BTFNT option replaces profile-based prediction with
/// backward-taken/forward-not-taken hardware prediction — the scheme the
/// paper's footnote 3 excludes from the DTSP model because the penalty
/// then depends on the target *address*, not just the successor; the
/// ablation bench uses it to quantify that modeling gap.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SIM_SIMULATOR_H
#define BALIGN_SIM_SIMULATOR_H

#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "machine/Predictors.h"
#include "objective/Layout.h"
#include "profile/Trace.h"
#include "sim/ICache.h"

#include <vector>

namespace balign {

/// Simulator configuration.
struct SimConfig {
  MachineModel Model = MachineModel::alpha21164();
  ICacheConfig Cache;
  /// Conditional-branch prediction hardware (ablations; the paper's
  /// model assumes ProfileStatic). Bimodal2Bit uses a table of
  /// BimodalTableEntries counters.
  PredictorKind Predictor = PredictorKind::ProfileStatic;

  /// Model a BtbEntries-entry branch target buffer: correctly-predicted
  /// redirects whose (branch, target) pair hits the BTB skip the
  /// misfetch bubble (ablation; the paper's Table 3 machine has no BTB).
  bool UseBtb = false;
};

/// Aggregated simulation outcome.
struct SimResult {
  uint64_t Cycles = 0;             ///< Total.
  uint64_t BaseCycles = 0;         ///< One per executed instruction.
  uint64_t ControlPenaltyCycles = 0;
  uint64_t CacheMissCycles = 0;
  uint64_t CacheMisses = 0;
  uint64_t CacheAccesses = 0;
  uint64_t FixupsExecuted = 0;
};

/// Lays the materialized procedures out consecutively in one address
/// space (each aligned to a cache-line boundary); returns each
/// procedure's base address.
std::vector<uint64_t>
assignProcedureBases(const std::vector<MaterializedLayout> &Layouts,
                     uint64_t LineBytes);

/// Replays \p Traces (one per procedure, program order) over the
/// materialized \p Layouts with a shared instruction cache.
SimResult simulateProgram(const Program &Prog,
                          const std::vector<MaterializedLayout> &Layouts,
                          const std::vector<ExecutionTrace> &Traces,
                          const SimConfig &Config);

} // namespace balign

#endif // BALIGN_SIM_SIMULATOR_H
