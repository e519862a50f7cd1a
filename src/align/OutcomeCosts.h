//===- align/OutcomeCosts.h - Trace-driven prediction-outcome costs --------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The paper's Section 2.2 cost formula in full generality:
///
///   penalty(B, X) = C_{B,X} pNN + I_{B,X} pTN
///                 + sum_{B' != X} (C_{B,B'} pTT + I_{B,B'} pNT)
///
/// where C_{B,B'} counts transfers B -> B' the predictor got right and
/// I_{B,B'} the ones it got wrong. The main pipeline derives C and I
/// analytically from static most-common-successor prediction; this module
/// instead *measures* them by trace-driven simulation of the prediction
/// hardware (a bimodal table), which is exactly the refinement Section 6
/// proposes: "we could perform a trace-driven simulation of the branch
/// prediction hardware in the target machine to derive more accurate
/// frequencies of correct and incorrect predictions", with the caveat of
/// footnote 6 that table aliasing under the new layout makes the numbers
/// approximate.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_OUTCOMECOSTS_H
#define BALIGN_ALIGN_OUTCOMECOSTS_H

#include "align/Reduction.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "profile/Trace.h"

#include <cstdint>
#include <vector>

namespace balign {

/// Measured per-edge prediction outcomes: for every CFG edge (B, S-th
/// successor), how many dynamic transfers the simulated predictor got
/// right (Correct) and wrong (Incorrect).
struct OutcomeCounts {
  std::vector<std::vector<uint64_t>> Correct;   ///< Parallel to succs.
  std::vector<std::vector<uint64_t>> Incorrect; ///< Parallel to succs.

  static OutcomeCounts zeroed(const Procedure &Proc);
};

/// Simulates a bimodal predictor (with BimodalTableEntries 2-bit
/// counters, branch addresses taken from \p Mat's block layout) over
/// \p Trace and tallies per-edge outcomes. Unconditional and return
/// blocks have no prediction: their transfers count as Correct.
OutcomeCounts collectOutcomeCounts(const Procedure &Proc,
                                   const MaterializedLayout &Mat,
                                   const ExecutionTrace &Trace);

/// Builds the alignment DTSP from measured outcomes using the general
/// formula above, with per-kind penalties from \p Model (pNN =
/// CondFallThrough, pTT = CondTakenCorrect, pNT = pTN = CondMispredict
/// for conditionals; jumps and multiways use their Table 3 rows). The
/// entry is pinned exactly as in buildAlignmentTsp.
AlignmentTsp buildOutcomeTsp(const Procedure &Proc,
                             const OutcomeCounts &Outcomes,
                             const MachineModel &Model);

} // namespace balign

#endif // BALIGN_ALIGN_OUTCOMECOSTS_H
