//===- machine/MachineModel.h - Control-penalty machine models ------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Machine models assigning penalty cycles to block-ending control events,
/// generalizing the paper's pTT/pTN/pNT/pNN scheme per terminator kind
/// (Section 2.2 notes the penalties may depend on the branch kind; Table 3
/// gives the Alpha 21164 instantiation used throughout the evaluation).
///
/// Table 3 (Alpha 21164):
///   block-ending control    event                                penalty
///   no branch               fall through                         0 (pNN)
///   unconditional branch    always taken                         2 (pTT)
///   conditional branch      fall through to common successor     0 (pNN)
///   conditional branch      taken branch to common successor     1 (pTT)
///   conditional branch      mispredicted (any layout)            5 (pTN/pNT)
///   register branch         branch to common (predicted) target  1 (pTT)
///   register branch         branch to any other CFG successor    3 (pNT/pTN)
///
/// "No branch" vs "unconditional branch" is a layout property of a
/// single-successor block: falling through costs 0; a required jump costs
/// 2 (one cycle to issue the jump plus the one-cycle misfetch). The same
/// 2-cycle figure prices the fixup jumps the aligner inserts, which the
/// paper counts as separate basic blocks whose penalty is attached to the
/// DTSP edge that created them.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_MACHINE_MACHINEMODEL_H
#define BALIGN_MACHINE_MACHINEMODEL_H

#include <cstdint>
#include <string>

namespace balign {

/// Bytes per instruction used for address assignment (Alpha: fixed
/// 4-byte encoding).
inline constexpr uint64_t BytesPerInstr = 4;

/// Instruction index of byte address \p Addr — the unit the BTB and the
/// bimodal predictor hash by. Long-form branch growth (see BranchEncoding
/// below) is whole instructions, so this stays exact under every
/// encoding.
inline constexpr uint64_t instructionIndex(uint64_t Addr) {
  return Addr / BytesPerInstr;
}

/// How block-ending branches are encoded. The paper's Alpha model uses
/// one fixed-size encoding; real ISAs pick a short or long form from the
/// branch's displacement — which itself depends on which forms every
/// other branch picked. Boender & Sacerdoti Coen ("On the correctness of
/// a branch displacement algorithm") formalize the resulting fixpoint;
/// objective/Displace.h implements it.
enum class BranchEncoding : uint8_t {
  /// Every branch is one instruction regardless of distance (the Alpha
  /// 21164 model of Table 3; the repo-wide default).
  Fixed = 0,

  /// A branch within ShortBranchRange bytes of its target keeps the
  /// one-instruction short form; a farther one grows by
  /// LongBranchExtraInstrs instructions and pays LongBranchPenalty extra
  /// cycles per taken execution.
  ShortLong = 1,
};

/// Parses a flag spelling, "fixed" or "short-long"; returns false on
/// unknown names.
bool parseBranchEncoding(const std::string &Name, BranchEncoding &Out);

/// Ext-TSP objective parameters (Newell/Pupyrev, "Improved Basic Block
/// Reordering"). A branch whose target lands within the forward window
/// of the branch site still scores — linearly decaying with distance —
/// because the target line is likely already fetched. Distances are in
/// bytes from the end of the source block to the start of the target
/// block; a distance of zero is a fall through and scores the full
/// (implicit) weight of 1.0 per execution. Defaults follow the BOLT
/// CodeLayout constants (1024/640-byte windows, 0.1/0.1 weights).
struct ExtTspParams {
  uint32_t ExtTspForwardWindow = 1024;
  uint32_t ExtTspBackwardWindow = 640;
  double ExtTspForwardWeight = 0.1;
  double ExtTspBackwardWeight = 0.1;
  bool operator==(const ExtTspParams &) const = default;
};

/// Branch-encoding table. Under the default Fixed encoding everything
/// but Encoding is inert and addresses are exactly InstrCount *
/// BytesPerInstr — existing goldens and cache entries depend on that.
/// Under ShortLong, objective/Displace.h runs the grow-until-fixpoint
/// displacement algorithm over these parameters.
struct BranchEncodingParams {
  BranchEncoding Encoding = BranchEncoding::Fixed;

  /// Maximum byte displacement (|target - branch end|) a short-form
  /// branch can span. 32 KiB matches a 16-bit signed word-displacement
  /// field at 4-byte granularity. A range of 0 forces every taken branch
  /// long (the degenerate case the tests pin).
  uint64_t ShortBranchRange = 32768;

  /// Instructions a long-form branch adds over the short form (the
  /// classic sequence is an inverted short branch over an absolute
  /// jump: one extra instruction).
  uint32_t LongBranchExtraInstrs = 1;

  /// Extra penalty cycles a long-form branch pays per taken execution
  /// (the extra issue slot of the jump in the inverted-branch sequence).
  uint32_t LongBranchPenalty = 1;
  bool operator==(const BranchEncodingParams &) const = default;
};

/// Penalty cycles for every block-ending control event, per terminator
/// kind. All values are per dynamic execution of the event. The Ext-TSP
/// and branch-encoding blocks are bases, so their fields read as the
/// model's own and a request can assign either block whole.
struct MachineModel : ExtTspParams, BranchEncodingParams {
  std::string Name = "custom";

  /// Conditional branch, predicted direction, not taken (fall through to
  /// the layout successor). Table 3's pNN row: 0 on the 21164.
  uint32_t CondFallThrough = 0;

  /// Conditional branch, predicted direction, taken. Pays the misfetch:
  /// 1 cycle on the 21164 (pTT).
  uint32_t CondTakenCorrect = 1;

  /// Conditional branch, mispredicted, either direction, any layout:
  /// 5 cycles on the 21164 (pTN / pNT).
  uint32_t CondMispredict = 5;

  /// Unconditional branch (including aligner-inserted fixup jumps):
  /// 2 cycles on the 21164 (pTT for jumps).
  uint32_t UncondBranch = 2;

  /// Multiway (register) branch to its most common (predicted) target:
  /// 1 cycle (pTT); the target buffer supplies the address but the
  /// redirect still misfetches.
  uint32_t MultiwayPredicted = 1;

  /// Multiway branch to any other CFG successor: 3 cycles (pNT/pTN).
  uint32_t MultiwayMispredict = 3;

  /// The Alpha 21164 model of Table 3 (misfetch 1, cond mispredict 5).
  static MachineModel alpha21164();

  /// A deeper speculative pipeline (ablation): misfetch 3, mispredict 20,
  /// jumps 4, multiway 3/12. Models the Section 6 "other machine models"
  /// future-work direction.
  static MachineModel deepPipeline();

  /// Nearly-free branches (ablation): only mispredicts cost anything.
  static MachineModel cheapBranch();
};

} // namespace balign

#endif // BALIGN_MACHINE_MACHINEMODEL_H
