//===- tests/align_bounds_test.cpp - Penalty lower-bound tests ----------------===//

#include "AlignOne.h"
#include "align/Bounds.h"
#include "align/Pipeline.h"
#include "align/Reduction.h"
#include "ir/TextFormat.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/ProfileIO.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "tsp/Exact.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <bit>

using namespace balign;

namespace {

const MachineModel Alpha = MachineModel::alpha21164();

struct RandomCase {
  Procedure Proc{"empty"};
  ProcedureProfile Profile;

  explicit RandomCase(uint64_t Seed, unsigned Sites) {
    Rng StructureRng(Seed * 3 + 11);
    GenParams Params;
    Params.TargetBranchSites = Sites;
    GeneratedProcedure Gen = generateProcedure("b", Params, StructureRng);
    Proc = std::move(Gen.Proc);
    Rng TraceRng(Seed * 7 + 13);
    Profile = walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, 400);
  }
};

} // namespace

/// Property sweep: both bounds sit at or below the exact optimal penalty.
class BoundsValidity : public ::testing::TestWithParam<uint64_t> {};

TEST_P(BoundsValidity, BoundsBelowExactOptimum) {
  uint64_t Seed = GetParam();
  RandomCase C(Seed, /*Sites=*/4);
  if (C.Proc.numBlocks() + 1 > MaxExactCities)
    GTEST_SKIP() << "too large for the exact oracle";

  AlignmentTsp Atsp = buildAlignmentTsp(C.Proc, C.Profile, Alpha);
  int64_t Optimal = solveExactDirected(Atsp.Tsp);
  ASSERT_GE(Optimal, 0);

  PenaltyBounds Bounds = computePenaltyBounds(
      C.Proc, C.Profile, Alpha, static_cast<uint64_t>(Optimal));
  EXPECT_LE(Bounds.HeldKarp, static_cast<double>(Optimal) + 1e-6);
  EXPECT_LE(Bounds.Assignment, Optimal);
  EXPECT_GE(Bounds.HeldKarp, 0.0);
  EXPECT_GE(Bounds.Assignment, 0);
  EXPECT_GE(Bounds.AssignmentCycles, 1u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, BoundsValidity,
                         ::testing::Range<uint64_t>(1, 13));

TEST(BoundsTest, HeldKarpTightOnAlignmentInstances) {
  // The paper: HK bounds average within 0.3% of the tours found. Check
  // the aggregate gap against the pipeline's TSP layouts on random
  // procedures, with the bounds from the same (bounds-on) call.
  double TourTotal = 0.0, BoundTotal = 0.0;
  for (uint64_t Seed = 1; Seed != 10; ++Seed) {
    RandomCase C(Seed, /*Sites=*/8);
    ProcedureAlignment A = alignOne(C.Proc, C.Profile);
    TourTotal += static_cast<double>(A.TspPenalty);
    BoundTotal += A.Bounds.HeldKarp;
    EXPECT_LE(A.Bounds.HeldKarp, static_cast<double>(A.TspPenalty) + 1e-6);
  }
  ASSERT_GT(TourTotal, 0.0);
  EXPECT_GT(BoundTotal / TourTotal, 0.95)
      << "HK bound should be within a few percent of the tours in sum";
}

TEST(BoundsTest, ZeroProfileGivesZeroBounds) {
  RandomCase C(99, 3);
  ProcedureProfile Zero = ProcedureProfile::zeroed(C.Proc);
  PenaltyBounds Bounds = computePenaltyBounds(C.Proc, Zero, Alpha, 0);
  EXPECT_DOUBLE_EQ(Bounds.HeldKarp, 0.0);
  EXPECT_EQ(Bounds.Assignment, 0);
}

namespace {

/// examples/data/interp_like.cfg's vm_run, and the counts that
/// `align_tool interp_like.cfg --emit-profile` writes for it.
const char VmRunCfg[] = R"(program interp_like
proc vm_run {
  entry:    size 4 jump -> fetch
  fetch:    size 3 cond -> decode halt
  decode:   size 2 multi -> op_add op_sub op_load op_store op_jmp op_call
  op_add:   size 5 cond -> ovf add_ok
  ovf:      size 7 jump -> fetch
  add_ok:   size 2 jump -> fetch
  op_sub:   size 5 jump -> fetch
  op_load:  size 6 jump -> fetch
  op_store: size 6 jump -> fetch
  op_jmp:   size 3 jump -> fetch
  op_call:  size 9 jump -> fetch
  halt:     size 1 ret
}
)";

const char VmRunProfile[] = R"(profile interp_like
proc vm_run {
  entry: 35319 -> fetch:35319
  fetch: 42610 -> decode:7291 halt:35319
  decode: 7291 -> op_add:99 op_sub:90 op_load:1539 op_store:3327 op_jmp:528 op_call:1708
  op_add: 99 -> ovf:17 add_ok:82
  ovf: 17 -> fetch:17
  add_ok: 82 -> fetch:82
  op_sub: 90 -> fetch:90
  op_load: 1539 -> fetch:1539
  op_store: 3327 -> fetch:3327
  op_jmp: 528 -> fetch:528
  op_call: 1708 -> fetch:1708
  halt: 35319
}
)";

} // namespace

TEST(BoundsTest, CountsThatOverflowTheBigMConstantsGetTrivialBounds) {
  std::optional<Program> Prog = parseProgram(VmRunCfg);
  ASSERT_TRUE(Prog.has_value());
  std::optional<ProgramProfile> Base =
      parseProgramProfile(*Prog, VmRunProfile);
  ASSERT_TRUE(Base.has_value());

  // Every count times 2^Shift. The largest, 42610 * 2^41, is above the
  // 2^56 overflow screen; 42610 * 2^38 is below it, yet 13 * LockBonus
  // overflows there. At 2^37 every constant fits: the bounds are the
  // ones recorded before the constants were overflow-checked.
  for (unsigned Shift : {37u, 38u, 41u}) {
    ProgramProfile Scaled = *Base;
    for (std::vector<uint64_t> &Row : Scaled.Procs[0].EdgeCounts)
      for (uint64_t &Count : Row)
        Count <<= Shift;
    for (uint64_t &Count : Scaled.Procs[0].BlockCounts)
      Count <<= Shift;
    const Procedure &Proc = Prog->proc(0);
    bool Fits =
        bigMConstants(buildAlignmentTsp(Proc, Scaled.Procs[0], Alpha).Tsp)
            .Fits;
    EXPECT_EQ(Fits, Shift == 37) << "x2^" << Shift;

    ProgramAlignment R = alignProgram(*Prog, Scaled, AlignmentOptions());
    const ProcedureAlignment &PA = R.Procs[0];
    EXPECT_LE(PA.Bounds.HeldKarp, static_cast<double>(PA.TspPenalty))
        << "x2^" << Shift;
    EXPECT_LE(PA.Bounds.Assignment, static_cast<int64_t>(PA.TspPenalty))
        << "x2^" << Shift;
    if (Shift == 37) {
      EXPECT_EQ(PA.TspPenalty, 9117837612285952u);
      EXPECT_EQ(std::bit_cast<uint64_t>(PA.Bounds.HeldKarp),
                0x434031ee35fe0a00ULL)
          << PA.Bounds.HeldKarp;
      EXPECT_EQ(PA.Bounds.Assignment, 9117837612285952);
      EXPECT_EQ(PA.Bounds.AssignmentCycles, 2u);
    } else {
      EXPECT_EQ(PA.Bounds.HeldKarp, 0.0) << "x2^" << Shift;
      EXPECT_EQ(PA.Bounds.Assignment, 0) << "x2^" << Shift;
      EXPECT_EQ(PA.Bounds.AssignmentCycles, 0u) << "x2^" << Shift;
    }
  }
}
