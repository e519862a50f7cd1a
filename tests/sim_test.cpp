//===- tests/sim_test.cpp - Cache and pipeline-simulator tests ----------------===//

#include "align/Aligners.h"
#include "align/Pipeline.h"
#include "ir/CFGBuilder.h"
#include "machine/MachineModel.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "sim/ICache.h"
#include "sim/Simulator.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include "ProfileOracles.h"

#include <gtest/gtest.h>

using namespace balign;

TEST(ICacheTest, DirectMappedHitsAndConflicts) {
  ICacheConfig Config;
  Config.SizeBytes = 128;
  Config.LineBytes = 32; // 4 lines.
  ICache Cache(Config);
  EXPECT_FALSE(Cache.access(0));   // Cold miss.
  EXPECT_TRUE(Cache.access(4));    // Same line.
  EXPECT_TRUE(Cache.access(31));   // Still same line.
  EXPECT_FALSE(Cache.access(32));  // Next line.
  EXPECT_FALSE(Cache.access(128)); // Conflicts with line 0.
  EXPECT_FALSE(Cache.access(0));   // Evicted: miss again.
  EXPECT_EQ(Cache.misses(), 4u);
  EXPECT_EQ(Cache.hits(), 2u);
  Cache.reset();
  EXPECT_FALSE(Cache.access(4));
}

TEST(ICacheTest, AccessRangeTouchesEveryLine) {
  ICacheConfig Config;
  Config.SizeBytes = 1024;
  Config.LineBytes = 32;
  ICache Cache(Config);
  EXPECT_EQ(Cache.accessRange(16, 64), 3u); // Lines 0,1,2 (straddles).
  EXPECT_EQ(Cache.accessRange(16, 64), 0u); // All warm now.
  EXPECT_EQ(Cache.accessRange(96, 1), 1u);  // Single byte, one line.
}

TEST(ProcedureBaseTest, LineAlignedAndDisjoint) {
  CFGBuilder B("p");
  BlockId J = B.jump(5);
  BlockId R = B.ret(3);
  B.edge(J, R);
  Procedure Proc = B.take();
  ProcedureProfile Zero = ProcedureProfile::zeroed(Proc);
  MachineModel Alpha = MachineModel::alpha21164();
  MaterializedLayout Mat =
      materializeLayout(Proc, Layout::original(Proc), Zero, Alpha);
  std::vector<uint64_t> Bases = assignProcedureBases({Mat, Mat, Mat}, 32);
  ASSERT_EQ(Bases.size(), 3u);
  EXPECT_EQ(Bases[0], 0u);
  for (size_t I = 1; I != 3; ++I) {
    EXPECT_EQ(Bases[I] % 32, 0u);
    EXPECT_GE(Bases[I], Bases[I - 1] + Mat.TotalBytes);
  }
}

namespace {

/// Random program with one procedure, one behavior, one trace.
struct SimCase {
  Program Prog{"sim"};
  ProgramProfile Profile;
  std::vector<ExecutionTrace> Traces;
  MachineModel Alpha = MachineModel::alpha21164();

  explicit SimCase(uint64_t Seed, unsigned Sites = 8,
                   uint64_t Budget = 800) {
    Rng StructureRng(Seed * 7 + 1);
    GenParams Params;
    Params.TargetBranchSites = Sites;
    Params.MultiwayFraction = 0.1;
    GeneratedProcedure Gen = generateProcedure("p0", Params, StructureRng);
    Prog.addProcedure(Gen.Proc);
    Rng TraceRng(Seed * 11 + 2);
    Traces.emplace_back();
    Profile.Procs.push_back(walkProfile(Prog.proc(0),
                                        BranchBehavior::uniform(Prog.proc(0)),
                                        TraceRng, Budget, &Traces[0]));
  }

  /// The pipeline's TSP layout of the procedure.
  Layout tspLayout() const {
    AlignmentOptions Options;
    Options.ComputeBounds = false;
    return alignProgram(Prog, Profile, Options).Procs[0].TspLayout;
  }
};

} // namespace

/// The central simulator invariant: with the cache disabled-equivalent
/// (penalty checked separately), simulated control-penalty cycles on the
/// training trace equal the evaluator's computed penalty.
class SimulatorAgreement : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SimulatorAgreement, ControlPenaltiesMatchEvaluator) {
  uint64_t Seed = GetParam();
  SimCase C(Seed);
  for (int Which = 0; Which != 3; ++Which) {
    Layout L;
    if (Which == 0) {
      L = Layout::original(C.Prog.proc(0));
    } else if (Which == 1) {
      GreedyAligner G;
      L = G.align(C.Prog.proc(0), C.Profile.Procs[0], C.Alpha);
    } else {
      L = C.tspLayout();
    }
    MaterializedLayout Mat =
        materializeLayout(C.Prog.proc(0), L, C.Profile.Procs[0], C.Alpha);
    SimConfig Config;
    SimResult R = simulateProgram(C.Prog, {Mat}, C.Traces, Config);
    uint64_t Evaluated = evaluateLayout(C.Prog.proc(0), L, C.Alpha,
                                        C.Profile.Procs[0],
                                        C.Profile.Procs[0]);
    EXPECT_EQ(R.ControlPenaltyCycles, Evaluated)
        << "seed " << Seed << " layout " << Which;
    // Base cycles = dynamic instructions + executed fixups.
    EXPECT_EQ(R.BaseCycles,
              dynamicInstructions(C.Profile.Procs[0], C.Prog.proc(0)) +
                  R.FixupsExecuted);
    EXPECT_EQ(R.Cycles,
              R.BaseCycles + R.ControlPenaltyCycles + R.CacheMissCycles);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimulatorAgreement,
                         ::testing::Range<uint64_t>(1, 13));

TEST(SimulatorTest, CrossTraceReplayDiffersFromTraining) {
  SimCase Train(5);
  // A second trace over the same program with a different seed.
  Rng TraceRng(999);
  ExecutionTrace TestTrace;
  ProcedureProfile TestProfile = walkProfile(
      Train.Prog.proc(0), BranchBehavior::uniform(Train.Prog.proc(0)),
      TraceRng, 800, &TestTrace);

  Layout L = Train.tspLayout();
  MaterializedLayout Mat = materializeLayout(
      Train.Prog.proc(0), L, Train.Profile.Procs[0], Train.Alpha);
  SimConfig Config;
  SimResult R = simulateProgram(Train.Prog, {Mat}, {TestTrace}, Config);
  // Replaying the testing trace must equal the evaluator in
  // cross-validation mode (Predict = train, Charge = test).
  EXPECT_EQ(R.ControlPenaltyCycles,
            evaluateLayout(Train.Prog.proc(0), L, Train.Alpha,
                           Train.Profile.Procs[0], TestProfile));
}

TEST(SimulatorTest, CacheMissesDependOnLayout) {
  // With a tiny cache, a layout that scatters the hot loop across lines
  // must miss at least as much as the dense TSP layout.
  SimCase C(7, /*Sites=*/10, /*Budget=*/2000);
  Layout Tsp = C.tspLayout();
  Layout Original = Layout::original(C.Prog.proc(0));

  SimConfig Config;
  Config.Cache.SizeBytes = 256;
  Config.Cache.LineBytes = 32;
  MaterializedLayout MatTsp =
      materializeLayout(C.Prog.proc(0), Tsp, C.Profile.Procs[0], C.Alpha);
  MaterializedLayout MatOrig = materializeLayout(
      C.Prog.proc(0), Original, C.Profile.Procs[0], C.Alpha);
  SimResult RTsp = simulateProgram(C.Prog, {MatTsp}, C.Traces, Config);
  SimResult ROrig = simulateProgram(C.Prog, {MatOrig}, C.Traces, Config);
  EXPECT_GT(RTsp.CacheAccesses, 0u);
  EXPECT_LE(RTsp.Cycles, ROrig.Cycles)
      << "aligned layout should not run slower overall";
}

TEST(BimodalPredictorTest, LearnsStableDirections) {
  BimodalPredictor P(64);
  // Train a branch at address 0x100 to be taken.
  for (int I = 0; I != 4; ++I)
    P.update(0x100, true);
  EXPECT_TRUE(P.predict(0x100));
  // Two not-taken observations flip a saturated counter back.
  P.update(0x100, false);
  EXPECT_TRUE(P.predict(0x100)); // Still weakly taken.
  P.update(0x100, false);
  P.update(0x100, false);
  EXPECT_FALSE(P.predict(0x100));
}

TEST(BimodalPredictorTest, AliasingCollidesDistantBranches) {
  BimodalPredictor P(16); // 16 entries x 4-byte instrs = 64-byte window.
  P.update(0x0, true);
  P.update(0x0, true);
  // Address 64 bytes away maps to the same counter.
  EXPECT_TRUE(P.predict(0x40));
  // A nearby address does not.
  EXPECT_FALSE(P.predict(0x4));
  P.reset();
  EXPECT_FALSE(P.predict(0x0));
}

TEST(SimulatorTest, BimodalPredictorRunsAndDiffers) {
  SimCase C(11);
  Layout L = C.tspLayout();
  MaterializedLayout Mat =
      materializeLayout(C.Prog.proc(0), L, C.Profile.Procs[0], C.Alpha);
  SimConfig Static;
  SimConfig Bimodal;
  Bimodal.Predictor = PredictorKind::Bimodal2Bit;
  SimResult RStatic = simulateProgram(C.Prog, {Mat}, C.Traces, Static);
  SimResult RBimodal = simulateProgram(C.Prog, {Mat}, C.Traces, Bimodal);
  EXPECT_EQ(RStatic.BaseCycles, RBimodal.BaseCycles);
  EXPECT_NE(RStatic.ControlPenaltyCycles, RBimodal.ControlPenaltyCycles);
}

TEST(SimulatorTest, BtfntChangesPenalties) {
  SimCase C(9);
  Layout L = C.tspLayout();
  MaterializedLayout Mat =
      materializeLayout(C.Prog.proc(0), L, C.Profile.Procs[0], C.Alpha);
  SimConfig Profiled;
  SimConfig Btfnt;
  Btfnt.Predictor = PredictorKind::Btfnt;
  SimResult RProfiled = simulateProgram(C.Prog, {Mat}, C.Traces, Profiled);
  SimResult RBtfnt = simulateProgram(C.Prog, {Mat}, C.Traces, Btfnt);
  // Profile-trained static prediction should beat BTFNT on its own
  // training trace (ties possible on degenerate cases, so allow <=).
  EXPECT_LE(RProfiled.ControlPenaltyCycles, RBtfnt.ControlPenaltyCycles);
}
