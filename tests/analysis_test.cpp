//===- tests/analysis_test.cpp - balign-verify framework tests ----------------===//
//
// One deliberately corrupted input per analysis, each caught with the
// expected stable check ID, plus clean-input runs proving the verifier
// stays silent on healthy pipelines.
//
//===--------------------------------------------------------------------===//

#include "analysis/PipelineVerifier.h"
#include "analysis/Verifier.h"
#include "ir/CFGBuilder.h"
#include "profile/Trace.h"
#include "workloads/Generator.h"
#include "workloads/Workloads.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace balign;

namespace {

/// entry =cond=> {left, right} => join => ret.
Procedure diamond() {
  CFGBuilder B("diamond");
  BlockId Entry = B.cond(4, "entry");
  BlockId Left = B.jump(2, "left");
  BlockId Right = B.jump(6, "right");
  BlockId Join = B.ret(3, "join");
  B.branches(Entry, Left, Right).edge(Left, Join).edge(Right, Join);
  return B.take();
}

ProcedureProfile profileFor(const Procedure &Proc, uint64_t Budget,
                            uint64_t Seed) {
  Rng TraceRng(Seed);
  return walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, Budget);
}

Procedure generated(uint64_t Seed, unsigned Sites = 6) {
  Rng R(Seed);
  GenParams Params;
  Params.TargetBranchSites = Sites;
  return generateProcedure("gen" + std::to_string(Seed), Params, R).Proc;
}

} // namespace

//===----------------------------------------------------------------------===//
// Diagnostics substrate
//===----------------------------------------------------------------------===//

TEST(DiagnosticsTest, RenderCarriesStableCheckId) {
  Diagnostic D{Severity::Error, CheckId::CfgUnreachable, "cfg-verify",
               DiagLocation::block("f", 3), "dead code"};
  std::string Text = D.render();
  EXPECT_NE(Text.find("error"), std::string::npos);
  EXPECT_NE(Text.find("cfg.unreachable-block"), std::string::npos);
  EXPECT_NE(Text.find("'f'"), std::string::npos);
  EXPECT_NE(Text.find("dead code"), std::string::npos);
}

TEST(DiagnosticsTest, EngineCountsBySeverityAndId) {
  DiagnosticEngine Diags;
  Diags.report(Severity::Error, CheckId::TourInvalid, "tour-bounds",
               DiagLocation::procedure("f"), "bad");
  Diags.report(Severity::Warning, CheckId::TourPinPaid, "tour-bounds",
               DiagLocation::procedure("f"), "odd");
  Diags.report(Severity::Error, CheckId::TourInvalid, "tour-bounds",
               DiagLocation::procedure("g"), "bad again");
  EXPECT_EQ(Diags.errorCount(), 2u);
  EXPECT_EQ(Diags.warningCount(), 1u);
  EXPECT_TRUE(Diags.hasErrors());
  EXPECT_EQ(Diags.count(CheckId::TourInvalid), 2u);
  EXPECT_TRUE(Diags.has(CheckId::TourPinPaid));
  EXPECT_FALSE(Diags.has(CheckId::TourCostMismatch));
  EXPECT_EQ(Diags.summary(), "2 errors, 1 warning");
  Diags.clear();
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_EQ(Diags.diagnostics().size(), 0u);
}

//===----------------------------------------------------------------------===//
// Pass 1: cfg-verify
//===----------------------------------------------------------------------===//

TEST(CfgCheckTest, CleanProcedure) {
  DiagnosticEngine Diags;
  EXPECT_EQ(checkCfg(diamond(), Diags), 0u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(CfgCheckTest, CatchesUnreachableBlock) {
  Procedure Proc("orphaned");
  BlockId Entry = Proc.addBlock({4, TerminatorKind::Unconditional, "entry"});
  BlockId Exit = Proc.addBlock({2, TerminatorKind::Return, "exit"});
  Proc.addBlock({3, TerminatorKind::Return, "orphan"});
  Proc.addEdge(Entry, Exit);
  DiagnosticEngine Diags;
  EXPECT_GT(checkCfg(Proc, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::CfgUnreachable));
}

TEST(CfgCheckTest, ReportsAllViolationsNotJustTheFirst) {
  // Procedure::verify stops at its first complaint; the verifier pass
  // must keep going and catalog every independent defect.
  Procedure Proc("multi_bad");
  BlockId Entry = Proc.addBlock({4, TerminatorKind::Conditional, "entry"});
  BlockId A = Proc.addBlock({2, TerminatorKind::Unconditional, "a"});
  BlockId B = Proc.addBlock({1, TerminatorKind::Return, "b"});
  Proc.addEdge(Entry, A);
  Proc.addEdge(Entry, A); // Conditional with duplicate successors.
  Proc.addEdge(A, B);
  Proc.block(B).InstrCount = 0; // Corrupt after the fact; addBlock asserts.
  DiagnosticEngine Diags;
  checkCfg(Proc, Diags);
  EXPECT_TRUE(Diags.has(CheckId::CfgDuplicateEdge));
  EXPECT_TRUE(Diags.has(CheckId::CfgEmptyBlock));
  EXPECT_GE(Diags.errorCount(), 2u);
}

TEST(CfgCheckTest, CatchesArityViolations) {
  Procedure Proc("arity");
  BlockId Entry = Proc.addBlock({4, TerminatorKind::Conditional, "entry"});
  BlockId Exit = Proc.addBlock({2, TerminatorKind::Return, "exit"});
  Proc.addEdge(Entry, Exit); // Conditional with only one successor.
  Proc.addEdge(Exit, Entry); // Return with a successor.
  DiagnosticEngine Diags;
  checkCfg(Proc, Diags);
  EXPECT_TRUE(Diags.has(CheckId::CfgCondArity));
  EXPECT_TRUE(Diags.has(CheckId::CfgRetHasSucc));
}

//===----------------------------------------------------------------------===//
// Pass 2: profile-flow
//===----------------------------------------------------------------------===//

TEST(ProfileCheckTest, CollectedProfileConserves) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 500, 7);
  DiagnosticEngine Diags;
  EXPECT_EQ(checkProfileFlow(Proc, Profile, Diags), 0u);
  EXPECT_FALSE(Diags.hasErrors());
  EXPECT_FALSE(Diags.has(CheckId::ProfileFlowTruncated));
}

TEST(ProfileCheckTest, CatchesNonConservedFlow) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 500, 7);
  Profile.EdgeCounts[0][0] += 5; // Edge flow no longer matches counts.
  DiagnosticEngine Diags;
  EXPECT_GT(checkProfileFlow(Proc, Profile, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::ProfileFlowImbalance));
}

TEST(ProfileCheckTest, CatchesEdgeAbsentFromCfg) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 500, 7);
  Profile.EdgeCounts[1].push_back(3); // Count for an edge the CFG lacks.
  DiagnosticEngine Diags;
  checkProfileFlow(Proc, Profile, Diags);
  EXPECT_TRUE(Diags.has(CheckId::ProfileUnknownEdge));
}

TEST(ProfileCheckTest, CountsNearTwoToThe64DoNotWrapIntoABalance) {
  // The entry runs once yet sends 2^63 down each arm, and both arms flow
  // into a join that never runs. Summed in uint64 the entry's outflow and
  // the join's inflow both wrap to 0 and look balanced; the wide sums
  // report both, clamped to 2^64 - 1, and leave no outflow deficit.
  Procedure Proc = diamond();
  const uint64_t Half = uint64_t(1) << 63;
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.BlockCounts = {1, Half, Half, 0};
  Profile.EdgeCounts = {{Half, Half}, {Half}, {Half}, {}};
  DiagnosticEngine Diags;
  EXPECT_EQ(checkProfileFlow(Proc, Profile, Diags), 2u);
  std::vector<std::string> Imbalances;
  for (const Diagnostic &D : Diags.diagnostics())
    if (D.Check == CheckId::ProfileFlowImbalance)
      Imbalances.push_back(D.Loc.str() + ": " + D.Message);
  EXPECT_EQ(Imbalances,
            (std::vector<std::string>{
                "proc 'diamond' block 0: outflow 18446744073709551615 "
                "exceeds block count 1",
                "proc 'diamond' block 3: inflow 18446744073709551615 "
                "!= block count 0"}));
  EXPECT_FALSE(Diags.has(CheckId::ProfileFlowTruncated));
}

TEST(ProfileCheckTest, WarnsOnOverflowSuspiciousCounts) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  Profile.BlockCounts[0] = ~static_cast<uint64_t>(0) / 2;
  DiagnosticEngine Diags;
  checkProfileFlow(Proc, Profile, Diags);
  EXPECT_TRUE(Diags.has(CheckId::ProfileCountOverflow));
  EXPECT_GE(Diags.warningCount(), 1u);
}

TEST(ProfileCheckTest, ProgramOverloadChecksArity) {
  Program Prog("p");
  Prog.addProcedure(diamond());
  ProgramProfile Train; // Empty: wrong arity.
  DiagnosticEngine Diags;
  EXPECT_GT(checkProfileFlow(Prog, Train, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::ProfileShapeMismatch));
}

//===----------------------------------------------------------------------===//
// Pass 3: layout-check
//===----------------------------------------------------------------------===//

TEST(LayoutCheckTest, OriginalLayoutIsLegal) {
  Procedure Proc = generated(3);
  ProcedureProfile Profile = profileFor(Proc, 400, 11);
  DiagnosticEngine Diags;
  EXPECT_EQ(checkLayout(Proc, Layout::original(Proc), Profile,
                        MachineModel::alpha21164(), Diags),
            0u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(LayoutCheckTest, CatchesNonPermutation) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 200, 3);
  Layout Bad;
  Bad.Order = {0, 1, 1, 3}; // Block 1 twice, block 2 missing.
  DiagnosticEngine Diags;
  EXPECT_GT(checkLayout(Proc, Bad, Profile, MachineModel::alpha21164(),
                        Diags),
            0u);
  EXPECT_TRUE(Diags.has(CheckId::LayoutNotPermutation));
}

TEST(LayoutCheckTest, CatchesEntryNotFirst) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 200, 3);
  Layout Bad;
  Bad.Order = {1, 0, 2, 3};
  DiagnosticEngine Diags;
  checkLayout(Proc, Bad, Profile, MachineModel::alpha21164(), Diags);
  EXPECT_TRUE(Diags.has(CheckId::LayoutEntryNotFirst));
}

//===----------------------------------------------------------------------===//
// Pass 4: matrix-audit
//===----------------------------------------------------------------------===//

TEST(MatrixCheckTest, FreshInstanceAuditsClean) {
  Procedure Proc = generated(5);
  ProcedureProfile Profile = profileFor(Proc, 600, 13);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  DiagnosticEngine Diags;
  VerifyOptions Full; // Level::Full: includes exactness + transform audit.
  EXPECT_EQ(checkCostMatrix(Proc, Profile, Model, Atsp, Diags, Full), 0u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(MatrixCheckTest, CatchesLeakedBigM) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 300, 17);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  Atsp.Tsp.setCost(1, 2, Atsp.EntryPin + 5); // Pin leaks into a real cell.
  DiagnosticEngine Diags;
  checkCostMatrix(Proc, Profile, Model, Atsp, Diags, VerifyOptions());
  EXPECT_TRUE(Diags.has(CheckId::MatrixBigMLeak));
  EXPECT_TRUE(Diags.has(CheckId::MatrixCostMismatch)); // Full level audit.
}

TEST(MatrixCheckTest, CatchesBrokenDummyRow) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 300, 17);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  Atsp.Tsp.setCost(Atsp.DummyCity, Proc.entry(), 9); // Entry no longer free.
  DiagnosticEngine Diags;
  checkCostMatrix(Proc, Profile, Model, Atsp, Diags, VerifyOptions());
  EXPECT_TRUE(Diags.has(CheckId::MatrixDummyRowBroken));
}

TEST(MatrixCheckTest, QuickLevelSkipsExactnessAudit) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 300, 17);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  // A cell that is wrong but still within [0, EntryPin): only the Full
  // exactness audit can see it.
  Atsp.Tsp.setCost(1, 2, Atsp.Tsp.cost(1, 2) + 1);
  DiagnosticEngine Diags;
  VerifyOptions Quick;
  Quick.Level = VerifyLevel::Quick;
  checkCostMatrix(Proc, Profile, Model, Atsp, Diags, Quick);
  EXPECT_FALSE(Diags.has(CheckId::MatrixCostMismatch));
  DiagnosticEngine FullDiags;
  checkCostMatrix(Proc, Profile, Model, Atsp, FullDiags, VerifyOptions());
  EXPECT_TRUE(FullDiags.has(CheckId::MatrixCostMismatch));
}

//===----------------------------------------------------------------------===//
// Pass 5: tour-bounds
//===----------------------------------------------------------------------===//

TEST(TourCheckTest, SolvedTourChecksClean) {
  Procedure Proc = generated(9);
  ProcedureProfile Profile = profileFor(Proc, 500, 19);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  DtspSolution Solution = solveDirectedTsp(Atsp.Tsp, IteratedOptOptions());
  DiagnosticEngine Diags;
  EXPECT_EQ(checkTour(Proc, Profile, Model, Atsp, Solution.Tour,
                      Solution.Cost, Diags),
            0u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(TourCheckTest, CatchesInvalidTour) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 300, 23);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  std::vector<City> Bad = {0, 1, 1, 3, 4}; // City 1 twice, 2 missing.
  DiagnosticEngine Diags;
  EXPECT_GT(checkTour(Proc, Profile, Model, Atsp, Bad, 0, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::TourInvalid));
}

TEST(TourCheckTest, CatchesMisreportedCost) {
  Procedure Proc = diamond();
  ProcedureProfile Profile = profileFor(Proc, 300, 23);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(Proc, Profile, Model);
  DtspSolution Solution = solveDirectedTsp(Atsp.Tsp, IteratedOptOptions());
  DiagnosticEngine Diags;
  checkTour(Proc, Profile, Model, Atsp, Solution.Tour, Solution.Cost + 1,
            Diags);
  EXPECT_TRUE(Diags.has(CheckId::TourCostMismatch));
}

TEST(TourCheckTest, CatchesBoundsExceedingBestTour) {
  Procedure Proc = diamond();
  PenaltyBounds Bad;
  Bad.HeldKarp = 250.0;
  Bad.Assignment = 300;
  DiagnosticEngine Diags;
  EXPECT_GT(checkBounds(Proc, Bad, /*TspPenalty=*/100, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::BoundHkExceedsTour));
  EXPECT_TRUE(Diags.has(CheckId::BoundApExceedsTour));
}

//===----------------------------------------------------------------------===//
// Pass 6: determinism
//===----------------------------------------------------------------------===//

namespace {

struct SolvedProc {
  Procedure Proc;
  ProcedureProfile Profile;
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp;
  IteratedOptOptions SolverOptions;
  DtspSolution Solution;
  Layout TspLayout;
};

SolvedProc solveOne(uint64_t Seed) {
  SolvedProc S{generated(Seed), {}, MachineModel::alpha21164(), {}, {}, {},
               {}};
  S.Profile = profileFor(S.Proc, 500, Seed * 31 + 1);
  S.Atsp = buildAlignmentTsp(S.Proc, S.Profile, S.Model);
  S.Solution = solveDirectedTsp(S.Atsp.Tsp, S.SolverOptions);
  S.TspLayout = layoutFromTour(S.Proc, S.Atsp, S.Solution.Tour);
  return S;
}

} // namespace

TEST(DeterminismCheckTest, HonestReplayIsClean) {
  SolvedProc S = solveOne(41);
  DiagnosticEngine Diags;
  EXPECT_EQ(checkDeterminism(S.Proc, S.Profile, S.Model, S.Atsp,
                             S.SolverOptions, S.Solution.Tour,
                             S.Solution.Cost, S.TspLayout, Diags),
            0u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DeterminismCheckTest, CatchesMatrixDivergence) {
  SolvedProc S = solveOne(43);
  AlignmentTsp Tampered = S.Atsp;
  Tampered.Tsp.setCost(0, 1, Tampered.Tsp.cost(0, 1) + 3);
  DiagnosticEngine Diags;
  checkDeterminism(S.Proc, S.Profile, S.Model, Tampered, S.SolverOptions,
                   S.Solution.Tour, S.Solution.Cost, S.TspLayout, Diags);
  EXPECT_TRUE(Diags.has(CheckId::DeterminismMatrixDiverged));
}

TEST(DeterminismCheckTest, CatchesTourDivergence) {
  SolvedProc S = solveOne(47);
  DiagnosticEngine Diags;
  checkDeterminism(S.Proc, S.Profile, S.Model, S.Atsp, S.SolverOptions,
                   S.Solution.Tour, S.Solution.Cost + 7, S.TspLayout, Diags);
  EXPECT_TRUE(Diags.has(CheckId::DeterminismTourDiverged));
}

TEST(DeterminismCheckTest, CatchesLayoutDivergence) {
  SolvedProc S = solveOne(53);
  ASSERT_GE(S.TspLayout.Order.size(), 3u);
  Layout Tampered = S.TspLayout;
  std::swap(Tampered.Order[1], Tampered.Order[2]);
  DiagnosticEngine Diags;
  checkDeterminism(S.Proc, S.Profile, S.Model, S.Atsp, S.SolverOptions,
                   S.Solution.Tour, S.Solution.Cost, Tampered, Diags);
  EXPECT_TRUE(Diags.has(CheckId::DeterminismLayoutDiverged));
}

//===----------------------------------------------------------------------===//
// PipelineVerifier: verify-each over the whole driver
//===----------------------------------------------------------------------===//

TEST(PipelineVerifierTest, FullPipelineRunsClean) {
  Program Prog("verified");
  ProgramProfile Train;
  for (uint64_t Seed : {61, 67}) {
    Prog.addProcedure(generated(Seed));
    Train.Procs.push_back(
        profileFor(Prog.proc(Prog.numProcedures() - 1), 600, Seed + 1));
  }
  AlignmentOptions Options;
  DiagnosticEngine Diags;
  ProgramAlignment Result =
      alignProgramVerified(Prog, Train, Options, Diags, VerifyOptions());
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  EXPECT_EQ(Result.Procs.size(), 2u);
}

TEST(PipelineVerifierTest, InputErrorsSurfaceBeforeAlignment) {
  Program Prog("sick");
  Prog.addProcedure(diamond());
  ProgramProfile Train;
  Train.Procs.push_back(profileFor(Prog.proc(0), 300, 71));
  Train.Procs.back().EdgeCounts[0][1] += 9; // Break conservation.
  AlignmentOptions Options;
  DiagnosticEngine Diags;
  alignProgramVerified(Prog, Train, Options, Diags, VerifyOptions());
  EXPECT_TRUE(Diags.has(CheckId::ProfileFlowImbalance));
}

TEST(PipelineVerifierTest, WholeProgramColdKeepsEveryOriginalLayout) {
  // Pipeline-level coverage of the unprofiled skip path: with every
  // procedure cold the whole program must come back in original order,
  // with zero penalties, and the verifier must agree nothing is wrong.
  Program Prog("cold");
  ProgramProfile Train;
  for (uint64_t Seed : {73, 79, 83}) {
    Prog.addProcedure(generated(Seed));
    Train.Procs.push_back(
        ProcedureProfile::zeroed(Prog.proc(Prog.numProcedures() - 1)));
  }
  AlignmentOptions Options;
  DiagnosticEngine Diags;
  ProgramAlignment Result =
      alignProgramVerified(Prog, Train, Options, Diags, VerifyOptions());
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    EXPECT_EQ(Result.Procs[P].TspLayout.Order,
              Layout::original(Prog.proc(P)).Order);
    EXPECT_EQ(Result.Procs[P].GreedyLayout.Order,
              Layout::original(Prog.proc(P)).Order);
    EXPECT_EQ(Result.Procs[P].TspPenalty, 0u);
    EXPECT_EQ(Result.Procs[P].GreedyPenalty, 0u);
  }
}

TEST(PipelineVerifierTest, VerifyAlignmentChecksFinishedResult) {
  Program Prog("after");
  Prog.addProcedure(generated(89));
  ProgramProfile Train;
  Train.Procs.push_back(profileFor(Prog.proc(0), 400, 97));
  AlignmentOptions Options;
  ProgramAlignment Result = alignProgram(Prog, Train, Options);

  DiagnosticEngine Diags;
  PipelineVerifier Verifier(Diags);
  EXPECT_EQ(Verifier.verifyAlignment(Prog, Train, Options.Model, Result),
            0u);

  // Tamper with a produced layout; the post-hoc check must notice.
  std::swap(Result.Procs[0].TspLayout.Order[0],
            Result.Procs[0].TspLayout.Order[1]);
  DiagnosticEngine Diags2;
  PipelineVerifier Verifier2(Diags2);
  EXPECT_GT(Verifier2.verifyAlignment(Prog, Train, Options.Model, Result),
            0u);
  EXPECT_TRUE(Diags2.has(CheckId::LayoutEntryNotFirst));
}

TEST(PipelineVerifierTest, BenchmarkWorkloadsVerifyClean) {
  // The workload generators already self-check CFG + profile flow on
  // every build; this drives one bundled benchmark (at a reduced trace
  // budget, for speed) through the full verified pipeline end to end.
  WorkloadSpec Spec;
  for (const WorkloadSpec &S : benchmarkSuite())
    if (S.Benchmark == "esp")
      Spec = S;
  ASSERT_EQ(Spec.Benchmark, "esp");
  for (DataSetSpec &Ds : Spec.DataSets)
    Ds.BranchBudget = std::min<uint64_t>(Ds.BranchBudget, 3000);
  WorkloadInstance Instance = buildWorkload(Spec);
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  DiagnosticEngine Diags;
  alignProgramVerified(Instance.Prog, Instance.DataSets[0].Profile, Options,
                       Diags, VerifyOptions());
  EXPECT_FALSE(Diags.hasErrors()) << Diags.renderAll();
}

//===----------------------------------------------------------------------===//
// Fatal pipeline diagnostics (release-proof assert replacement)
//===----------------------------------------------------------------------===//

using PipelineFatalDeathTest = ::testing::Test;

TEST(PipelineFatalDeathTest, ProfileArityMismatchDiesLoudly) {
  Program Prog("arity");
  Prog.addProcedure(diamond());
  ProgramProfile Empty; // No per-procedure profiles at all.
  AlignmentOptions Options;
  EXPECT_DEATH(alignProgram(Prog, Empty, Options),
               "pipeline\\.profile-arity");
}

TEST(PipelineFatalDeathTest, LayoutArityMismatchDiesLoudly) {
  Program Prog("arity2");
  Prog.addProcedure(diamond());
  ProgramProfile Train;
  Train.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(0)));
  std::vector<Layout> NoLayouts;
  EXPECT_DEATH(evaluateProgramPenalty(Prog, NoLayouts,
                                      MachineModel::alpha21164(), Train,
                                      Train),
               "pipeline\\.layout-arity");
}

TEST(PipelineFatalDeathTest, MisshapenProcedureProfileDiesLoudly) {
  Program Prog("shape");
  Prog.addProcedure(diamond());
  ProgramProfile Train;
  Train.Procs.push_back(ProcedureProfile()); // Zero blocks for 4-block proc.
  AlignmentOptions Options;
  EXPECT_DEATH(alignProgram(Prog, Train, Options),
               "pipeline\\.profile-shape");
}
