//===- tests/lint_test.cpp - balign-lint driver and effort-policy tests ---===//
//
// Covers the lint check driver end to end: zero findings on valid
// generator corpora, 100% detection on the seeded defect corpus,
// byte-identical reports across repeated runs, and the isolation
// guarantee that linting never perturbs alignment results or cache
// fingerprints (at any thread count). Also unit-tests the
// profile-guided effort policy the lint analyses feed.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "cache/Fingerprint.h"
#include "machine/MachineModel.h"
#include "profile/Trace.h"
#include "static/EffortPolicy.h"
#include "static/Lint.h"
#include "static/Loops.h"
#include "workloads/Generator.h"

#include "DefectSeeding.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

using namespace balign;

namespace {

/// A small program of generator procedures plus trace-collected (hence
/// exactly flow-consistent) profiles.
struct Corpus {
  Program Prog{"corpus"};
  ProgramProfile Train;
};

Corpus buildCorpus(uint64_t Seed, unsigned NumProcs,
                   unsigned BranchSites = 6) {
  Corpus C;
  Rng Root(Seed);
  for (unsigned P = 0; P != NumProcs; ++P) {
    GenParams Params;
    Params.TargetBranchSites = 2 + (BranchSites + P) % 12;
    Params.LoopFraction = 0.15 + 0.05 * (P % 7);
    Rng R = Root.fork();
    C.Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
    Rng TraceRng = Root.fork();
    const Procedure &Proc = C.Prog.proc(P);
    C.Train.Procs.push_back(walkProfile(Proc, BranchBehavior::uniform(Proc),
                                        TraceRng, 3000));
  }
  return C;
}

//===--------------------------------------------------------------------===//
// Clean corpora produce zero findings
//===--------------------------------------------------------------------===//

TEST(LintTest, ValidGeneratedCorporaLintClean) {
  for (uint64_t Seed : {1u, 7u, 42u, 1997u}) {
    Corpus C = buildCorpus(Seed, 8);
    MachineModel Model = MachineModel::alpha21164();
    LintResult Result = lintProgram(C.Prog, &C.Train, &Model);
    EXPECT_EQ(Result.Diags.errorCount(), 0u) << Result.Diags.renderAll();
    EXPECT_EQ(Result.Diags.warningCount(), 0u) << Result.Diags.renderAll();
    EXPECT_TRUE(Result.Profiled);
    EXPECT_GT(Result.ChecksRun, 0u);
    EXPECT_EQ(Result.worstClass(), ProfileClass::Consistent);
    ASSERT_EQ(Result.ProcClasses.size(), C.Prog.numProcedures());
    for (ProfileClass PC : Result.ProcClasses)
      EXPECT_EQ(PC, ProfileClass::Consistent);
  }
}

TEST(LintTest, UnprofiledLintRunsStructuralChecksOnly) {
  Corpus C = buildCorpus(11, 4);
  LintResult Result = lintProgram(C.Prog, nullptr, nullptr);
  EXPECT_FALSE(Result.Profiled);
  EXPECT_TRUE(Result.ProcClasses.empty());
  EXPECT_EQ(Result.Diags.errorCount(), 0u) << Result.Diags.renderAll();
  EXPECT_EQ(Result.Diags.warningCount(), 0u) << Result.Diags.renderAll();
}

//===--------------------------------------------------------------------===//
// The seeded defect corpus is detected in full
//===--------------------------------------------------------------------===//

TEST(LintTest, EverySeededDefectIsDetected) {
  constexpr DefectKind Kinds[NumDefectKinds] = {
      DefectKind::IrreducibleLoop,      DefectKind::NoExitLoop,
      DefectKind::SelfLoopSpin,         DefectKind::UnreachableHot,
      DefectKind::StaleProfile,         DefectKind::ContradictoryProfile,
      DefectKind::SaturatedCounter,     DefectKind::OverflowCounter,
  };
  Rng Root(0xdefec7ULL);
  for (DefectKind Kind : Kinds) {
    for (unsigned Trial = 0; Trial != 12; ++Trial) {
      GenParams Params;
      Params.TargetBranchSites = 3 + Trial % 9;
      Rng R = Root.fork();
      Procedure Proc = generateProcedure(std::string(defectKindName(Kind)) +
                                             std::to_string(Trial),
                                         Params, R)
                           .Proc;
      Rng TraceRng = Root.fork();
      ProcedureProfile Profile =
          walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, 2000);

      CheckId Expected = seedDefect(Kind, Proc, Profile, R);
      DiagnosticEngine Diags;
      ProfileClass PC = ProfileClass::Consistent;
      lintProcedure(Proc, &Profile, Diags, &PC);
      EXPECT_TRUE(Diags.has(Expected))
          << defectKindName(Kind) << " trial " << Trial << " missed "
          << checkIdName(Expected) << "\n"
          << Diags.renderAll();
      // Flow defects must also carry the right verdict.
      if (Kind == DefectKind::StaleProfile) {
        EXPECT_EQ(PC, ProfileClass::Repairable);
      }
      if (Kind == DefectKind::ContradictoryProfile) {
        EXPECT_EQ(PC, ProfileClass::Contradictory);
      }
    }
  }
}

TEST(LintTest, StaleProfileRepairIsSuggested) {
  Rng R(0x57a1eULL);
  GenParams Params;
  Params.TargetBranchSites = 6;
  Procedure Proc = generateProcedure("stale", Params, R).Proc;
  ProcedureProfile Profile =
      walkProfile(Proc, BranchBehavior::uniform(Proc), R, 2000);
  seedDefect(DefectKind::StaleProfile, Proc, Profile, R);
  DiagnosticEngine Diags;
  lintProcedure(Proc, &Profile, Diags);
  EXPECT_TRUE(Diags.has(CheckId::LintFlowImbalance)) << Diags.renderAll();
  EXPECT_TRUE(Diags.has(CheckId::LintFlowRepair)) << Diags.renderAll();
}

TEST(LintTest, DeepNestIsReported) {
  // Eight nested do-while loops: block i+1 latches back to block i.
  Procedure Proc("deep");
  const unsigned Depth = 8;
  for (unsigned I = 0; I != Depth; ++I)
    Proc.addBlock({2, TerminatorKind::Conditional, ""});
  BlockId Ret = Proc.addBlock({1, TerminatorKind::Return, ""});
  for (unsigned I = 0; I != Depth; ++I) {
    // Successor 0: deeper (or self for the innermost); successor 1: back
    // out (or return for the outermost header).
    Proc.addEdge(I, I + 1 == Depth ? I : I + 1);
    Proc.addEdge(I, I == 0 ? Ret : I - 1);
  }
  ASSERT_TRUE(Proc.verify());
  DiagnosticEngine Diags;
  lintProcedure(Proc, nullptr, Diags);
  EXPECT_TRUE(Diags.has(CheckId::LintDeepNest)) << Diags.renderAll();
}

//===--------------------------------------------------------------------===//
// Report determinism and the JSON export
//===--------------------------------------------------------------------===//

TEST(LintTest, ReportsAreByteIdenticalAcrossRuns) {
  Corpus C = buildCorpus(77, 6);
  // Make the report non-trivial: one seeded defect per flavor.
  Rng R(0x9ULL);
  seedDefect(DefectKind::StaleProfile, C.Prog.proc(0), C.Train.Procs[0], R);
  seedDefect(DefectKind::IrreducibleLoop, C.Prog.proc(1), C.Train.Procs[1],
             R);
  MachineModel Model = MachineModel::alpha21164();

  LintResult First = lintProgram(C.Prog, &C.Train, &Model);
  std::string FirstText = First.Diags.renderAll();
  std::string FirstJson = lintReportJson(First);
  for (int Run = 0; Run != 3; ++Run) {
    LintResult Again = lintProgram(C.Prog, &C.Train, &Model);
    EXPECT_EQ(Again.Diags.renderAll(), FirstText);
    EXPECT_EQ(lintReportJson(Again), FirstJson);
  }
  EXPECT_NE(FirstJson.find("\"version\":1"), std::string::npos);
  EXPECT_NE(FirstJson.find("\"findings\":["), std::string::npos);
  EXPECT_NE(FirstJson.find("lint.flow-imbalance"), std::string::npos);
  EXPECT_NE(FirstJson.find("lint.irreducible-loop"), std::string::npos);
  EXPECT_NE(FirstJson.find("\"repairable\""), std::string::npos);
}

/// The one JSON string escaper (lint reports and align_tool's batch lint
/// array): every byte below 0x20 must come out escaped, or the document
/// is not JSON.
TEST(LintTest, JsonEscapedEscapesQuotesBackslashesAndControlBytes) {
  EXPECT_EQ(jsonEscaped("plain name.cfg"), "plain name.cfg");
  EXPECT_EQ(jsonEscaped("a\"b"), "a\\\"b");
  EXPECT_EQ(jsonEscaped("a\\b"), "a\\\\b");
  EXPECT_EQ(jsonEscaped("a\nb\tc\rd"), "a\\nb\\tc\\rd");
  EXPECT_EQ(jsonEscaped(std::string("x\x01y")), "x\\u0001y");
  EXPECT_EQ(jsonEscaped(std::string("\x1f")), "\\u001f");
  EXPECT_EQ(jsonEscaped("\x7f\xc3\xa9"), "\x7f\xc3\xa9"); // Not controls.
}

//===--------------------------------------------------------------------===//
// Isolation: lint never perturbs alignment or cache identity
//===--------------------------------------------------------------------===//

TEST(LintTest, LintDoesNotPerturbAlignmentAtAnyThreadCount) {
  Corpus C = buildCorpus(2026, 6);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentOptions Options;
  Options.ComputeBounds = false;
  Options.Solver.GreedyStarts = 2;
  Options.Solver.NearestNeighborStarts = 1;
  Options.Solver.IterationsFactor = 2.0;

  // Baseline: no lint anywhere near the pipeline.
  Options.Threads = 1;
  ProgramAlignment Baseline = alignProgram(C.Prog, C.Train, Options);
  std::vector<Fingerprint> BaseKeys;
  for (size_t P = 0; P != C.Prog.numProcedures(); ++P)
    BaseKeys.push_back(fingerprintProcedureInputs(
        C.Prog.proc(P), C.Train.Procs[P], Options, P));

  // Lint the same inputs, then re-align at several thread counts: the
  // layouts and the cache fingerprints must be bit-identical.
  LintResult Lint = lintProgram(C.Prog, &C.Train, &Model);
  std::string Report = lintReportJson(Lint);
  for (unsigned Threads : {1u, 8u}) {
    Options.Threads = Threads;
    ProgramAlignment After = alignProgram(C.Prog, C.Train, Options);
    ASSERT_EQ(After.Procs.size(), Baseline.Procs.size());
    for (size_t P = 0; P != After.Procs.size(); ++P) {
      EXPECT_EQ(After.Procs[P].TspLayout.Order,
                Baseline.Procs[P].TspLayout.Order)
          << "thread count " << Threads << " proc " << P;
      EXPECT_EQ(After.Procs[P].GreedyLayout.Order,
                Baseline.Procs[P].GreedyLayout.Order);
      EXPECT_EQ(After.Procs[P].TspPenalty, Baseline.Procs[P].TspPenalty);
      EXPECT_EQ(fingerprintProcedureInputs(C.Prog.proc(P), C.Train.Procs[P],
                                           Options, P),
                BaseKeys[P]);
    }
    // And lint itself stays byte-stable when interleaved with aligning.
    LintResult Again = lintProgram(C.Prog, &C.Train, &Model);
    EXPECT_EQ(lintReportJson(Again), Report);
  }
}

//===--------------------------------------------------------------------===//
// Profile-guided effort policy
//===--------------------------------------------------------------------===//

/// A procedure with ~NumCond conditional diamonds and, when \p Loop,
/// a two-deep loop nest around the whole body.
Procedure effortProc(unsigned NumCond, bool Loop) {
  Rng R(31 + NumCond + (Loop ? 1 : 0));
  GenParams Params;
  Params.TargetBranchSites = NumCond;
  Params.LoopFraction = Loop ? 0.8 : 0.0;
  Params.MultiwayFraction = 0.0;
  return generateProcedure("effort", Params, R).Proc;
}

TEST(EffortPolicyTest, UniformPolicyNeverChangesAnything) {
  IteratedOptOptions Base;
  for (unsigned Sites : {2u, 40u}) {
    Procedure Proc = effortProc(Sites, true);
    ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
    EffortDecision D =
        decideEffort(Proc, Profile, Base, EffortPolicy::Uniform);
    EXPECT_FALSE(D.GreedyOnly);
    EXPECT_EQ(D.Solver.IterationsFactor, Base.IterationsFactor);
    EXPECT_EQ(D.Solver.GreedyStarts, Base.GreedyStarts);
    EXPECT_EQ(D.Solver.Seed, Base.Seed);
  }
}

TEST(EffortPolicyTest, ScaledPolicyHalvesLoopFreeEffort) {
  IteratedOptOptions Base;
  Procedure Proc = effortProc(6, /*Loop=*/false);
  // Loop-free by construction.
  DominatorTree Dom = DominatorTree::compute(Proc);
  ASSERT_EQ(LoopInfo::compute(Proc, Dom).maxDepth(), 0u);
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  EffortDecision D = decideEffort(Proc, Profile, Base, EffortPolicy::Scaled);
  EXPECT_FALSE(D.GreedyOnly);
  EXPECT_EQ(D.Solver.IterationsFactor, Base.IterationsFactor / 2);
}

TEST(EffortPolicyTest, ColdGreedyPolicyRoutesTinyProcsToGreedy) {
  IteratedOptOptions Base;
  Procedure Proc = effortProc(2, false);
  ProcedureProfile Profile = ProcedureProfile::zeroed(Proc);
  // Zero executed branches: far below the cold threshold.
  EffortDecision D =
      decideEffort(Proc, Profile, Base, EffortPolicy::ScaledColdGreedy);
  EXPECT_TRUE(D.GreedyOnly);
  // The plain Scaled policy never routes to greedy-only.
  EXPECT_FALSE(
      decideEffort(Proc, Profile, Base, EffortPolicy::Scaled).GreedyOnly);
}

TEST(EffortPolicyTest, PolicyNamesRoundTrip) {
  const std::pair<const char *, EffortPolicy> Names[] = {
      {"uniform", EffortPolicy::Uniform},
      {"scaled", EffortPolicy::Scaled},
      {"scaled-cold-greedy", EffortPolicy::ScaledColdGreedy}};
  for (const auto &[Name, P] : Names) {
    EffortPolicy Parsed = EffortPolicy::Uniform;
    ASSERT_TRUE(parseEffortPolicy(Name, Parsed)) << Name;
    EXPECT_EQ(Parsed, P);
  }
  EffortPolicy Parsed = EffortPolicy::Uniform;
  EXPECT_FALSE(parseEffortPolicy("bogus", Parsed));
}

} // namespace
