//===- static/Lint.cpp ----------------------------------------------------===//

#include "static/Lint.h"

#include "objective/Displace.h"
#include "static/Dominators.h"
#include "static/Loops.h"
#include "static/Reachability.h"
#include "trace/Scope.h"

#include <cstdio>
#include <limits>
#include <sstream>

using namespace balign;

static const char PassName[] = "lint";

/// Loop nests at least this deep draw lint.deep-nest; calibrated so every
/// corpus the workload generator emits lints clean.
static constexpr unsigned DeepNestDepth = 8;

bool LintResult::failedAt(Severity Min) const {
  switch (Min) {
  case Severity::Error:
    return Diags.errorCount() != 0;
  case Severity::Warning:
    return Diags.errorCount() != 0 || Diags.warningCount() != 0;
  case Severity::Note:
    return !Diags.diagnostics().empty();
  }
  return false;
}

ProfileClass LintResult::worstClass() const {
  ProfileClass Worst = ProfileClass::Consistent;
  for (ProfileClass C : ProcClasses)
    if (static_cast<uint8_t>(C) > static_cast<uint8_t>(Worst))
      Worst = C;
  return Worst;
}

namespace {

/// Structural checks: reachability, loop shape, CFG degeneracies.
/// Returns the number of check evaluations.
size_t lintStructure(const Procedure &Proc, const Reachability &Reach,
                     const LoopInfo &Loops, DiagnosticEngine &Diags) {
  const std::string &Name = Proc.getName();
  size_t N = Proc.numBlocks();

  // lint.unreachable-block: dead code distorts the DTSP instance (the
  // dummy-city tour must still place it) for no dynamic benefit.
  for (BlockId B = 0; B != N; ++B)
    if (!Reach.FromEntry[B])
      Diags.report(Severity::Warning, CheckId::LintUnreachableBlock, PassName,
                   DiagLocation::block(Name, B),
                   "block is unreachable from the entry");

  // lint.irreducible-loop: a retreating edge into a cycle the edge's
  // target does not dominate — a second entry into the loop.
  for (auto [U, H] : Loops.IrreducibleEdges)
    Diags.report(Severity::Warning, CheckId::LintIrreducibleLoop, PassName,
                 DiagLocation::edge(Name, U, H),
                 "retreating edge closes an irreducible (multi-entry) "
                 "cycle: " +
                     std::to_string(H) + " does not dominate " +
                     std::to_string(U));

  // lint.deep-nest: one finding per procedure, at the deepest header.
  unsigned MaxDepth = Loops.maxDepth();
  if (MaxDepth >= DeepNestDepth)
    for (const Loop &L : Loops.Loops)
      if (L.Depth == MaxDepth) {
        Diags.report(Severity::Warning, CheckId::LintDeepNest, PassName,
                     DiagLocation::block(Name, L.Header),
                     "loop nest reaches depth " + std::to_string(MaxDepth) +
                         " (threshold " + std::to_string(DeepNestDepth) +
                         ")");
        break;
      }

  // lint.no-loop-exit: a loop no member block can leave traps execution.
  for (const Loop &L : Loops.Loops)
    if (!L.HasExit)
      Diags.report(Severity::Warning, CheckId::LintNoLoopExit, PassName,
                   DiagLocation::block(Name, L.Header),
                   "loop with header " + std::to_string(L.Header) + " (" +
                       std::to_string(L.Blocks.size()) +
                       " blocks) has no exit edge");

  // lint.self-loop (structural half): an unconditional block whose only
  // successor is itself can never terminate once entered.
  for (BlockId B = 0; B != N; ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    if (Succs.size() == 1 && Succs[0] == B)
      Diags.report(Severity::Warning, CheckId::LintSelfLoop, PassName,
                   DiagLocation::block(Name, B),
                   "unconditional self-loop: the block's only successor "
                   "is itself");
  }

  // lint.linear-cfg: nothing for branch alignment to improve.
  bool AnyBranch = false;
  for (BlockId B = 0; B != N && !AnyBranch; ++B)
    AnyBranch = Proc.block(B).Kind == TerminatorKind::Conditional ||
                Proc.block(B).Kind == TerminatorKind::Multiway;
  if (!AnyBranch)
    Diags.report(Severity::Note, CheckId::LintLinearCfg, PassName,
                 DiagLocation::procedure(Name),
                 "procedure has no conditional or multiway branch; "
                 "alignment cannot change its penalty");

  return 6;
}

/// Profile checks: counter sanity, dead-but-hot blocks, flow
/// conservation with suggested repairs. Returns check evaluations.
size_t lintProfile(const Procedure &Proc, const ProcedureProfile &Profile,
                   const Reachability &Reach, DiagnosticEngine &Diags,
                   ProfileClass &Class) {
  const std::string &Name = Proc.getName();
  size_t N = Proc.numBlocks();

  if (!Profile.shapeMatches(Proc)) {
    Class = ProfileClass::Contradictory;
    Diags.report(Severity::Error, CheckId::LintFlowContradictory, PassName,
                 DiagLocation::procedure(Name),
                 "profile shape does not match the procedure; no flow "
                 "analysis is possible");
    return 1;
  }

  constexpr uint64_t Saturated = std::numeric_limits<uint64_t>::max();
  auto checkCount = [&](uint64_t Count, DiagLocation Loc, const char *What) {
    // lint.counter-saturated: the all-ones signature of a wrapped or
    // clamped hardware counter; lint.counter-overflow: magnitudes the
    // penalty arithmetic has no headroom for.
    if (Count == Saturated)
      Diags.report(Severity::Error, CheckId::LintCounterSaturated, PassName,
                   std::move(Loc),
                   std::string(What) + " count is saturated (2^64-1)");
    else if (Count > ProfileOverflowLimit)
      Diags.report(Severity::Error, CheckId::LintCounterOverflow, PassName,
                   std::move(Loc),
                   std::string(What) + " count " + std::to_string(Count) +
                       " exceeds the overflow screen of 2^56");
  };
  for (BlockId B = 0; B != N; ++B) {
    checkCount(Profile.BlockCounts[B], DiagLocation::block(Name, B), "block");
    for (size_t S = 0; S != Profile.EdgeCounts[B].size(); ++S)
      checkCount(Profile.EdgeCounts[B][S],
                 DiagLocation::edge(Name, B, Proc.successors(B)[S]), "edge");
  }

  // lint.unreachable-hot: a counted block no CFG path reaches — the
  // profile describes a different program (stale profile).
  for (BlockId B = 0; B != N; ++B)
    if (!Reach.FromEntry[B] && Profile.BlockCounts[B] != 0)
      Diags.report(Severity::Error, CheckId::LintUnreachableHot, PassName,
                   DiagLocation::block(Name, B),
                   "unreachable block carries count " +
                       std::to_string(Profile.BlockCounts[B]) +
                       "; the profile cannot come from this CFG");

  // lint.self-loop (profile half): a self-loop taken on every execution
  // of its block never exits, yet the profile claims the run finished.
  for (BlockId B = 0; B != N; ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    for (size_t S = 0; S != Succs.size(); ++S)
      if (Succs[S] == B && Succs.size() > 1 && Profile.BlockCounts[B] != 0 &&
          Profile.EdgeCounts[B][S] == Profile.BlockCounts[B])
        Diags.report(Severity::Warning, CheckId::LintSelfLoop, PassName,
                     DiagLocation::block(Name, B),
                     "self-loop edge is taken on all " +
                         std::to_string(Profile.BlockCounts[B]) +
                         " executions; the block can never have exited");
  }

  // Flow conservation: violations, verdict, suggested repairs.
  FlowAnalysis Flow = analyzeFlow(Proc, Profile);
  Class = Flow.Class;
  for (const FlowViolation &V : Flow.Violations)
    Diags.report(Severity::Error, CheckId::LintFlowImbalance, PassName,
                 DiagLocation::block(Name, V.Block),
                 std::string(V.Inflow ? "inflow " : "outflow ") +
                     std::to_string(V.Have) +
                     (V.Have > V.Want ? " exceeds" : " falls short of") +
                     " block count " + std::to_string(V.Want));
  if (Flow.Class == ProfileClass::Contradictory) {
    Diags.report(Severity::Error, CheckId::LintFlowContradictory, PassName,
                 DiagLocation::procedure(Name),
                 "profile is contradictory: " + Flow.Contradiction);
  } else if (Flow.Class == ProfileClass::Repairable) {
    for (const FlowRepair &R : Flow.Repairs)
      Diags.report(Severity::Note, CheckId::LintFlowRepair, PassName,
                   DiagLocation::edge(Name, R.From, R.To),
                   "setting this edge count to " + std::to_string(R.Count) +
                       " restores flow conservation");
    scopeCounterAdd("static.repairs", Flow.Repairs.size());
  }

  return 4;
}

/// lint.objective.window: the Ext-TSP objective hands out near-maximal
/// credit whenever the executed blocks land within one forward window
/// of each other. When a procedure's hot path already fits the window
/// while the procedure as a whole does not, essentially any layout that
/// groups the hot blocks ties on Ext-TSP score — the windowed objective
/// has little left to discriminate, and the paper's fall-through
/// objective is the sharper tool there. Advisory only (a Note): the
/// layout is still correct, just the objective choice is questionable.
/// Returns the number of check evaluations (always 1).
size_t lintObjectiveWindow(const Procedure &Proc,
                           const ProcedureProfile &Profile,
                           const MachineModel &Model,
                           DiagnosticEngine &Diags) {
  uint64_t TotalBytes = 0, HotBytes = 0, HotBlocks = 0;
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    uint64_t Bytes = blockBytes(Proc, B);
    TotalBytes += Bytes;
    if (Profile.BlockCounts[B] != 0) {
      HotBytes += Bytes;
      ++HotBlocks;
    }
  }
  // Fire only when the note is informative: some blocks are hot, the
  // procedure itself overflows the window (so there is layout freedom
  // the window cannot see), yet the hot span fits inside it.
  if (HotBlocks != 0 && TotalBytes > Model.ExtTspForwardWindow &&
      HotBytes <= Model.ExtTspForwardWindow)
    Diags.report(Severity::Note, CheckId::LintObjectiveWindow, PassName,
                 DiagLocation::procedure(Proc.getName()),
                 "hot path spans " + std::to_string(HotBytes) +
                     " bytes and fits one Ext-TSP forward window (" +
                     std::to_string(Model.ExtTspForwardWindow) +
                     " bytes) while the procedure spans " +
                     std::to_string(TotalBytes) +
                     "; the windowed objective barely discriminates "
                     "between layouts here");
  return 1;
}

/// Machine-model screen: penalties configured inside-out make every
/// layout comparison meaningless even on a perfect profile.
size_t lintModel(const MachineModel &Model, DiagnosticEngine &Diags) {
  if (Model.CondMispredict < Model.CondTakenCorrect)
    Diags.report(Severity::Warning, CheckId::LintModelSuspicious, PassName,
                 DiagLocation::program(),
                 "model '" + Model.Name + "': conditional mispredict (" +
                     std::to_string(Model.CondMispredict) +
                     ") is cheaper than a correctly predicted taken "
                     "branch (" +
                     std::to_string(Model.CondTakenCorrect) + ")");
  if (Model.MultiwayMispredict < Model.MultiwayPredicted)
    Diags.report(Severity::Warning, CheckId::LintModelSuspicious, PassName,
                 DiagLocation::program(),
                 "model '" + Model.Name + "': multiway mispredict (" +
                     std::to_string(Model.MultiwayMispredict) +
                     ") is cheaper than the predicted target (" +
                     std::to_string(Model.MultiwayPredicted) + ")");
  if (Model.CondFallThrough == 0 && Model.CondTakenCorrect == 0 &&
      Model.CondMispredict == 0 && Model.UncondBranch == 0 &&
      Model.MultiwayPredicted == 0 && Model.MultiwayMispredict == 0)
    Diags.report(Severity::Warning, CheckId::LintModelSuspicious, PassName,
                 DiagLocation::program(),
                 "model '" + Model.Name +
                     "': every penalty is zero; all layouts tie and "
                     "alignment is vacuous");
  return 1;
}

} // namespace

std::string balign::jsonEscaped(const std::string &S) {
  std::string Out;
  for (char C : S) {
    switch (C) {
    case '"':
      Out += "\\\"";
      break;
    case '\\':
      Out += "\\\\";
      break;
    case '\n':
      Out += "\\n";
      break;
    case '\t':
      Out += "\\t";
      break;
    case '\r':
      Out += "\\r";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20) {
        char Buffer[8];
        std::snprintf(Buffer, sizeof(Buffer), "\\u%04x",
                      static_cast<unsigned>(static_cast<unsigned char>(C)));
        Out += Buffer;
      } else {
        Out += C;
      }
    }
  }
  return Out;
}

size_t balign::lintProcedure(const Procedure &Proc,
                             const ProcedureProfile *Profile,
                             DiagnosticEngine &Diags,
                             ProfileClass *ProcClass) {
  ScopedSpan Span("lint.proc", SpanCat::Lint);
  Reachability Reach = computeReachability(Proc);
  DominatorTree Dom = DominatorTree::compute(Proc);
  LoopInfo Loops = LoopInfo::compute(Proc, Dom);
  scopeCounterAdd("static.loops", Loops.Loops.size());

  size_t Checks = lintStructure(Proc, Reach, Loops, Diags);
  ProfileClass Class = ProfileClass::Consistent;
  if (Profile)
    Checks += lintProfile(Proc, *Profile, Reach, Diags, Class);
  if (ProcClass)
    *ProcClass = Class;
  return Checks;
}

LintResult balign::lintProgram(const Program &Prog,
                               const ProgramProfile *Profile,
                               const MachineModel *Model) {
  ScopedSpan Span("lint.program", SpanCat::Lint);
  LintResult Result;
  Result.Profiled = Profile != nullptr;
  for (size_t I = 0; I != Prog.numProcedures(); ++I) {
    const ProcedureProfile *ProcProfile =
        Profile && I < Profile->Procs.size() ? &Profile->Procs[I] : nullptr;
    ProfileClass Class = ProfileClass::Consistent;
    Result.ChecksRun +=
        lintProcedure(Prog.proc(I), ProcProfile, Result.Diags, &Class);
    // The objective-window advisory needs the profile (to find the hot
    // span) and the model (for the window), so it lives at the program
    // driver where both meet.
    if (ProcProfile && Model && ProcProfile->shapeMatches(Prog.proc(I)))
      Result.ChecksRun += lintObjectiveWindow(Prog.proc(I), *ProcProfile,
                                              *Model, Result.Diags);
    if (Result.Profiled) {
      Result.ProcClasses.push_back(Class);
      Result.ProcNames.push_back(Prog.proc(I).getName());
    }
  }
  if (Model)
    Result.ChecksRun += lintModel(*Model, Result.Diags);
  scopeCounterAdd("lint.checks", Result.ChecksRun);
  scopeCounterAdd("lint.findings", Result.Diags.diagnostics().size());
  return Result;
}

std::string balign::lintReportJson(const LintResult &Result) {
  std::ostringstream Out;
  Out << "{\"version\":1,\"summary\":{\"errors\":" << Result.Diags.errorCount()
      << ",\"warnings\":" << Result.Diags.warningCount()
      << ",\"notes\":" << Result.Diags.noteCount()
      << ",\"checks\":" << Result.ChecksRun << ",\"profiled\":"
      << (Result.Profiled ? "true" : "false") << "},\"classes\":[";
  for (size_t I = 0; I != Result.ProcClasses.size(); ++I) {
    if (I)
      Out << ",";
    Out << "{\"proc\":\"" << jsonEscaped(Result.ProcNames[I])
        << "\",\"class\":\"" << profileClassName(Result.ProcClasses[I])
        << "\"}";
  }
  Out << "],\"findings\":[";
  const std::vector<Diagnostic> &Diags = Result.Diags.diagnostics();
  for (size_t I = 0; I != Diags.size(); ++I) {
    const Diagnostic &D = Diags[I];
    if (I)
      Out << ",";
    Out << "{\"severity\":\"" << severityName(D.Sev) << "\",\"check\":\""
        << checkIdName(D.Check) << "\",\"proc\":\""
        << jsonEscaped(D.Loc.Proc) << "\"";
    if (D.Loc.Block != InvalidBlock)
      Out << ",\"block\":" << D.Loc.Block;
    if (D.Loc.EdgeTo != InvalidBlock)
      Out << ",\"edge_to\":" << D.Loc.EdgeTo;
    Out << ",\"message\":\"" << jsonEscaped(D.Message) << "\"}";
  }
  Out << "]}";
  return Out.str();
}
