//===- serve/Oneshot.cpp - Shared one-shot request, profile and report ----===//

#include "serve/Oneshot.h"

#include "ir/Dot.h"
#include "profile/Trace.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/Random.h"
#include "support/Table.h"

#include <cstdio>
#include <cstring>
#include <sstream>
#include <string_view>

using namespace balign;

namespace {

bool parseOnErrorPolicy(const std::string &Name, OnErrorPolicy &Out) {
  if (Name == "abort")
    Out = OnErrorPolicy::Abort;
  else if (Name == "fallback")
    Out = OnErrorPolicy::Fallback;
  else if (Name == "skip")
    Out = OnErrorPolicy::Skip;
  else
    return false;
  return true;
}

bool parsePrimaryAligner(const std::string &Name, PrimaryAligner &Out) {
  if (Name == "tsp")
    Out = PrimaryAligner::Tsp;
  else if (Name == "exttsp")
    Out = PrimaryAligner::ExtTsp;
  else
    return false;
  return true;
}

/// Parses the already consumed \p Value of \p Flag (null when it was
/// missing, already reported) with \p Parse; an unknown name prints
/// "error: unknown <flag> '<value>' (want <Want>)".
template <typename T>
bool parseName(const char *Flag, const char *Value,
               bool (*Parse)(const std::string &, T &), T &Out,
               const char *Want) {
  if (!Value)
    return false;
  if (Parse(Value, Out))
    return true;
  std::fprintf(stderr, "error: unknown %s '%s' (want %s)\n", Flag, Value,
               Want);
  return false;
}

/// A seeded, skewed behavior: real branches are biased, not coin flips.
/// Moved verbatim from align_tool — the constants are part of the seeded
/// synthetic-profile contract.
BranchBehavior skewedBehavior(const Procedure &Proc, Rng &R) {
  BranchBehavior Behavior = BranchBehavior::uniform(Proc);
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    std::vector<double> &Probs = Behavior.Probs[B];
    if (Probs.size() == 2) {
      double Bias = 0.70 + 0.28 * R.nextDouble();
      size_t Hot = R.nextIndex(2);
      Probs[Hot] = Bias;
      Probs[1 - Hot] = 1.0 - Bias;
    } else if (Probs.size() > 2) {
      double Sum = 0.0;
      for (double &P : Probs) {
        P = 0.05 + R.nextDouble() * R.nextDouble() * 3.0;
        Sum += P;
      }
      for (double &P : Probs)
        P /= Sum;
    }
  }
  return Behavior;
}

} // namespace

FlagParse balign::parseRequestFlag(int Argc, char **Argv, int &I,
                                   RequestFlags &Flags) {
  AlignRequest &Req = Flags.Request;
  const char *Flag = Argv[I];
  std::string_view Arg = Flag;
  auto value = [&] { return flagValue(Flag, Argc, Argv, I); };
  // Block flags parse into a copy that replaces the request's block only
  // once the value has parsed, so a rejected flag changes nothing.
  ObjectiveBlock Objective = Req.Objective.value_or(ObjectiveBlock());
  BranchEncodingParams Encoding = Req.Encoding.value_or(BranchEncodingParams());
  if (Arg == "--seed") {
    if (!flagUInt(Flag, Argc, Argv, I, Req.Seed))
      return FlagParse::Error;
  } else if (Arg == "--budget") {
    if (!flagUInt(Flag, Argc, Argv, I, Req.Budget))
      return FlagParse::Error;
  } else if (Arg == "--bounds") {
    Req.ComputeBounds = true;
  } else if (Arg == "--on-error" || Arg.starts_with("--on-error=")) {
    const char *V = Arg == "--on-error"
                        ? value()
                        : Flag + std::strlen("--on-error=");
    if (!parseName("--on-error", V, parseOnErrorPolicy, Req.OnError,
                   "abort, fallback, or skip"))
      return FlagParse::Error;
    Flags.OnErrorGiven = true;
  } else if (Arg == "--effort-policy") {
    if (!parseName(Flag, value(), parseEffortPolicy, Req.Effort,
                   "uniform, scaled, or scaled-cold-greedy"))
      return FlagParse::Error;
  } else if (Arg == "--aligner") {
    if (!parseName(Flag, value(), parsePrimaryAligner, Objective.Primary,
                   "tsp or exttsp"))
      return FlagParse::Error;
    Req.Objective = Objective;
  } else if (Arg == "--objective") {
    if (!parseName(Flag, value(), parseObjectiveKind, Objective.Kind,
                   "fallthrough or exttsp"))
      return FlagParse::Error;
    Req.Objective = Objective;
    Flags.ObjectiveGiven = true;
  } else if (Arg == "--exttsp-window") {
    // A zero window would make every jump worthless and a huge one makes
    // the linear decay meaningless; both are almost certainly typos.
    uint64_t Window = 0;
    if (!flagUIntInRange(Flag, Argc, Argv, I, Window, 1, MaxExtTspWindow))
      return FlagParse::Error;
    Objective.ExtTspForwardWindow = Objective.ExtTspBackwardWindow =
        static_cast<uint32_t>(Window);
    Req.Objective = Objective;
  } else if (Arg == "--exttsp-weights") {
    if (!flagDoublePair(Flag, Argc, Argv, I, Objective.ExtTspForwardWeight,
                        Objective.ExtTspBackwardWeight, MaxExtTspWeight))
      return FlagParse::Error;
    Req.Objective = Objective;
  } else if (Arg == "--encoding") {
    if (!parseName(Flag, value(), parseBranchEncoding, Encoding.Encoding,
                   "fixed or short-long"))
      return FlagParse::Error;
    Req.Encoding = Encoding;
  } else if (Arg == "--short-range") {
    // 0 is legal and meaningful: it forces every branch long, the
    // degenerate case the displacement tests pin.
    if (!flagUInt(Flag, Argc, Argv, I, Encoding.ShortBranchRange))
      return FlagParse::Error;
    Req.Encoding = Encoding;
    Flags.ShortRangeGiven = true;
  } else {
    return FlagParse::NotMine;
  }
  return FlagParse::Consumed;
}

void balign::warnIgnoredRequestFlags(const RequestFlags &Flags) {
  ObjectiveBlock Objective = Flags.Request.Objective.value_or(ObjectiveBlock());
  BranchEncodingParams Encoding =
      Flags.Request.Encoding.value_or(BranchEncodingParams());
  if (Flags.ObjectiveGiven && Objective.Primary != PrimaryAligner::ExtTsp)
    std::fprintf(stderr, "warning: --objective only affects --aligner "
                         "exttsp; ignored\n");
  if (Flags.ShortRangeGiven && Encoding.Encoding != BranchEncoding::ShortLong)
    std::fprintf(stderr, "warning: --short-range only affects --encoding "
                         "short-long; ignored\n");
}

const char *balign::requestFlagsHelp() {
  return "  --seed N      root seed of the synthetic profile and the solver "
         "(default 1)\n"
         "  --budget N    branches in the synthetic profile run (default "
         "50000)\n"
         "  --bounds      add the Held-Karp lower-bound column\n"
         "  --on-error P  per-procedure failure policy: abort (default, "
         "exit 2),\n"
         "                fallback (degrade greedy -> original, exit 0), or "
         "skip\n"
         "                (keep the original layout, exit 0)\n"
         "  --effort-policy P  spread solver effort per procedure: uniform "
         "(default),\n"
         "                scaled (kicks follow loop nesting and hotness), "
         "or\n"
         "                scaled-cold-greedy (cold procedures skip the "
         "solver)\n"
         "  --aligner tsp|exttsp  primary aligner: the paper's DTSP solve "
         "(default) or\n"
         "                chain merging on the Ext-TSP locality objective\n"
         "  --objective O fallthrough|exttsp: what the exttsp aligner "
         "maximizes\n"
         "                (default exttsp)\n"
         "  --exttsp-window N  Ext-TSP forward/backward window in bytes, "
         "in\n"
         "                [1, 1048576] (defaults 1024 forward / 640 "
         "backward)\n"
         "  --exttsp-weights F,B  Ext-TSP forward,backward jump weights "
         "as\n"
         "                decimals in [0, 1024] (default 0.1,0.1)\n"
         "  --encoding E  branch encoding: fixed (default; every branch is "
         "one\n"
         "                instruction) or short-long (branches beyond the "
         "short\n"
         "                range grow and are re-priced by the displacement "
         "fixpoint)\n"
         "  --short-range N  short-form branch reach in bytes under "
         "--encoding\n"
         "                short-long (default 32768; 0 forces every branch "
         "long)\n";
}

void balign::applyAlignRequest(const AlignRequest &Req,
                               AlignmentOptions &Options) {
  Options.Solver.Seed = Req.Seed;
  Options.Effort = Req.Effort;
  Options.ComputeBounds = Req.ComputeBounds;
  Options.OnError = Req.OnError;
  // An absent block means that block's defaults, as on the wire, so the
  // request decides every field below whatever the base held. The blocks'
  // parameters live on the machine model, where the cache key absorbs
  // them.
  ObjectiveBlock Objective = Req.Objective.value_or(ObjectiveBlock());
  Options.Primary = Objective.Primary;
  Options.Objective = Objective.Kind;
  static_cast<ExtTspParams &>(Options.Model) = Objective;
  static_cast<BranchEncodingParams &>(Options.Model) =
      Req.Encoding.value_or(BranchEncodingParams());
}

bool balign::parseBatchLine(const std::string &Line, std::string &ProgramFile,
                            std::string &ProfileFile) {
  std::istringstream Fields(Line);
  ProgramFile.clear();
  ProfileFile.clear();
  // The first field that starts with '#' ends the line's fields.
  std::string Field;
  for (std::string *Out : {&ProgramFile, &ProfileFile}) {
    if (!(Fields >> Field) || Field[0] == '#')
      break;
    *Out = Field;
  }
  return !ProgramFile.empty();
}

ProcedureProfile balign::synthesizeProcedureProfile(const Procedure &Proc,
                                                    size_t ProcIndex,
                                                    uint64_t Seed,
                                                    uint64_t Budget,
                                                    const Deadline *Limit) {
  Rng BehaviorRng(Seed * 7919 + ProcIndex);
  BranchBehavior Behavior = skewedBehavior(Proc, BehaviorRng);
  Rng WalkRng(Seed * 1000003 + ProcIndex);
  return walkProfile(Proc, Behavior, WalkRng, Budget, /*Trace=*/nullptr,
                     Limit);
}

ProgramProfile balign::synthesizeProfile(const Program &Prog, uint64_t Seed,
                                         uint64_t Budget,
                                         const Deadline *Limit) {
  ProgramProfile Counts;
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Counts.Procs.push_back(
        synthesizeProcedureProfile(Prog.proc(P), P, Seed, Budget, Limit));
  return Counts;
}

std::string balign::renderAlignmentReport(const Program &Prog,
                                          const ProgramProfile &Counts,
                                          const ProgramAlignment &Result,
                                          bool ComputeBounds, bool EmitDot,
                                          const char *PrimaryName) {
  TextTable Report;
  Report.addColumn("procedure");
  Report.addColumn("blocks", TextTable::AlignKind::Right);
  Report.addColumn("branches", TextTable::AlignKind::Right);
  Report.addColumn("original", TextTable::AlignKind::Right);
  Report.addColumn("greedy", TextTable::AlignKind::Right);
  Report.addColumn(PrimaryName, TextTable::AlignKind::Right);
  Report.addColumn("removed", TextTable::AlignKind::Right);
  if (ComputeBounds)
    Report.addColumn("hk-bound", TextTable::AlignKind::Right);

  std::string Out;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    const Procedure &Proc = Prog.proc(P);
    const ProcedureProfile &Profile = Counts.Procs[P];
    const ProcedureAlignment &PA = Result.Procs[P];
    std::vector<std::string> Row = {
        Proc.getName(),
        std::to_string(Proc.numBlocks()),
        formatCount(Profile.executedBranches(Proc)),
        std::to_string(PA.OriginalPenalty),
        std::to_string(PA.GreedyPenalty),
        std::to_string(PA.TspPenalty),
        PA.OriginalPenalty > 0
            ? formatPercent(1.0 - static_cast<double>(PA.TspPenalty) /
                                      static_cast<double>(PA.OriginalPenalty))
            : "0%"};
    if (ComputeBounds)
      Row.push_back(formatFixed(PA.Bounds.HeldKarp, 1));
    Report.addRow(std::move(Row));

    Out += "proc " + Proc.getName() + " layout:";
    for (BlockId Id : PA.TspLayout.Order) {
      Out += " ";
      Out += Proc.blockName(Id);
    }
    Out += "\n";
    if (EmitDot)
      Out += printDot(Proc, &Profile.EdgeCounts);
  }
  Out += "\n";
  Out += Report.render();
  return Out;
}
