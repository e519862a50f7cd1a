//===- examples/align_tool.cpp - Command-line branch aligner ----------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Reads a program in the textual CFG format, profiles it with a seeded
// synthetic run, aligns every procedure through alignProgram, and prints
// the aligned block orders plus a per-procedure penalty report with the
// original, greedy and primary-aligner layouts side by side.
//
// Usage:
//   align_tool <program.cfg> [request flags] [--threads N] [--dot]
//              [--verify[=quick|full|none]]
//              [--profile FILE] [--emit-profile FILE]
//              [--cache DIR] [--cache-stats] [--batch FILE]
//              [--time-budget MS] [--deadline MS] [--checkpoint FILE]
//              [--trace FILE] [--metrics] [--metrics-json FILE]
//              [--lint[=warn|err]] [--lint-json FILE]
//              [--serve SOCK|-] [--serve-queue N] [--drain-timeout MS]
//
// The request flags (--seed --budget --bounds --on-error --effort-policy
// --aligner tsp|exttsp --objective --exttsp-window --exttsp-weights
// --encoding --short-range) are shared with balign_client: serve/Oneshot.h
// parses them, maps them onto AlignmentOptions and renders the report for
// this tool and for the server alike, so a one-shot run prints exactly
// the bytes a served request returns.
//
// With no file argument a built-in demo program is used, so the tool is
// runnable out of the box.
//
// --serve runs a long-lived server (serve/Server.h) that stops one way,
// on a socket and on stdin/stdout (--serve -) alike: a shutdown request
// (balign_client --shutdown) and a first SIGTERM/SIGINT begin the same
// drain, which closes idle connections and lets in-flight requests
// finish under --drain-timeout; a second signal or the expired timeout
// forces it (exit 4).
//
// --cache DIR persists per-procedure alignment results under DIR keyed
// by a content fingerprint of their inputs; a second run over unchanged
// inputs replays them without invoking the solver. --batch FILE aligns
// many programs (one "prog.cfg [profile.prof]" per line, blank lines
// skipped, a field that starts with '#' commenting out the rest of its
// line: the grammar balign_client --batch shares) through one shared
// cache session. --cache-stats prints the hit/miss counters to stderr,
// keeping stdout byte-comparable between cold and warm runs.
//
// --verify runs the pipeline under the balign-verify analyses, with
// bounds always computed so the bound checks have bounds to check, and
// prints one summary line; the report then renders the alignment that
// run verified with the request's options, so it matches an unverified
// run.
//
// The balign-shield flags (--on-error, --time-budget, --deadline) add a
// stderr report of degraded procedures. Exit-code contract:
//
//   0  success (including runs that degraded procedures under
//      --on-error=fallback/skip — degradations are reported on stderr)
//   1  usage error, unreadable/unparsable input, --verify errors, or
//      error-severity lint findings under --lint / --lint=err
//   2  alignment aborted: a procedure failed under --on-error=abort
//      (the default policy)
//   3  --batch finished, but some entries failed and were skipped past
//      (including entries failing --lint=err)
//   4  --serve shut down by a forced drain: a second SIGTERM/SIGINT or
//      a --drain-timeout expired after a signal or a shutdown request
//      abandoned in-flight requests (the cache session still flushed)
//
// --lint runs the balign-lint static CFG/profile checks before aligning.
// All lint output goes to stderr (and --lint-json FILE), so stdout stays
// byte-identical with unlinted runs. --lint=warn reports without gating;
// --lint (or --lint=err) fails on error-severity findings — exit 1 for a
// single program, a counted failure (exit 3) per batch entry, with the
// rest of the batch still processed. --effort-policy feeds the same
// static analyses forward into per-procedure solver effort.
//
//===--------------------------------------------------------------------===//

#include "analysis/PipelineVerifier.h"
#include "cache/Store.h"
#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "profile/Trace.h"
#include "robust/Journal.h"
#include "serve/Oneshot.h"
#include "serve/Server.h"
#include "static/Lint.h"
#include "support/Flags.h"
#include "support/Format.h"
#include "support/ThreadPool.h"
#include "trace/Scope.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <set>
#include <string>

using namespace balign;

namespace {

const char *DemoProgram = R"(program demo
proc tokenize {
  entry:  size 4 jump -> header
  header: size 2 cond -> fill scan
  fill:   size 8 jump -> scan
  scan:   size 3 cond -> header done
  done:   size 2 ret
}
proc dispatch {
  entry:  size 3 jump -> loop
  loop:   size 2 cond -> op exit
  op:     size 2 multi -> add sub mul
  add:    size 4 jump -> loop
  sub:    size 4 jump -> loop
  mul:    size 9 jump -> loop
  exit:   size 1 ret
}
)";

/// What --lint gates on.
enum class LintMode : uint8_t {
  Off,  ///< Lint does not run (unless --lint-json asks for the report).
  Warn, ///< Report findings on stderr; never changes the exit code.
  Err,  ///< Error-severity findings fail the run / the batch entry.
};

struct ToolOptions {
  std::string File;
  /// The result-affecting flags, shared with balign_client and mapped
  /// onto AlignmentOptions exactly as a served request is.
  RequestFlags Flags;
  std::string FirstRequestFlag; ///< As typed; empty when none was given.
  std::string ProfileFile;     ///< Read counts instead of simulating.
  std::string EmitProfileFile; ///< Dump the counts used.
  std::string CacheDir;        ///< Non-empty enables the disk cache.
  std::string BatchFile;       ///< Non-empty selects batch mode.
  bool CacheStats = false;     ///< Print cache counters to stderr.
  unsigned Threads = 1; ///< Pipeline workers; 0 = hardware concurrency.
  bool EmitDot = false;
  VerifyLevel Verify = VerifyLevel::None;

  // balign-shield flags (--on-error is a request flag).
  uint64_t TimeBudgetMs = 0;   ///< --time-budget: per-procedure budget.
  uint64_t DeadlineMs = 0;     ///< --deadline: whole-run budget.
  std::string CheckpointFile;  ///< --checkpoint: batch resume journal.

  // balign-scope flags. All trace output goes to files or stderr, so
  // stdout stays byte-identical with untraced runs.
  std::string TraceFile;       ///< --trace: Chrome trace_event JSON.
  std::string MetricsJsonFile; ///< --metrics-json: machine counters.
  bool Metrics = false;        ///< --metrics: text summary on stderr.

  // balign-lint flags. Lint output goes to stderr and --lint-json only.
  LintMode Lint = LintMode::Off;
  std::string LintJsonFile; ///< --lint-json: JSON report (implies lint).

  // balign-serve flags.
  std::string ServePath;    ///< --serve: socket path, or "-" for stdio.
  uint64_t ServeQueue = 0;  ///< --serve-queue: align budget (0 = inf).
  uint64_t DrainTimeoutMs = 5000; ///< --drain-timeout: graceful budget.

  /// True when any shield flag was given; enables the stderr shield
  /// report.
  bool shieldActive() const {
    return Flags.OnErrorGiven || TimeBudgetMs != 0 || DeadlineMs != 0;
  }

  /// True when any balign-scope flag was given; installs the session.
  bool traceActive() const {
    return !TraceFile.empty() || !MetricsJsonFile.empty() || Metrics;
  }

  /// True when the lint checks should run at all.
  bool lintActive() const {
    return Lint != LintMode::Off || !LintJsonFile.empty();
  }
};

bool parseArgs(int Argc, char **Argv, ToolOptions &Options) {
  for (int I = 1; I != Argc; ++I) {
    std::string Arg = Argv[I];
    auto needValue = [&](const char *Flag) -> const char * {
      return flagValue(Flag, Argc, Argv, I);
    };
    // Strict numeric parsing: "12x", "", " 12", "+12", and out-of-range
    // values are errors, never silent truncations.
    auto needInt = [&](const char *Flag, uint64_t &Out,
                       uint64_t Max = UINT64_MAX) -> bool {
      return flagUInt(Flag, Argc, Argv, I, Out, Max);
    };
    FlagParse Shared = parseRequestFlag(Argc, Argv, I, Options.Flags);
    if (Shared == FlagParse::Error)
      return false;
    if (Shared == FlagParse::Consumed) {
      if (Options.FirstRequestFlag.empty())
        Options.FirstRequestFlag = Arg;
      continue;
    }
    if (Arg == "--threads") {
      uint64_t N = 0;
      if (!needInt("--threads", N, MaxToolThreads))
        return false;
      Options.Threads = static_cast<unsigned>(N);
    } else if (Arg == "--profile") {
      const char *V = needValue("--profile");
      if (!V)
        return false;
      Options.ProfileFile = V;
    } else if (Arg == "--emit-profile") {
      const char *V = needValue("--emit-profile");
      if (!V)
        return false;
      Options.EmitProfileFile = V;
    } else if (Arg == "--cache") {
      const char *V = needValue("--cache");
      if (!V)
        return false;
      Options.CacheDir = V;
    } else if (Arg.rfind("--cache=", 0) == 0) {
      Options.CacheDir = Arg.substr(std::strlen("--cache="));
      if (Options.CacheDir.empty()) {
        std::fprintf(stderr, "error: --cache= wants a directory\n");
        return false;
      }
    } else if (Arg == "--cache-stats") {
      Options.CacheStats = true;
    } else if (Arg == "--batch") {
      const char *V = needValue("--batch");
      if (!V)
        return false;
      Options.BatchFile = V;
    } else if (Arg == "--time-budget") {
      if (!needInt("--time-budget", Options.TimeBudgetMs))
        return false;
    } else if (Arg == "--deadline") {
      if (!needInt("--deadline", Options.DeadlineMs))
        return false;
    } else if (Arg == "--checkpoint") {
      const char *V = needValue("--checkpoint");
      if (!V)
        return false;
      Options.CheckpointFile = V;
    } else if (Arg == "--trace") {
      const char *V = needValue("--trace");
      if (!V)
        return false;
      Options.TraceFile = V;
    } else if (Arg == "--metrics-json") {
      const char *V = needValue("--metrics-json");
      if (!V)
        return false;
      Options.MetricsJsonFile = V;
    } else if (Arg == "--metrics") {
      Options.Metrics = true;
    } else if (Arg == "--lint" || Arg == "--lint=err") {
      Options.Lint = LintMode::Err;
    } else if (Arg == "--lint=warn") {
      Options.Lint = LintMode::Warn;
    } else if (Arg.rfind("--lint=", 0) == 0) {
      std::fprintf(stderr, "error: unknown lint mode '%s' "
                   "(want warn or err)\n",
                   Arg.c_str() + std::strlen("--lint="));
      return false;
    } else if (Arg == "--lint-json") {
      const char *V = needValue("--lint-json");
      if (!V)
        return false;
      Options.LintJsonFile = V;
    } else if (Arg == "--serve") {
      const char *V = needValue("--serve");
      if (!V)
        return false;
      Options.ServePath = V;
    } else if (Arg.rfind("--serve=", 0) == 0) {
      Options.ServePath = Arg.substr(std::strlen("--serve="));
      if (Options.ServePath.empty()) {
        std::fprintf(stderr, "error: --serve= wants a socket path "
                     "(or - for stdio)\n");
        return false;
      }
    } else if (Arg == "--serve-queue") {
      if (!needInt("--serve-queue", Options.ServeQueue))
        return false;
    } else if (Arg == "--drain-timeout") {
      if (!needInt("--drain-timeout", Options.DrainTimeoutMs))
        return false;
    } else if (Arg == "--dot") {
      Options.EmitDot = true;
    } else if (Arg == "--verify" || Arg == "--verify=full") {
      Options.Verify = VerifyLevel::Full;
    } else if (Arg == "--verify=quick") {
      Options.Verify = VerifyLevel::Quick;
    } else if (Arg == "--verify=none") {
      Options.Verify = VerifyLevel::None;
    } else if (Arg.rfind("--verify=", 0) == 0) {
      std::fprintf(stderr, "error: unknown verify level '%s' "
                   "(want quick, full, or none)\n",
                   Arg.c_str() + std::strlen("--verify="));
      return false;
    } else if (Arg == "--help" || Arg == "-h") {
      std::printf("usage: align_tool [file.cfg] [request flags] "
                  "[--threads N] [--dot]\n"
                  "                  [--verify[=quick|full|none]] "
                  "[--profile FILE] [--emit-profile FILE]\n"
                  "                  [--cache DIR] [--cache-stats] "
                  "[--batch FILE]\n"
                  "Aligns every procedure through the alignment pipeline "
                  "and prints its layout\n"
                  "and its original, greedy and primary-aligner penalties; "
                  "stdout equals what\n"
                  "balign_client gets from a server for the same file and "
                  "request flags.\n"
                  "request flags (shared with balign_client):\n%s"
                  "tool flags:\n",
                  requestFlagsHelp());
      std::printf("  --verify[=L]  first run the balign-verify analyses "
                  "(quick or full, bounds\n"
                  "                always on) and print one summary line; "
                  "exit 1 on errors\n"
                  "  --threads N   pipeline worker threads, 0 to 1024 "
                  "(0 = all hardware threads,\n"
                  "                1 = serial; results are identical at "
                  "every setting)\n"
                  "  --dot         after each layout line, print the "
                  "procedure's CFG as a dot\n"
                  "                digraph labelled with its edge counts\n"
                  "  --profile FILE  read the edge counts from FILE "
                  "(.prof format) instead of\n"
                  "                walking a seeded synthetic profile\n"
                  "  --emit-profile FILE  write the edge counts the run "
                  "aligns with to FILE\n"
                  "  --cache DIR   persist per-procedure results under "
                  "DIR; unchanged inputs are\n"
                  "                replayed without re-solving "
                  "(bit-identical, validated hits)\n"
                  "  --cache-stats print hit/miss counters to stderr "
                  "after the run\n"
                  "  --batch FILE  align every program listed in FILE "
                  "('prog.cfg [profile.prof]'\n"
                  "                per line; a field starting with '#' "
                  "comments out the rest of\n"
                  "                its line) through one shared cache "
                  "session;\n"
                  "                malformed entries are skipped with an "
                  "error line (exit 3)\n"
                  "  --time-budget MS  per-procedure solver budget; a "
                  "trip is handled per\n"
                  "                --on-error (tripped results are never "
                  "cached)\n"
                  "  --deadline MS whole-run budget; once expired, "
                  "remaining procedures\n"
                  "                degrade per --on-error\n"
                  "  --checkpoint FILE  batch resume journal: completed "
                  "programs are appended\n"
                  "                and skipped on the next run\n"
                  "  --trace FILE  write a Chrome trace_event JSON of "
                  "every pipeline stage\n"
                  "                (load in chrome://tracing or Perfetto); "
                  "stdout is unchanged\n"
                  "  --metrics     print the balign-scope counter/gauge "
                  "summary to stderr\n"
                  "  --metrics-json FILE  write the counters and gauges "
                  "as machine JSON\n"
                  "  --lint[=warn|err]  run the balign-lint static "
                  "CFG/profile checks before\n"
                  "                aligning (stderr only): err (the "
                  "default) fails the run on\n"
                  "                error-severity findings, warn only "
                  "reports\n"
                  "  --lint-json FILE  write the lint report as JSON "
                  "(a per-entry array in\n"
                  "                --batch mode); implies --lint=warn "
                  "unless --lint was given\n"
                  "  --serve PATH  run as a persistent alignment server "
                  "on unix socket PATH\n"
                  "                (or - for stdin/stdout): clients send "
                  "length-prefixed align\n"
                  "                requests (see balign_client) through "
                  "one shared cache\n"
                  "                session; --threads sizes the request "
                  "pool and --deadline\n"
                  "                sets the default per-request deadline; "
                  "request flags are\n"
                  "                refused (each request carries its own); "
                  "both modes drain on\n"
                  "                SIGTERM/SIGINT like a shutdown request\n"
                  "  --serve-queue N  answer align requests beyond N "
                  "in flight with a\n"
                  "                structured rejection instead of "
                  "queueing (0 = no limit)\n"
                  "  --drain-timeout MS  on SIGTERM/SIGINT or a shutdown "
                  "request, close idle\n"
                  "                connections and wait MS for in-flight "
                  "requests before\n"
                  "                forcing shutdown (default 5000), "
                  "socket or -; a second\n"
                  "                signal forces it immediately\n"
                  "exit codes: 0 success, 1 usage/input/verify/lint "
                  "error, 2 aborted under\n"
                  "--on-error=abort, 3 batch finished with failed "
                  "entries, 4 a serve drain\n"
                  "was forced (in-flight work abandoned; the cache was "
                  "still flushed)\n");
      return false;
    } else if (!Arg.empty() && Arg[0] != '-') {
      Options.File = Arg;
    } else {
      std::fprintf(stderr, "error: unknown flag '%s'\n", Arg.c_str());
      return false;
    }
  }
  return true;
}

std::optional<Program> loadProgram(const std::string &File,
                                   bool AnnounceDemo) {
  std::string Text;
  if (File.empty()) {
    Text = DemoProgram;
    if (AnnounceDemo)
      std::printf("(no input file given; using the built-in demo "
                  "program)\n");
  } else if (!readFileBytes(File, Text)) {
    std::fprintf(stderr, "error: cannot open '%s'\n", File.c_str());
    return std::nullopt;
  }
  std::string Error;
  std::optional<Program> Prog = parseProgram(Text, &Error);
  if (!Prog)
    std::fprintf(stderr, "error: parse failed: %s\n",
                 escapeControlBytes(Error).c_str());
  return Prog;
}

/// Reads \p ProfileFile if given, otherwise simulates a seeded run that
/// polls \p Limit (the --deadline, or null) once per walk invocation.
std::optional<ProgramProfile> obtainProfile(const Program &Prog,
                                            const std::string &ProfileFile,
                                            const ToolOptions &Options,
                                            const Deadline *Limit) {
  if (!ProfileFile.empty()) {
    std::string Text;
    if (!readFileBytes(ProfileFile, Text)) {
      std::fprintf(stderr, "error: cannot open '%s'\n", ProfileFile.c_str());
      return std::nullopt;
    }
    std::string Error;
    std::optional<ProgramProfile> Parsed =
        parseProgramProfile(Prog, Text, &Error);
    if (!Parsed)
      std::fprintf(stderr, "error: profile parse failed: %s\n",
                   escapeControlBytes(Error).c_str());
    return Parsed;
  }
  // The seeded synthetic run is shared with balign-serve (the server
  // must reproduce it bit-for-bit), so it lives in serve/Oneshot.h.
  try {
    return synthesizeProfile(Prog, Options.Flags.Request.Seed,
                             Options.Flags.Request.Budget, Limit);
  } catch (const ProfileWalkError &E) {
    std::fprintf(stderr, "error: %s\n", E.what());
    return std::nullopt;
  }
}

/// Runs --verify over one program and returns the alignment it
/// verified; nullopt when errors were found. The verify run always
/// computes bounds, so the Held-Karp and assignment bound checks have
/// bounds to check.
std::optional<ProgramAlignment> runVerified(const Program &Prog,
                                            const ProgramProfile &Counts,
                                            const ToolOptions &Options,
                                            AlignmentOptions AlignOptions) {
  AlignOptions.ComputeBounds = true;
  DiagnosticEngine Diags;
  Diags.setEchoToStderr(true);
  VerifyOptions Verify;
  Verify.Level = Options.Verify;
  ProgramAlignment Result =
      alignProgramVerified(Prog, Counts, AlignOptions, Diags, Verify);
  std::printf("verify (%s): %s\n",
              Options.Verify == VerifyLevel::Full ? "full" : "quick",
              Diags.summary().c_str());
  if (Diags.hasErrors())
    return std::nullopt;
  return Result;
}

/// Runs the balign-lint checks over one program, rendering every finding
/// plus a per-program summary line to stderr (stdout stays byte-identical
/// with unlinted runs). \p Label names the program in the summary.
LintResult runLintChecks(const Program &Prog, const ProgramProfile &Counts,
                         const AlignmentOptions &AlignOptions,
                         const std::string &Label) {
  LintResult Result = lintProgram(Prog, &Counts, &AlignOptions.Model);
  for (const Diagnostic &D : Result.Diags.diagnostics())
    std::fprintf(stderr, "%s\n", D.render().c_str());
  std::fprintf(stderr,
               "lint: %s: %s (%zu checks, worst profile class: %s)\n",
               Label.c_str(), Result.Diags.summary().c_str(),
               Result.ChecksRun, profileClassName(Result.worstClass()));
  return Result;
}

/// Writes \p Contents to \p Path, or reports "error: cannot write" and
/// returns false. A full device may fail only at close(), so check after.
bool writeTextFile(const std::string &Path, const std::string &Contents) {
  std::ofstream Out(Path, std::ios::binary);
  if (Out) {
    Out << Contents;
    Out.close();
  }
  if (!Out)
    std::fprintf(stderr, "error: cannot write '%s'\n", Path.c_str());
  return static_cast<bool>(Out);
}

/// The balign-shield stderr report: one line per degraded procedure
/// plus the greppable counter summary. stderr only, so stdout stays
/// byte-comparable with unshielded runs.
void reportShieldOutcome(const ProgramAlignment &Result, size_t NumProcs) {
  for (const ProcedureFailure &F : Result.Failures.Failures)
    std::fprintf(stderr, "shield: %s\n", F.str().c_str());
  std::fprintf(stderr, "shield: %s\n",
               Result.Failures.summary(NumProcs).c_str());
}

/// Aligns one program, a single input or a batch entry alike, once:
/// through the verify run when asked (its fresh results also warm the
/// cache), and the report renders the alignment that run verified with
/// the request's options. \p AnySkipped (when given) reports whether
/// any procedure kept its original layout under --on-error skip — the
/// checkpoint journal must not record such a program as done, or a
/// resumed batch would never revisit the skipped work.
bool alignOneProgram(const Program &Prog, const ProgramProfile &Counts,
                     const ToolOptions &Options,
                     const AlignmentOptions &AlignOptions,
                     bool *AnySkipped = nullptr) {
  std::optional<ProgramAlignment> Result;
  if (Options.Verify == VerifyLevel::None)
    Result = alignProgram(Prog, Counts, AlignOptions);
  else
    Result = runVerified(Prog, Counts, Options, AlignOptions);
  if (!Result)
    return false;
  // Shared with balign-serve: an AlignOk response body must be
  // byte-identical to this stdout, so both render through one function.
  std::string Report = renderAlignmentReport(
      Prog, Counts, *Result, AlignOptions.ComputeBounds, Options.EmitDot,
      primaryAlignerName(AlignOptions.Primary));
  std::fwrite(Report.data(), 1, Report.size(), stdout);
  if (Options.shieldActive())
    reportShieldOutcome(*Result, Prog.numProcedures());
  if (AnySkipped)
    *AnySkipped = Result->Failures.countSkipped() != 0;
  return true;
}

int runBatch(const ToolOptions &Options,
             const AlignmentOptions &AlignOptions) {
  std::ifstream In(Options.BatchFile);
  if (!In) {
    std::fprintf(stderr, "error: cannot open batch file '%s'\n",
                 Options.BatchFile.c_str());
    return 1;
  }

  // Checkpointed resume: programs recorded by a previous run are skipped
  // up front, and every completed program is appended as it finishes, so
  // a killed batch restarts where it left off. The file is deliberately
  // kept on success — rerunning a finished batch is then a cheap no-op,
  // and removing it is the explicit way to force a full rerun. The
  // journal is checksummed and fsync'd per record: a kill -9 (or power
  // loss) mid-append leaves at most one torn tail record, which open()
  // salvages by truncation — never a half-recorded program counted as
  // done. Pre-sentinel plain-line checkpoints are migrated in place; a
  // binary file (a cache store, say) is refused and left untouched.
  AppendJournal Checkpoint;
  std::set<std::string> Done;
  if (!Options.CheckpointFile.empty()) {
    std::string JournalError;
    if (!Checkpoint.open(Options.CheckpointFile, &JournalError)) {
      std::fprintf(stderr, "error: cannot open checkpoint '%s': %s\n",
                   Options.CheckpointFile.c_str(), JournalError.c_str());
      return 1;
    }
    const JournalStats &Stats = Checkpoint.stats();
    if (Stats.RecoveredTail || Stats.MigratedLegacy)
      std::fprintf(stderr, "note: checkpoint '%s' recovered (%s)\n",
                   Options.CheckpointFile.c_str(),
                   Stats.summary().c_str());
    // Duplicate records (a crash between append and the next run's
    // resume check) are harmless: the set dedupes them.
    for (const std::string &Record : Checkpoint.records())
      if (!Record.empty())
        Done.insert(Record);
  }

  size_t Printed = 0, Attempted = 0, Failed = 0, Resumed = 0;
  // balign-lint batch bookkeeping: every entry's findings are surfaced
  // in the end-of-batch summary (not just the first bad one), the JSON
  // report becomes a per-entry array, and under --lint (=err) an entry
  // with error findings is a counted failure the batch continues past.
  size_t Linted = 0, LintDirty = 0;
  std::string LintJson = "[";
  std::vector<std::string> LintSummaries;
  std::string Line;
  while (std::getline(In, Line)) {
    std::string ProgramFile, ProfileFile;
    if (!parseBatchLine(Line, ProgramFile, ProfileFile))
      continue;
    if (Done.count(ProgramFile)) {
      ++Resumed;
      std::fprintf(stderr, "note: skipping '%s' (already in checkpoint "
                   "'%s')\n",
                   ProgramFile.c_str(), Options.CheckpointFile.c_str());
      continue;
    }
    ++Attempted;
    // A malformed entry must not sink the rest of the batch: report it,
    // count it, move on (the batch exits 3 instead of 0).
    std::optional<Program> Prog = loadProgram(ProgramFile, false);
    if (!Prog) {
      ++Failed;
      std::fprintf(stderr, "error: batch entry '%s': unreadable or "
                   "unparsable program; continuing\n",
                   ProgramFile.c_str());
      continue;
    }
    std::optional<ProgramProfile> Counts =
        obtainProfile(*Prog, ProfileFile, Options, AlignOptions.RunDeadline);
    if (!Counts) {
      ++Failed;
      std::fprintf(stderr, "error: batch entry '%s': bad profile '%s'; "
                   "continuing\n",
                   ProgramFile.c_str(),
                   ProfileFile.empty() ? "<synthetic>" : ProfileFile.c_str());
      continue;
    }
    if (Options.lintActive()) {
      LintResult LR = runLintChecks(*Prog, *Counts, AlignOptions,
                                    ProgramFile);
      ++Linted;
      if (!LR.Diags.diagnostics().empty())
        ++LintDirty;
      LintSummaries.push_back(ProgramFile + ": " + LR.Diags.summary() +
                              " (worst profile class: " +
                              profileClassName(LR.worstClass()) + ")");
      if (Linted > 1)
        LintJson += ",";
      LintJson += "{\"file\":\"" + jsonEscaped(ProgramFile) +
                  "\",\"report\":" + lintReportJson(LR) + "}";
      if (Options.Lint == LintMode::Err && LR.failedAt(Severity::Error)) {
        ++Failed;
        std::fprintf(stderr, "error: batch entry '%s': lint found "
                     "errors; continuing\n",
                     ProgramFile.c_str());
        continue;
      }
    }
    if (Printed++)
      std::printf("\n");
    std::printf("== %s ==\n", ProgramFile.c_str());
    bool AnySkipped = false;
    if (!alignOneProgram(*Prog, *Counts, Options, AlignOptions,
                         &AnySkipped)) {
      ++Failed;
      std::fprintf(stderr, "error: batch entry '%s': verification "
                   "failed; continuing\n",
                   ProgramFile.c_str());
      continue;
    }
    if (Checkpoint.isOpen()) {
      // Under --on-error skip a program whose procedures were skipped
      // is *not* done: journaling it would make the resume skip work
      // that was never performed.
      if (AnySkipped)
        std::fprintf(stderr, "note: '%s' had skipped procedures; not "
                     "checkpointing it as done\n",
                     ProgramFile.c_str());
      else {
        std::string AppendError;
        if (!Checkpoint.append(ProgramFile, &AppendError))
          std::fprintf(stderr, "warning: cannot append to checkpoint "
                       "'%s': %s\n",
                       Options.CheckpointFile.c_str(),
                       AppendError.c_str());
      }
    }
  }
  if (Attempted == 0 && Resumed == 0)
    std::fprintf(stderr, "warning: batch file '%s' lists no programs\n",
                 Options.BatchFile.c_str());
  if (Options.lintActive()) {
    std::fprintf(stderr, "lint summary: %zu of %zu linted entries had "
                 "findings\n",
                 LintDirty, Linted);
    for (const std::string &S : LintSummaries)
      std::fprintf(stderr, "lint summary:   %s\n", S.c_str());
    LintJson += "]";
    if (!Options.LintJsonFile.empty() &&
        !writeTextFile(Options.LintJsonFile, LintJson + "\n"))
      return 1;
  }
  if (Failed) {
    std::fprintf(stderr, "error: %zu of %zu batch entries failed\n",
                 Failed, Attempted);
    return 3;
  }
  return 0;
}

/// Aligns the --batch list, or else the single input (the demo program
/// when none is given), through alignOneProgram.
int runAlignment(const ToolOptions &Options,
                 const AlignmentOptions &AlignOptions) {
  if (!Options.BatchFile.empty()) {
    if (!Options.File.empty())
      std::fprintf(stderr,
                   "warning: positional input '%s' is ignored in --batch "
                   "mode\n",
                   Options.File.c_str());
    return runBatch(Options, AlignOptions);
  }
  std::optional<Program> Prog = loadProgram(Options.File, true);
  if (!Prog)
    return 1;
  std::optional<ProgramProfile> Counts =
      obtainProfile(*Prog, Options.ProfileFile, Options,
                    AlignOptions.RunDeadline);
  if (!Counts)
    return 1;
  if (!Options.EmitProfileFile.empty()) {
    if (!writeTextFile(Options.EmitProfileFile,
                       printProgramProfile(*Prog, *Counts)))
      return 1;
    std::printf("wrote profile to %s\n", Options.EmitProfileFile.c_str());
  }

  if (Options.lintActive()) {
    LintResult LR = runLintChecks(
        *Prog, *Counts, AlignOptions,
        Options.File.empty() ? std::string("<demo>") : Options.File);
    if (!Options.LintJsonFile.empty() &&
        !writeTextFile(Options.LintJsonFile, lintReportJson(LR) + "\n"))
      return 1;
    if (Options.Lint == LintMode::Err && LR.failedAt(Severity::Error)) {
      std::fprintf(stderr, "error: lint found errors; not aligning "
                   "(use --lint=warn to report without gating)\n");
      return 1;
    }
  }
  return alignOneProgram(*Prog, *Counts, Options, AlignOptions) ? 0 : 1;
}

/// Ends the run's tracing when a trace flag installed \p Scope: checks
/// the recorded spans, then writes the --trace and --metrics-json files
/// and prints --metrics. Returns \p Exit, or 1 when a successful run's
/// trace fails its check or a write fails.
int finishTrace(TraceSession &Scope, const ToolOptions &Options, int Exit) {
  if (!Options.traceActive())
    return Exit;
  Scope.uninstall();
  // The trace itself is a verified artifact: a broken span stream
  // would silently invalidate the exporters' nesting and the CI
  // determinism diff, so it fails the run like any verify error.
  DiagnosticEngine Diags;
  Diags.setEchoToStderr(true);
  if (checkTrace(Scope, Diags) != 0 && Exit == 0)
    Exit = 1;
  if (!Options.TraceFile.empty() &&
      !writeTextFile(Options.TraceFile, Scope.chromeTraceJson()) && Exit == 0)
    Exit = 1;
  if (!Options.MetricsJsonFile.empty() &&
      !writeTextFile(Options.MetricsJsonFile, Scope.metricsJson()) &&
      Exit == 0)
    Exit = 1;
  if (Options.Metrics)
    std::fprintf(stderr, "%s", Scope.metricsSummary().c_str());
  return Exit;
}

} // namespace

int main(int Argc, char **Argv) {
  ToolOptions Options;
  if (!parseArgs(Argc, Argv, Options))
    return 1;

  // The balign-scope session outlives the whole run (including the
  // cache session's final flush) and exports after everything else has
  // unwound. When no trace flag was given it is never installed, and
  // every probe in the pipeline reduces to one relaxed atomic load.
  TraceSession Scope;
  if (Options.traceActive())
    Scope.install();

  int Exit = 0;
  {
    // Each served request decides its own request options, so a
    // server's would be silently dropped.
    if (!Options.ServePath.empty() && !Options.FirstRequestFlag.empty()) {
      std::fprintf(stderr,
                   "error: %s is a request flag; a server takes request "
                   "flags from each request (give it to balign_client)\n",
                   Options.FirstRequestFlag.c_str());
      return 1;
    }
    warnIgnoredRequestFlags(Options.Flags);
    if (!Options.CheckpointFile.empty() && Options.BatchFile.empty())
      std::fprintf(stderr,
                   "warning: --checkpoint is only meaningful with --batch; "
                   "ignored\n");
    if (!Options.ServePath.empty() && !Options.BatchFile.empty()) {
      std::fprintf(stderr, "error: --serve and --batch are mutually "
                   "exclusive\n");
      return 1;
    }

    // The request flags map onto the options exactly as a served
    // request's do. Some land on the machine model, so this precedes the
    // cache session: fingerprints absorb them.
    AlignmentOptions AlignOptions;
    applyAlignRequest(Options.Flags.Request, AlignOptions);
    AlignOptions.Threads = Options.Threads;
    AlignOptions.ProcBudgetMs = Options.TimeBudgetMs;
    Deadline RunDeadline(Options.DeadlineMs);
    if (Options.DeadlineMs)
      AlignOptions.RunDeadline = &RunDeadline;
    if (!Options.CacheDir.empty()) {
      AlignOptions.Cache = CacheMode::Disk;
      AlignOptions.CachePath = Options.CacheDir;
    } else if (!Options.BatchFile.empty() || !Options.ServePath.empty()) {
      // Batch without a directory still shares an in-process cache, so
      // duplicate procedures across the list are solved once; a server
      // likewise shares one cache across every client it ever talks to.
      AlignOptions.Cache = CacheMode::Memory;
    }
    AlignmentCacheConfig CacheConfig;
    if (!Options.ServePath.empty()) {
      // A long-lived server may never reach the session's destructor
      // flush (kill -9, OOM); losing at most 32 stores bounds the
      // damage without paying a disk write per request.
      CacheConfig.FlushEveryStores = 32;
    }
    CacheSession Cache(AlignOptions, CacheConfig);
    // Declared outside the try so that a forced drain can end the
    // process with the server still standing (below).
    std::optional<AlignServer> Server;

    try {
      if (!Options.ServePath.empty()) {
        // balign-serve: a long-lived server over the shared cache
        // session. --threads sizes the request pool, --serve-queue
        // bounds in-flight aligns, --deadline becomes the default
        // per-request deadline. Requests carry every request option
        // (request flags were refused above).
        if (!Options.File.empty())
          std::fprintf(stderr, "warning: positional input '%s' is "
                       "ignored in --serve mode\n", Options.File.c_str());
        ServeConfig Serve;
        Serve.Threads = Options.Threads;
        Serve.QueueBudget = Options.ServeQueue;
        Serve.DefaultDeadlineMs = Options.DeadlineMs;
        Serve.DrainTimeoutMs = Options.DrainTimeoutMs;
        Serve.CacheStatsFn = [&Cache] { return Cache.stats(); };
        Server.emplace(AlignOptions, Serve);
        // balign-sentinel: SIGTERM/SIGINT, like a shutdown request,
        // begin a graceful drain (in-flight requests finish, cache
        // flushes below); a second signal or an expired --drain-timeout
        // forces it (exit 4).
        Server->installSignalDrain();
        Exit = Options.ServePath == "-"
                   ? Server->serveStdio()
                   : Server->serveUnixSocket(Options.ServePath);
      } else {
        Exit = runAlignment(Options, AlignOptions);
      }
    } catch (const AlignmentAborted &E) {
      // Exit 2 contract: a procedure failure under OnErrorPolicy::Abort
      // (the default policy) aborts alignment.
      std::fprintf(stderr, "error: alignment aborted: %s\n", E.what());
      Exit = 2;
    } catch (const DeadlineExceeded &E) {
      std::fprintf(stderr, "error: alignment aborted: %s\n", E.what());
      Exit = 2;
    }

    if (Options.CacheStats) {
      std::string Error;
      if (!Cache.flush(&Error))
        std::fprintf(stderr, "warning: cache flush failed: %s\n",
                     Error.c_str());
      std::fprintf(stderr, "cache: %s\n", Cache.stats().summary().c_str());
    }

    if (Server && Server->drainForced()) {
      // The drain abandoned in-flight aligns, and destroying the server
      // would wait for them: its pool's destructor runs every queued
      // align and joins the workers. So do what a clean exit does —
      // flush the cache, export the trace — and end the process with
      // the server, and the options and cache its workers read, still
      // standing.
      std::string Error;
      if (!Cache.flush(&Error))
        std::fprintf(stderr, "warning: cache flush failed: %s\n",
                     Error.c_str());
      Exit = finishTrace(Scope, Options, Exit);
      std::fflush(nullptr);
      std::_Exit(Exit);
    }
  } // CacheSession's destructor flush is the last recorded span.

  return finishTrace(Scope, Options, Exit);
}
