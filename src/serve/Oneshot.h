//===- serve/Oneshot.h - Shared one-shot request, profile and report ------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The pieces of align_tool's one-shot behavior that balign-serve must
/// reproduce byte-for-byte: the request flags and their mapping onto
/// AlignmentOptions, synthetic profile generation, and the pipeline
/// report. They live here — linked by the CLI, the client *and* the
/// server — so the byte-identity contract is structural, not copies kept
/// in sync by tests alone.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_ONESHOT_H
#define BALIGN_SERVE_ONESHOT_H

#include "align/Pipeline.h"
#include "profile/Profile.h"
#include "serve/Protocol.h"

#include <cstdint>
#include <string>

namespace balign {

/// The request flags align_tool and balign_client share, parsed into one
/// AlignRequest: --seed --budget --bounds --on-error[=]P --effort-policy
/// --aligner tsp|exttsp --objective --exttsp-window --exttsp-weights
/// --encoding --short-range. The *Given bits record flags whose mere
/// presence matters beyond the value they leave in the request.
struct RequestFlags {
  AlignRequest Request;
  bool OnErrorGiven = false;    ///< align_tool adds its shield report.
  bool ObjectiveGiven = false;  ///< For warnIgnoredRequestFlags.
  bool ShortRangeGiven = false; ///< For warnIgnoredRequestFlags.
};

/// Outcome of parseRequestFlag.
enum class FlagParse : uint8_t {
  NotMine,  ///< Argv[I] is not a request flag; nothing was consumed.
  Consumed, ///< Parsed; I now indexes the flag's last argv slot.
  Error,    ///< Missing value, out of range, or unknown name; a one-line
            ///< "error: ..." is on stderr.
};

/// Parses Argv[I] when it is a request flag, consuming its value through
/// support/Flags.h's strict helpers. Numeric ranges are Protocol.h's,
/// so whatever parses also survives decodeAlignRequest. A block's flags
/// create the block; a rejected flag changes nothing.
FlagParse parseRequestFlag(int Argc, char **Argv, int &I,
                           RequestFlags &Flags);

/// Warns on stderr about given flags the other flags make inert:
/// --objective without --aligner exttsp, --short-range without
/// --encoding short-long.
void warnIgnoredRequestFlags(const RequestFlags &Flags);

/// The --help entries of the request flags, one or more lines each.
const char *requestFlagsHelp();

/// The one AlignRequest -> AlignmentOptions mapping, shared by align_tool
/// and AlignService. It sets every request option: the solver seed,
/// effort policy, bounds and on-error policy; the primary aligner,
/// objective and the model's Ext-TSP parameters from the objective block;
/// the model's branch-encoding parameters from the encoding block, each
/// block assigned whole. An absent block sets that block's defaults,
/// never what \p Options held, so a server's base cannot leak into a
/// request. Every other field of \p Options (threads, cache,
/// budgets, the model's penalty fields) is left alone. Budget and the
/// texts are inputs of synthesizeProfile and the parsers, DeadlineMs is
/// the server's business.
void applyAlignRequest(const AlignRequest &Req, AlignmentOptions &Options);

/// Parses one line of a --batch list, the grammar align_tool and
/// balign_client share: "program [profile]", whitespace-separated, any
/// further field ignored. A field that starts with '#' begins a comment
/// that runs to the end of the line, so "prog.cfg # note" names no
/// profile. Returns false for a blank or comment-only line; otherwise
/// sets \p ProgramFile and \p ProfileFile (empty when the line names no
/// profile).
bool parseBatchLine(const std::string &Line, std::string &ProgramFile,
                    std::string &ProfileFile);

/// One procedure's share of the seeded synthetic run: for the procedure
/// at index \p ProcIndex of its program, a skewed branch behavior seeded
/// Seed*7919+ProcIndex drives a walkProfile walk seeded
/// Seed*1000003+ProcIndex with \p Budget branches. The seed arithmetic
/// is contract — changing it changes every committed expectation
/// downstream. The walk reads \p Proc's terminator kinds and successor
/// lists and nothing else of it (names only in error texts). Throws
/// ProfileWalkError (profile/Trace.h) when the walk cannot return, as in
/// a loop with no exit, and DeadlineExceeded once \p Limit (polled per
/// walk invocation) expires.
ProcedureProfile synthesizeProcedureProfile(const Procedure &Proc,
                                            size_t ProcIndex, uint64_t Seed,
                                            uint64_t Budget,
                                            const Deadline *Limit = nullptr);

/// The seeded synthetic run align_tool performs when no --profile file
/// is given: synthesizeProcedureProfile for every procedure, in program
/// order.
ProgramProfile synthesizeProfile(const Program &Prog, uint64_t Seed,
                                 uint64_t Budget,
                                 const Deadline *Limit = nullptr);

/// Renders the report exactly as align_tool prints it: per-procedure
/// "proc NAME layout: ..." lines (plus dot output under \p EmitDot),
/// then a blank line and the penalty TextTable (with the hk-bound column
/// under \p ComputeBounds). The returned string is the tool's entire
/// stdout for a run over a named file without --verify or
/// --emit-profile.
/// \p PrimaryName labels the primary-aligner column ("tsp" unless the
/// run used PrimaryAligner::ExtTsp); the default keeps every existing
/// caller — and the committed serve golden frames — byte-identical.
std::string renderAlignmentReport(const Program &Prog,
                                  const ProgramProfile &Counts,
                                  const ProgramAlignment &Result,
                                  bool ComputeBounds, bool EmitDot,
                                  const char *PrimaryName = "tsp");

} // namespace balign

#endif // BALIGN_SERVE_ONESHOT_H
