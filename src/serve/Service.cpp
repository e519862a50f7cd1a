//===- serve/Service.cpp - One-request alignment service ------------------===//

#include "serve/Service.h"

#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "profile/Trace.h"
#include "serve/Oneshot.h"

using namespace balign;

Frame AlignService::handleAlign(const std::string &Body) const {
  AlignRequest Req;
  std::string Error;
  if (!decodeAlignRequest(Body, Req, &Error))
    return makeErrorFrame(FrameError::BadRequest, Error);
  return handleAlign(Req);
}

Frame AlignService::handleAlign(const AlignRequest &Req) const {
  // The deadline covers profile synthesis too; without one, nothing polls.
  uint64_t BudgetMs = Req.DeadlineMs ? Req.DeadlineMs
                                     : Config.DefaultDeadlineMs;
  Deadline RequestDeadline(BudgetMs, Config.Clock);
  const Deadline *Limit = BudgetMs ? &RequestDeadline : nullptr;

  std::string Error;
  std::optional<Program> Prog = parseProgram(Req.CfgText, &Error);
  if (!Prog)
    return makeErrorFrame(FrameError::ParseError, Error);

  std::optional<ProgramProfile> Counts;
  if (Req.HasProfile) {
    Counts = parseProgramProfile(*Prog, Req.ProfileText, &Error);
    if (!Counts)
      return makeErrorFrame(FrameError::ProfileError, Error);
  } else {
    try {
      Counts = synthesizeProfile(*Prog, Req.Seed, Req.Budget, Limit);
    } catch (const ProfileWalkError &E) {
      return makeErrorFrame(FrameError::ProfileError, E.what());
    } catch (const DeadlineExceeded &E) {
      return makeErrorFrame(FrameError::Deadline, E.what());
    }
  }

  // The per-request view of the shared base: one pool worker runs the
  // whole request (Threads = 1), the verification hook never applies,
  // and the request decides every request option through the same
  // mapping align_tool uses. CacheImpl rides along from the base — that
  // is the shared warm cache.
  AlignmentOptions Options = Base;
  Options.Threads = 1;
  Options.AfterProcedure = nullptr;
  applyAlignRequest(Req, Options);
  if (Config.Clock)
    Options.Clock = Config.Clock;
  Options.RunDeadline = Limit;

  try {
    ProgramAlignment Result = alignProgram(*Prog, *Counts, Options);
    return makeFrame(FrameType::AlignOk,
                     renderAlignmentReport(*Prog, *Counts, Result,
                                           Req.ComputeBounds,
                                           /*EmitDot=*/false,
                                           primaryAlignerName(Options.Primary)));
  } catch (const AlignmentAborted &E) {
    return makeErrorFrame(FrameError::Aborted, E.what());
  } catch (const DeadlineExceeded &E) {
    return makeErrorFrame(FrameError::Deadline, E.what());
  } catch (const std::exception &E) {
    return makeErrorFrame(FrameError::Internal, E.what());
  }
}
