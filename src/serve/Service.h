//===- serve/Service.h - One-request alignment service --------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The request-scoped half of balign-serve: AlignService turns one
/// decoded Align frame body into one response frame, with every failure
/// mode mapped to a structured FrameError instead of an escaping
/// exception. The server layer (Server.h) owns connections, threads,
/// and admission; the service knows nothing about file descriptors.
///
/// Determinism: handleAlign builds a per-request AlignmentOptions from
/// the shared base — Threads forced to 1 (each request already runs on
/// one pool worker; the repo's thread-count invariance does the rest),
/// the procedure hook stripped, and every request option set from the
/// request through applyAlignRequest in serve/Oneshot.h, whatever the
/// base held — then runs alignProgram and renderAlignmentReport.
/// One-shot align_tool takes exactly that path for every run, so the
/// response body is byte-identical to its stdout for the same inputs and
/// request flags (no flags included), at every server thread count, hit
/// or miss.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_SERVICE_H
#define BALIGN_SERVE_SERVICE_H

#include "serve/Protocol.h"

#include "robust/Deadline.h"

namespace balign {

/// Service-level knobs shared by every request.
struct AlignServiceConfig {
  /// Deadline applied to requests that carry DeadlineMs == 0
  /// (0 = unlimited, the CLI convention).
  uint64_t DefaultDeadlineMs = 0;

  /// Clock for per-request deadlines; empty = steadyClockMs. Tests
  /// inject a deterministic clock to force Deadline errors without
  /// sleeping.
  ClockFn Clock;
};

/// Stateless per-request handler over a shared AlignmentOptions base
/// (which carries the one CacheImpl every client shares). Thread-safe:
/// handleAlign only reads the base and builds request-local state, so
/// pool workers may call it concurrently.
class AlignService {
public:
  AlignService(const AlignmentOptions &Base, AlignServiceConfig Config = {})
      : Base(Base), Config(std::move(Config)) {}

  /// Decodes and runs one Align body. Always returns a frame — AlignOk
  /// carrying the report bytes, or Error with the code that names what
  /// went wrong (BadRequest / ParseError / ProfileError / Aborted /
  /// Deadline / Internal). Never throws.
  Frame handleAlign(const std::string &Body) const;

  /// Runs one already-decoded request (the server decodes up front so
  /// the connection thread can read the request's deadline to watch it).
  /// Same contract and byte-identical responses as the body overload.
  Frame handleAlign(const AlignRequest &Req) const;

private:
  const AlignmentOptions &Base;
  AlignServiceConfig Config;
};

} // namespace balign

#endif // BALIGN_SERVE_SERVICE_H
