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
/// or miss. A request without a profile takes its synthetic profile
/// from the service's ProfileMemo, which returns the walk's own counts.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_SERVICE_H
#define BALIGN_SERVE_SERVICE_H

#include "serve/Protocol.h"

#include "profile/Profile.h"
#include "robust/Deadline.h"

#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

namespace balign {

/// Counters of one ProfileMemo.
struct ProfileMemoStats {
  uint64_t Hits = 0;    ///< Procedures answered from a kept profile.
  uint64_t Misses = 0;  ///< Procedures walked, failed walks included.
  uint64_t Entries = 0; ///< Profiles kept now.
  uint64_t Bytes = 0;   ///< Their charged bytes.
};

/// A bounded, memory-only memo of synthesized procedure profiles: what
/// synthesizeProfile returns, without walking a procedure it has walked
/// before. The key is exactly what synthesizeProcedureProfile reads —
/// the seed, the budget, the procedure index, and each block's
/// terminator kind and successor list, names excluded — and keys are
/// compared byte for byte, never by hash alone, because nothing checks
/// a memoized profile afterwards the way the cache's validateHit checks
/// its hits. Only walks that returned are kept: a ProfileWalkError or a
/// DeadlineExceeded propagates and the next request walks again. A hit
/// polls no deadline. The least recently used profiles go once the kept
/// bytes pass the budget, and an entry above MaxBytes / MaxEntryShare is
/// walked and returned but never kept. Thread-safe; walks run outside
/// the lock.
class ProfileMemo {
public:
  /// The byte budget of the memo every AlignService owns.
  static constexpr size_t DefaultMaxBytes = size_t(4) << 20;
  /// An entry may take at most 1/MaxEntryShare of the budget.
  static constexpr size_t MaxEntryShare = 16;

  /// \p MaxBytes is the budget; tests pass a small one to exercise
  /// eviction.
  explicit ProfileMemo(size_t MaxBytes = DefaultMaxBytes)
      : MaxBytes(MaxBytes) {}

  /// synthesizeProfile(Prog, Seed, Budget, Limit), procedure by
  /// procedure through the memo; throws what it throws.
  ProgramProfile synthesize(const Program &Prog, uint64_t Seed,
                            uint64_t Budget, const Deadline *Limit);

  ProfileMemoStats stats() const;

private:
  struct Entry {
    ProcedureProfile Profile;
    size_t Bytes = 0;
    std::list<const std::string *>::iterator LruPos;
  };

  ProcedureProfile procedureProfile(const Procedure &Proc, size_t ProcIndex,
                                    uint64_t Seed, uint64_t Budget,
                                    const Deadline *Limit);

  const size_t MaxBytes;
  mutable std::mutex Mutex; ///< Guards every member below.
  std::unordered_map<std::string, Entry> Entries;
  /// Keys of Entries, least recently used at the front.
  std::list<const std::string *> Lru;
  ProfileMemoStats Stats;
};

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

/// Per-request handler over a shared AlignmentOptions base (which
/// carries the one CacheImpl every client shares) and one ProfileMemo,
/// the only state it keeps between requests. Thread-safe: handleAlign
/// reads the base, goes through the memo's lock and builds
/// request-local state, so pool workers may call it concurrently.
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

  /// The profile memo's counters.
  ProfileMemoStats profileMemoStats() const { return Memo.stats(); }

private:
  const AlignmentOptions &Base;
  AlignServiceConfig Config;
  mutable ProfileMemo Memo;
};

} // namespace balign

#endif // BALIGN_SERVE_SERVICE_H
