//===- robust/CrashInjector.h - Kill-based crash-point injection ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The crash-injection half of balign-sentinel, sibling of FaultInjector:
/// where BALIGN_FAULT makes a site *report* failure through its normal
/// error channel, BALIGN_CRASH makes the whole process die there with
/// `_exit(2)` — no destructors, no flushes, no atexit — which is the
/// closest a test can get to `kill -9` or power loss at a chosen
/// instruction. Crash points bracket the durability-critical I/O
/// sequences (the shared atomic replace behind a cache flush or a legacy
/// checkpoint migration, the checkpoint journal's append, the serve
/// response write, pool task execution) so a fork-based chaos harness
/// can kill a child at every site and assert the survivor-side
/// invariants: the store reopens salvageable, a migrating checkpoint is
/// either still the old file or fully migrated, the journal resumes
/// exactly-once, the client retries through.
///
/// Armed from the environment (the chaos harness arms the child
/// programmatically after fork instead):
///
///   BALIGN_CRASH=<site>[:nth]
///
/// where `nth` is the 1-based hit index that dies (default 1, the first
/// hit), a strict decimal like BALIGN_FAULT's parameters. The site names
/// share the dotted spelling of BALIGN_FAULT sites. Each crash site keeps
/// its own monotone hit counter, separate from the fault sites' counters,
/// so a given spec always kills the same deterministic hit.
///
/// Placement contract: a crash point sits *between* the bytes of a
/// multi-part write wherever a torn artifact is physically possible
/// (cache.tmp-write fires with only half the replacement file written,
/// checkpoint.append with half a record), and *between* a write and its
/// matching fsync/rename wherever ordering matters — so surviving every
/// site proves the recovery code, not the luck of the buffer cache.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ROBUST_CRASHINJECTOR_H
#define BALIGN_ROBUST_CRASHINJECTOR_H

#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

namespace balign {

/// Every durability-critical point balign-sentinel can kill the process
/// at. The printable names (crashSiteName) are the BALIGN_CRASH spelling
/// and part of the public contract; never rename a released one.
/// The three cache.* sites sit in the shared atomic replace
/// (replaceFileAtomically, robust/Journal.h): a cache flush or a legacy
/// checkpoint migration reaches them.
enum class CrashSite : uint8_t {
  CacheTmpWrite,    ///< cache.tmp-write — mid-write of the replacement's
                    ///< tmp file (a torn tmp, never renamed in).
  CachePreRename,   ///< cache.pre-rename — tmp complete and fsync'd, the
                    ///< rename not yet issued.
  CachePostRename,  ///< cache.post-rename — renamed in, the directory
                    ///< entry not yet fsync'd.
  CheckpointAppend, ///< checkpoint.append — mid-append of a journal
                    ///< record (a torn tail the reopen must truncate).
  ServeResponse,    ///< serve.response — mid-write of a serve response
                    ///< frame (the client sees a truncated frame).
  PoolTask,         ///< pool.task — inside per-procedure pipeline task
                    ///< execution (no cache flush ran for this result).
};

inline constexpr size_t NumCrashSites = 6;

/// The exit status a fired crash point dies with. Distinct from 0 so the
/// chaos harness can tell "crashed where armed" from "site never
/// reached" in the child's wait status.
inline constexpr int CrashExitCode = 2;

/// Returns the stable printable name, e.g. "cache.tmp-write".
const char *crashSiteName(CrashSite Site);

/// Parses a printable site name; nullopt for unknown names.
std::optional<CrashSite> crashSiteByName(const std::string &Name);

/// The process-wide injector. Thread-safe; the hot path (nothing armed)
/// is a single relaxed atomic load, so crash points are free to sit on
/// production I/O paths.
class CrashInjector {
public:
  /// The singleton. First use arms a site from BALIGN_CRASH if set; a
  /// malformed value is reported to stderr and aborts (a chaos sweep
  /// must never silently run without its kill).
  static CrashInjector &instance();

  /// Arms \p Site to die on its \p Nth hit (1-based), resetting that
  /// site's hit counter. At most one site is armed at a time — arming a
  /// new one disarms the previous (one kill per process life is all a
  /// crash can ever deliver).
  void arm(CrashSite Site, uint64_t Nth = 1);

  /// Disarms everything and zeroes all hit counters.
  void reset();

  /// Probes \p Site: advances its hit counter, and when the armed site
  /// reaches its fatal hit, `_exit`s with CrashExitCode. The process
  /// dies with whatever it has written so far — buffered, torn, or
  /// durable exactly as the call site left it.
  void crashPoint(CrashSite Site);

  /// Hits recorded against \p Site so far.
  uint64_t hits(CrashSite Site) const;

  /// Arms from a "<site>[:nth]" spec. Returns false and fills \p Error
  /// on malformed input.
  bool armFromSpec(const std::string &Spec, std::string *Error = nullptr);

private:
  CrashInjector() = default;
  void loadEnvOnce();

  mutable std::mutex Mutex;
  uint64_t HitCounts[NumCrashSites] = {};
  uint64_t FatalHit = 0; ///< 1-based hit that dies; 0 = disarmed.
  CrashSite ArmedSite = CrashSite::CacheTmpWrite;
  /// Whether any site is armed, readable without the mutex so an
  /// unarmed process pays one atomic load per probe.
  std::atomic<bool> Armed{false};
};

} // namespace balign

#endif // BALIGN_ROBUST_CRASHINJECTOR_H
