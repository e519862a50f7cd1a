//===- robust/FaultInjector.h - Deterministic fault and crash injection ---===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// One process-wide registry of named sites for two contracts. A fault
/// (balign-shield) makes a site *report* failure through its normal
/// error channel — profile parsing, the DTSP->STSP transform, the
/// solvers, pipeline tasks, the cache's disk operations — so every
/// recovery path is drivable from tests and CI. A crash
/// (balign-sentinel) makes the whole process die at its site with
/// `_exit(CrashExitCode)` — no destructors, no flushes, no atexit — the
/// closest a test gets to `kill -9` or power loss at a chosen
/// instruction, so a fork-based chaos harness can assert the
/// survivor-side invariants of every durability-critical I/O sequence.
///
/// Sites are armed programmatically (arm / ScopedFault) or from two
/// environment variables, read together on first use:
///
///   BALIGN_FAULT=<site>:<mode>[,<site>:<mode>...]
///   BALIGN_CRASH=<site>[:nth]
///
/// with fault modes
///
///   always        every hit fails
///   once          only the first hit fails
///   nth=K         only the K-th hit fails (1-based)
///   every=K       every K-th hit fails
///   count=K       the first K hits fail (the transient-fault shape the
///                 retry machinery must absorb)
///   rate=N/D@S    a seeded pseudo-random N-in-D failure rate: hit i
///                 fails iff splitmix64(S ^ i) % D < N, so a given seed
///                 always fails the same hit indices
///
/// and a crash dying on its `nth` hit (default 1), a strict decimal like
/// the modes' parameters. The site table records which variable may arm
/// each site; `pool.task` is the one both may. A site holds one spec, so
/// arming `pool.task` from both variables aborts at startup.
///
/// Crash placement contract: a crash point sits *between* the bytes of a
/// multi-part write wherever a torn artifact is physically possible
/// (cache.tmp-write fires with half the replacement file written,
/// checkpoint.append with half a record), and *between* a write and its
/// matching fsync or rename wherever ordering matters — so surviving
/// every site proves the recovery code, not the luck of the buffer cache.
///
/// Determinism: each site keeps a monotone hit counter, advanced by every
/// probe while any site is armed and reset when the site is armed; under
/// a serial pipeline the failing (or dying) hits are a pure function of
/// the spec. Sites probed from parallel workers interleave
/// nondeterministically, so tests that target a specific hit either run
/// serial or use `always`. Verifier passes probe nothing: analysis code
/// runs under ScopedSuppress, which makes probes return false *without
/// consuming a hit*, so a `--verify` run counts only the hits of its
/// pipeline run. No crash point is reachable from a suppressed pass.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ROBUST_FAULTINJECTOR_H
#define BALIGN_ROBUST_FAULTINJECTOR_H

#include <array>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>

namespace balign {

/// Every named site balign-shield and balign-sentinel instrument. The
/// printable names (faultSiteName) are the BALIGN_FAULT and BALIGN_CRASH
/// spelling and part of the public contract; never rename a released one.
enum class FaultSite : uint8_t {
  ProfileParse, ///< profile.parse — ProfileIO record parsing.
  TspTransform, ///< tsp.transform — the DTSP->STSP transformation and
                ///< the 3-Opt candidate lists that stand in for it.
  TspSolve,     ///< tsp.solve — solveDirectedTsp entry.
  AlignGreedy,  ///< align.greedy — the greedy (fallback-rung) aligner.
  PoolTask,     ///< pool.task — per-procedure pipeline task execution
                ///< (a crash there runs no cache flush for its result).
  CacheLoad,    ///< cache.load — cache store disk reads.
  CacheFlush,   ///< cache.flush — cache store disk writes.
  ServeFrame,   ///< serve.frame — balign-serve request dispatch.
  AlignChain,   ///< align.chain — the Ext-TSP chain-merging aligner.
  JournalAppend, ///< journal.append — checkpoint journal appends.
  ClientConnect, ///< client.connect — ServeClient socket connects.
  DisplaceFixpoint, ///< displace.fixpoint — the branch-displacement solve.
  // Crash-only sites. The three cache.* ones sit in the shared atomic
  // replace (replaceFileAtomically, robust/Journal.h) that a cache flush
  // and a legacy checkpoint migration go through.
  CacheTmpWrite,    ///< cache.tmp-write — mid-write of the tmp file.
  CachePreRename,   ///< cache.pre-rename — tmp fsync'd, rename not issued.
  CachePostRename,  ///< cache.post-rename — renamed, dir not fsync'd.
  CheckpointAppend, ///< checkpoint.append — mid-append of a journal record.
  ServeResponse,    ///< serve.response — a response computed, not written.
};

inline constexpr size_t NumFaultSites = 17;

/// The exit status a fired crash spec dies with. Distinct from 0 so the
/// chaos harness can tell "crashed where armed" from "site never
/// reached" in the child's wait status.
inline constexpr int CrashExitCode = 2;

/// Returns the stable printable name, e.g. "tsp.solve".
const char *faultSiteName(FaultSite Site);

/// Parses a printable site name; nullopt for unknown names.
std::optional<FaultSite> faultSiteByName(const std::string &Name);

/// When (in a site's hit sequence) an armed spec fires.
struct FaultSpec {
  /// Crash is Nth whose K-th hit `_exit`s instead of failing.
  enum class Mode : uint8_t {
    Never, Always, Once, Nth, Every, Count, Rate, Crash
  };

  Mode M = Mode::Never;
  uint64_t K = 0;    ///< Parameter of Nth/Every/Count/Crash; numerator of
                     ///< Rate.
  uint64_t D = 1;    ///< Denominator of Rate.
  uint64_t Seed = 0; ///< Seed of Rate.

  static FaultSpec never() { return {}; }
  static FaultSpec always() { return {Mode::Always, 0, 1, 0}; }
  static FaultSpec once() { return {Mode::Once, 0, 1, 0}; }
  static FaultSpec nth(uint64_t N) { return {Mode::Nth, N, 1, 0}; }
  static FaultSpec every(uint64_t N) { return {Mode::Every, N, 1, 0}; }
  static FaultSpec count(uint64_t N) { return {Mode::Count, N, 1, 0}; }
  static FaultSpec rate(uint64_t Num, uint64_t Den, uint64_t Seed) {
    return {Mode::Rate, Num, Den, Seed};
  }
  static FaultSpec crash(uint64_t Nth = 1) {
    return {Mode::Crash, Nth, 1, 0};
  }

  /// Whether the \p Hit-th probe (1-based) fires under this spec.
  bool fires(uint64_t Hit) const;

  /// Parses one "<mode>" fault spec ("always", "nth=3", "rate=1/4@7",
  /// ...). Returns nullopt and fills \p Error for malformed input.
  static std::optional<FaultSpec> parse(const std::string &Text,
                                        std::string *Error = nullptr);
};

/// Thrown by instrumented code when its site fires (sites whose natural
/// error channel is an error return — the parsers, the cache's disk
/// attempts — report failure through that channel instead).
class FaultInjectedError : public std::runtime_error {
public:
  explicit FaultInjectedError(FaultSite Site);
  FaultSite site() const { return Site; }

private:
  FaultSite Site;
};

/// The process-wide injector. All methods are thread-safe; the
/// hot path (nothing armed anywhere) is a single relaxed atomic load.
class FaultInjector {
public:
  /// The singleton. First use arms sites from BALIGN_FAULT, then from
  /// BALIGN_CRASH; a malformed value is reported to stderr and aborts (a
  /// CI sweep must never silently run without its faults or its kill).
  static FaultInjector &instance();

  /// Arms \p Site with \p Spec (resetting its hit counter). A site takes
  /// crash specs only if BALIGN_CRASH may name it, and other specs only
  /// if BALIGN_FAULT may; any other pairing aborts.
  void arm(FaultSite Site, FaultSpec Spec);

  /// Disarms every site and zeroes all hit counters.
  void reset();

  /// Probes \p Site: advances its hit counter and reports whether an
  /// armed fault spec fires on this hit. A firing crash spec `_exit`s
  /// with CrashExitCode instead: the process dies with whatever it has
  /// written so far — buffered, torn, or durable exactly as the call
  /// site left it. Always false (and hit-free) on threads inside a
  /// ScopedSuppress.
  bool shouldFail(FaultSite Site);

  /// Probes \p Site; when a fault fires, stores its FaultInjectedError
  /// text in \p Error (when non-null). For sites that report through an
  /// error return.
  bool shouldFail(FaultSite Site, std::string *Error);

  /// Probes \p Site and throws FaultInjectedError when it fires.
  void throwIfFault(FaultSite Site) {
    if (shouldFail(Site))
      throw FaultInjectedError(Site);
  }

  /// Probes a crash-only \p Site, which holds no fault spec: the process
  /// dies here when its crash spec fires and carries on otherwise.
  void crashPoint(FaultSite Site) { shouldFail(Site); }

  /// Hits recorded against \p Site so far.
  uint64_t hits(FaultSite Site) const;

  /// Arms sites from a BALIGN_FAULT "<site>:<mode>[,...]" spec string
  /// (';' also accepted between entries). Returns false and fills
  /// \p Error on malformed input; already-parsed entries stay armed.
  bool armFromSpec(const std::string &Spec, std::string *Error = nullptr);

  /// Arms one site from a BALIGN_CRASH "<site>[:nth]" spec. Returns
  /// false and fills \p Error on malformed input.
  bool armCrashFromSpec(const std::string &Spec,
                        std::string *Error = nullptr);

  /// RAII: arms a site for a scope, restoring the previous spec (and the
  /// site's counter) on exit. The unit-test workhorse.
  class ScopedFault {
  public:
    ScopedFault(FaultSite Site, FaultSpec Spec);
    ~ScopedFault();
    ScopedFault(const ScopedFault &) = delete;
    ScopedFault &operator=(const ScopedFault &) = delete;

  private:
    FaultSite Site;
    FaultSpec Saved;
    uint64_t SavedHits;
  };

  /// RAII: while alive on this thread, every shouldFail returns false
  /// without consuming a hit. Verifier passes wrap themselves in this so
  /// replaying a stage for a determinism diff (or auditing a matrix)
  /// neither trips armed faults nor perturbs the deterministic hit
  /// sequence the pipeline proper observes.
  class ScopedSuppress {
  public:
    ScopedSuppress();
    ~ScopedSuppress();
    ScopedSuppress(const ScopedSuppress &) = delete;
    ScopedSuppress &operator=(const ScopedSuppress &) = delete;
  };

private:
  FaultInjector() = default;
  void loadEnvOnce();
  /// The site named \p Name if BALIGN_CRASH (\p Crash) or BALIGN_FAULT
  /// may arm it and it holds no spec of the other variable; otherwise
  /// nullopt, with the reason in \p Error.
  std::optional<FaultSite> siteForVariable(const std::string &Name,
                                           bool Crash,
                                           std::string *Error) const;

  mutable std::mutex Mutex;
  std::array<FaultSpec, NumFaultSites> Specs{};
  std::array<uint64_t, NumFaultSites> Hits{};
  /// Count of armed (non-Never) sites, readable without the mutex so an
  /// unarmed process pays one atomic load per probe.
  std::atomic<unsigned> ArmedCount{0};
};

} // namespace balign

#endif // BALIGN_ROBUST_FAULTINJECTOR_H
