//===- robust/FaultInjector.h - Deterministic fault injection -------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The fault-injection half of balign-shield: a process-wide registry of
/// named fault sites threaded through the pipeline's error paths —
/// profile parsing, the DTSP->STSP transform, the iterated-3-Opt solver,
/// the greedy aligner, pipeline task execution, and the cache store's
/// disk operations — so every recovery path is drivable from tests and
/// CI instead of waiting for real disks to fill up.
///
/// Faults are armed programmatically (arm / ScopedFault) or from the
/// BALIGN_FAULT environment variable:
///
///   BALIGN_FAULT=<site>:<mode>[,<site>:<mode>...]
///
/// with modes
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
/// Determinism: each site keeps a monotone hit counter, incremented on
/// every shouldFail call in call order; under a serial pipeline the
/// sequence of failing hits is a pure function of the spec. Sites probed
/// from parallel workers interleave nondeterministically, so tests that
/// target a specific hit either run serial or use `always`. Verifier
/// passes probe nothing: analysis code runs under ScopedSuppress, which
/// makes shouldFail return false *without consuming a hit*, so arming a
/// fault never skews verification: a `--verify` run counts only the
/// hits of its pipeline runs, never those of the passes.
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

/// Every named fault site balign-shield instruments. The printable names
/// (faultSiteName) are the BALIGN_FAULT spelling and part of the public
/// contract; never rename a released one.
enum class FaultSite : uint8_t {
  ProfileParse, ///< profile.parse — ProfileIO record parsing.
  TspTransform, ///< tsp.transform — the DTSP->STSP transformation and
                ///< the 3-Opt candidate lists that stand in for it.
  TspSolve,     ///< tsp.solve — solveDirectedTsp entry.
  AlignGreedy,  ///< align.greedy — the greedy (fallback-rung) aligner.
  PoolTask,     ///< pool.task — per-procedure pipeline task execution.
  CacheLoad,    ///< cache.load — cache store disk reads.
  CacheFlush,   ///< cache.flush — cache store disk writes.
  ServeFrame,   ///< serve.frame — balign-serve request dispatch.
  AlignChain,   ///< align.chain — the Ext-TSP chain-merging aligner.
  JournalAppend, ///< journal.append — checkpoint journal appends.
  ClientConnect, ///< client.connect — ServeClient socket connects.
  DisplaceFixpoint, ///< displace.fixpoint — the branch-displacement solve.
};

inline constexpr size_t NumFaultSites = 12;

/// Returns the stable printable name, e.g. "tsp.solve".
const char *faultSiteName(FaultSite Site);

/// Parses a printable site name; nullopt for unknown names.
std::optional<FaultSite> faultSiteByName(const std::string &Name);

/// When (in a site's hit sequence) an armed fault fires.
struct FaultSpec {
  enum class Mode : uint8_t { Never, Always, Once, Nth, Every, Count, Rate };

  Mode M = Mode::Never;
  uint64_t K = 0;    ///< Parameter of Nth/Every/Count; numerator of Rate.
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

  /// Whether the \p Hit-th probe (1-based) fails under this spec.
  bool fires(uint64_t Hit) const;

  /// Parses one "<mode>" spec ("always", "nth=3", "rate=1/4@7", ...).
  /// Returns nullopt and fills \p Error for malformed input.
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
  /// The singleton. First use arms sites from BALIGN_FAULT if set; a
  /// malformed value is reported to stderr and aborts (a CI sweep must
  /// never silently run without its faults).
  static FaultInjector &instance();

  /// Arms \p Site with \p Spec (resetting its hit counter).
  void arm(FaultSite Site, FaultSpec Spec);

  /// Disarms every site and zeroes all hit counters.
  void reset();

  /// Probes \p Site: advances its hit counter and reports whether an
  /// armed spec fires on this hit. Always false (and hit-free) on
  /// threads inside a ScopedSuppress.
  bool shouldFail(FaultSite Site);

  /// Probes \p Site and throws FaultInjectedError when it fires.
  void throwIfFault(FaultSite Site) {
    if (shouldFail(Site))
      throw FaultInjectedError(Site);
  }

  /// Hits recorded against \p Site so far.
  uint64_t hits(FaultSite Site) const;

  /// Arms sites from a "<site>:<mode>[,...]" spec string (';' also
  /// accepted between entries). Returns false and fills \p Error on
  /// malformed input; already-parsed entries stay armed.
  bool armFromSpec(const std::string &Spec, std::string *Error = nullptr);

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

  mutable std::mutex Mutex;
  std::array<FaultSpec, NumFaultSites> Specs{};
  std::array<uint64_t, NumFaultSites> Hits{};
  /// Count of armed (non-Never) sites, readable without the mutex so an
  /// unarmed process pays one atomic load per probe.
  std::atomic<unsigned> ArmedCount{0};
};

} // namespace balign

#endif // BALIGN_ROBUST_FAULTINJECTOR_H
