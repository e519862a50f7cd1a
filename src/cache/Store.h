//===- cache/Store.h - Persistent content-addressed alignment cache ------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The balign-cache store: maps input fingerprints (cache/Fingerprint.h)
/// to serialized ProcedureAlignment results, in memory with an optional
/// on-disk mirror. In a realistic build loop most procedures are
/// byte-identical between runs, so a warm cache removes the iterated
/// 3-Opt and Held-Karp work that dominates Table 2 entirely.
///
/// Trust model: *never trust, always validate*. Every disk entry carries
/// a checksum over key + payload; corrupt, truncated, or
/// version-mismatched data is dropped at load (counted as an
/// invalidation or a load failure), never served. A checksum-clean hit
/// is still re-validated semantically before use — layout legality via
/// the balign-verify layout-check pass and penalty agreement via
/// re-evaluation — so even an adversarially patched store can only
/// cause a recompute, not a wrong result.
///
/// On disk the store is a record file (robust/Journal.h: 16-byte header,
/// then `[u32 size][bytes][u64 checksum]` per record), written whole on
/// every flush through the shared atomic replace:
///
///   header: magic "BALNCACH", version CacheFormatVersion
///   record per entry:
///     [u64] key hi   [u64] key lo
///     [payload]      serialized ProcedureAlignment
///
/// Entries appear oldest-first, so reloading preserves LRU order. The
/// store is LRU-bounded by entry count and payload bytes; flushing
/// after eviction compacts the file.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_CACHE_STORE_H
#define BALIGN_CACHE_STORE_H

#include "align/Pipeline.h"
#include "cache/Fingerprint.h"
#include "robust/Retry.h"

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

namespace balign {

/// Counters the cache exposes; align_tool --cache-stats prints the
/// summary() line to stderr. The time spent in lookups, stores and
/// flushes is recorded by the cache.* trace spans, not here.
struct CacheStats {
  uint64_t Hits = 0;          ///< Lookups served from the cache.
  uint64_t Misses = 0;        ///< Lookups that fell through to compute.
  uint64_t Stores = 0;        ///< Fresh results inserted or refreshed.
  uint64_t Evictions = 0;     ///< Entries dropped by the LRU bound.
  uint64_t Invalidations = 0; ///< Corrupt/mismatched entries rejected.
  uint64_t Entries = 0;       ///< Entries currently resident.
  uint64_t PayloadBytes = 0;  ///< Their total payload size.
  uint64_t BytesWritten = 0;  ///< Bytes flushed to disk so far.
  uint64_t Retries = 0;       ///< Disk attempts repeated after a failure.
  uint64_t LoadFailures = 0;  ///< Store reads that failed even with retry.
  uint64_t FlushFailures = 0; ///< Store writes that failed even with retry.

  /// "hits=12 misses=3 ..." one-line rendering (stable key=value form,
  /// greppable by CI).
  std::string summary() const;
};

/// Tuning for AlignmentCache.
struct AlignmentCacheConfig {
  size_t MaxEntries = size_t(1) << 20;       ///< LRU bound on entries.
  size_t MaxPayloadBytes = size_t(256) << 20;///< LRU bound on bytes.

  /// Disk mode: flush automatically after every N stores (0 = only on
  /// explicit flush / session teardown). Long-lived owners — the
  /// balign-serve server, whose CacheSession may never destruct if the
  /// process is killed — set this so a crash loses at most N results.
  size_t FlushEveryStores = 0;

  /// balign-shield: disk reads and writes retry transient failures with
  /// the default RetryPolicy's bounded exponential backoff before giving
  /// up. Clock injection for the backoff sleeps; null means really sleep.
  /// Tests pass a recording stub so retry runs take no wall time.
  SleepFn RetrySleep;
};

/// The concrete ProcedureResultCache: an LRU map from input fingerprint
/// to serialized ProcedureAlignment, optionally mirrored to
/// `<Dir>/balign.cache`. All public methods are thread-safe; pipeline
/// workers call lookup/store concurrently under Threads > 1.
class AlignmentCache final : public ProcedureResultCache {
public:
  /// Name of the store file inside the cache directory.
  static constexpr const char *StoreFileName = "balign.cache";

  /// Memory-only cache.
  explicit AlignmentCache(AlignmentCacheConfig Config = {});

  /// Disk-backed cache over directory \p Dir: loads every salvageable
  /// entry of an existing store (corruption is counted, skipped, and
  /// repaired away by the next flush); flush() persists atomically.
  explicit AlignmentCache(std::string Dir, AlignmentCacheConfig Config = {});

  bool lookup(const Procedure &Proc, const ProcedureProfile &Train,
              const AlignmentOptions &Options, size_t ProcIndex,
              ProcedureAlignment &Out) override;

  void store(const Procedure &Proc, const ProcedureProfile &Train,
             const AlignmentOptions &Options, size_t ProcIndex,
             const ProcedureAlignment &Result) override;

  /// Writes the store file (disk mode; a no-op returning true in memory
  /// mode) through replaceFileAtomically: readers never observe a
  /// partial file, and success means the store survives kill -9.
  /// Returns false and fills \p Error on I/O failure.
  bool flush(std::string *Error = nullptr);

  /// Snapshot of the counters.
  CacheStats stats() const;

  /// Entries currently resident.
  size_t size() const;

  /// False in memory mode, and after a persistent flush failure
  /// downgraded the cache to memory-only (balign-shield graceful
  /// degradation: alignment results stay correct, only persistence is
  /// lost).
  bool isDiskBacked() const;

private:
  struct Entry {
    std::string Payload;
    std::list<Fingerprint>::iterator LruPos;
  };

  void loadFromDisk();
  void insertLocked(const Fingerprint &Key, std::string Payload);
  void touchLocked(Entry &E, const Fingerprint &Key);
  void evictLocked();

  /// Guards everything below except Dir and Config, which are fixed at
  /// construction. A flush holds it only to snapshot the records and to
  /// publish its outcome, never across the disk write.
  mutable std::mutex Mutex;
  /// Orders flushes: each one snapshots after the previous one finished
  /// writing, so an older snapshot never replaces a newer file.
  std::mutex FlushMutex;
  std::string Dir; ///< Empty for memory-only mode.
  bool DiskDisabled = false; ///< Set after a persistent flush failure.
  size_t StoresSinceFlush = 0; ///< Drives FlushEveryStores.
  AlignmentCacheConfig Config;
  CacheStats Stats;

  /// LRU order, least recent at the front; Entries point back into it.
  std::list<Fingerprint> Lru;
  std::unordered_map<Fingerprint, Entry, FingerprintHasher> Entries;
};

/// RAII glue between AlignmentOptions and the cache: reads
/// Options.Cache/CachePath, constructs the matching AlignmentCache, and
/// installs it as Options.CacheImpl for the session's lifetime. The
/// destructor flushes (best effort) and detaches. With
/// CacheMode::Off the session is an inert shell, so callers need no
/// branching.
class CacheSession {
public:
  explicit CacheSession(AlignmentOptions &Options,
                        AlignmentCacheConfig Config = {});
  ~CacheSession();

  CacheSession(const CacheSession &) = delete;
  CacheSession &operator=(const CacheSession &) = delete;

  /// The owned cache; null when the session is Off.
  AlignmentCache *cache() { return Impl.get(); }

  /// Explicit flush with error reporting (the destructor can only be
  /// best-effort). No-op when Off or memory-only.
  bool flush(std::string *Error = nullptr);

  /// Zeroed stats when Off.
  CacheStats stats() const;

private:
  AlignmentOptions *Options;
  std::unique_ptr<AlignmentCache> Impl;
};

} // namespace balign

#endif // BALIGN_CACHE_STORE_H
