//===- cache/Store.cpp ----------------------------------------------------===//

#include "cache/Store.h"

#include "analysis/Verifier.h"
#include "objective/Penalty.h"
#include "robust/FaultInjector.h"
#include "robust/Journal.h"
#include "support/Bytes.h"
#include "trace/Scope.h"

#include <cstring>
#include <filesystem>
#include <iostream>

using namespace balign;

namespace {

constexpr std::string_view StoreMagic = "BALNCACH";

//===--------------------------------------------------------------------===//
// Little-endian byte (de)serialization of ProcedureAlignment payloads.
//===--------------------------------------------------------------------===//

void putLayout(std::string &Out, const Layout &L) {
  putU32(Out, static_cast<uint32_t>(L.Order.size()));
  for (BlockId Id : L.Order)
    putU32(Out, Id);
}

std::string encodeAlignment(const ProcedureAlignment &PA) {
  std::string Out;
  putLayout(Out, PA.OriginalLayout);
  putLayout(Out, PA.GreedyLayout);
  putLayout(Out, PA.TspLayout);
  putU64(Out, PA.OriginalPenalty);
  putU64(Out, PA.GreedyPenalty);
  putU64(Out, PA.TspPenalty);
  uint64_t HkBits;
  static_assert(sizeof(HkBits) == sizeof(PA.Bounds.HeldKarp));
  std::memcpy(&HkBits, &PA.Bounds.HeldKarp, sizeof(HkBits));
  putU64(Out, HkBits);
  putU64(Out, static_cast<uint64_t>(PA.Bounds.Assignment));
  putU64(Out, PA.Bounds.AssignmentCycles);
  putU32(Out, PA.SolverRuns);
  putU32(Out, PA.RunsFindingBest);
  return Out;
}

bool decodeLayout(ByteReader &In, Layout &L) {
  uint32_t Len = 0;
  if (!In.u32(Len) || static_cast<size_t>(Len) * 4 > In.remaining())
    return false;
  L.Order.resize(Len);
  for (BlockId &Id : L.Order)
    In.u32(Id);
  return true;
}

bool decodeAlignment(std::string_view Payload, ProcedureAlignment &PA) {
  ByteReader In(Payload);
  uint64_t HkBits = 0, Assignment = 0, Cycles = 0;
  if (!decodeLayout(In, PA.OriginalLayout) ||
      !decodeLayout(In, PA.GreedyLayout) || !decodeLayout(In, PA.TspLayout) ||
      !In.u64(PA.OriginalPenalty) || !In.u64(PA.GreedyPenalty) ||
      !In.u64(PA.TspPenalty) || !In.u64(HkBits) || !In.u64(Assignment) ||
      !In.u64(Cycles) || !In.u32(PA.SolverRuns) ||
      !In.u32(PA.RunsFindingBest))
    return false;
  std::memcpy(&PA.Bounds.HeldKarp, &HkBits, sizeof(HkBits));
  PA.Bounds.Assignment = static_cast<int64_t>(Assignment);
  PA.Bounds.AssignmentCycles = static_cast<size_t>(Cycles);
  // Trailing bytes mean the payload is not what the encoder produced.
  return In.atEnd();
}

/// Semantic hit validation: the decoded result must be something
/// recomputation could have produced for these exact inputs. Layout
/// legality runs through the balign-verify layout-check pass; stored
/// penalties must match re-evaluation bit-for-bit; bounds must obey the
/// bound-ordering invariant.
bool validateHit(const Procedure &Proc, const ProcedureProfile &Train,
                 const MachineModel &Model, const ProcedureAlignment &PA) {
  for (const Layout *L :
       {&PA.OriginalLayout, &PA.GreedyLayout, &PA.TspLayout})
    if (!L->isValid(Proc))
      return false;
  if (PA.OriginalLayout.Order != Layout::original(Proc).Order)
    return false;
  DiagnosticEngine Scratch;
  checkLayout(Proc, PA.OriginalLayout, Train, Model, Scratch);
  checkLayout(Proc, PA.GreedyLayout, Train, Model, Scratch);
  checkLayout(Proc, PA.TspLayout, Train, Model, Scratch);
  checkBounds(Proc, PA.Bounds, PA.TspPenalty, Scratch);
  if (Scratch.hasErrors())
    return false;
  return PA.OriginalPenalty ==
             evaluateLayout(Proc, PA.OriginalLayout, Model, Train, Train) &&
         PA.GreedyPenalty ==
             evaluateLayout(Proc, PA.GreedyLayout, Model, Train, Train) &&
         PA.TspPenalty ==
             evaluateLayout(Proc, PA.TspLayout, Model, Train, Train);
}

} // namespace

std::string CacheStats::summary() const {
  char Buffer[384];
  std::snprintf(Buffer, sizeof(Buffer),
                "hits=%llu misses=%llu stores=%llu evictions=%llu "
                "invalidations=%llu entries=%llu payload-bytes=%llu "
                "written-bytes=%llu retries=%llu load-failures=%llu "
                "flush-failures=%llu",
                static_cast<unsigned long long>(Hits),
                static_cast<unsigned long long>(Misses),
                static_cast<unsigned long long>(Stores),
                static_cast<unsigned long long>(Evictions),
                static_cast<unsigned long long>(Invalidations),
                static_cast<unsigned long long>(Entries),
                static_cast<unsigned long long>(PayloadBytes),
                static_cast<unsigned long long>(BytesWritten),
                static_cast<unsigned long long>(Retries),
                static_cast<unsigned long long>(LoadFailures),
                static_cast<unsigned long long>(FlushFailures));
  return Buffer;
}

AlignmentCache::AlignmentCache(AlignmentCacheConfig Config)
    : Config(Config) {}

AlignmentCache::AlignmentCache(std::string Dir, AlignmentCacheConfig Config)
    : Dir(std::move(Dir)), Config(Config) {
  loadFromDisk();
}

void AlignmentCache::loadFromDisk() {
  ScopedSpan LoadSpan("cache.load", SpanCat::Cache);
  std::string Path = Dir + "/" + StoreFileName;
  std::string File;
  bool Exists = false;
  RetryOutcome Outcome = retryWithBackoff(
      RetryPolicy(),
      [&](std::string *Error) {
        // balign-shield fault site: a transient read failure on the
        // store file, retried with bounded backoff.
        if (FaultInjector::instance().shouldFail(FaultSite::CacheLoad)) {
          if (Error)
            *Error = "injected fault at 'cache.load'";
          return false;
        }
        // No store yet is a cold cache, not an error.
        Exists = readFileBytes(Path, File);
        return true;
      },
      nullptr, Config.RetrySleep);
  if (Outcome.Attempts > 1) {
    Stats.Retries += Outcome.Attempts - 1;
    scopeGaugeAdd("cache.retries", Outcome.Attempts - 1);
  }
  auto countLoadFailure = [&] {
    ++Stats.LoadFailures;
    scopeCounterAdd("cache.load-failures");
  };
  auto countInvalidations = [&](uint64_t N) {
    Stats.Invalidations += N;
    scopeCounterAdd("cache.invalidations", N);
  };
  if (!Outcome.Succeeded) {
    // Persistent read failure: degrade to a cold cache. Every lookup
    // recomputes (correct, just slower), and the next flush rebuilds
    // the store from scratch.
    countLoadFailure();
    return;
  }
  if (!Exists)
    return;

  // Corruption taxonomy: a *truncated* store (a crash or full disk cut
  // the file short, even before its first byte) is a partial-load
  // failure — every complete preceding entry is salvaged and exactly one
  // load-failures increment is reported, never double-counted through
  // the retry wrapper above (truncation is not transient, so it is not
  // retried at all). Content that is the wrong *shape* (foreign magic,
  // another version, an absurd length field, a checksum mismatch, a
  // record too short for its key) is invalidation: the store was read
  // fine but that content is discarded. A checksum-bad record still
  // frames the next one, so salvage continues past it.
  RecordScan Scan = scanRecordFile(File, StoreMagic, CacheFormatVersion);
  switch (Scan.Header) {
  case RecordHeader::Missing:
  case RecordHeader::Torn:
    countLoadFailure();
    return;
  case RecordHeader::Foreign:
  case RecordHeader::WrongVersion:
    countInvalidations(1); // Not ours, or an old format: discard wholesale.
    return;
  case RecordHeader::Ok:
    break;
  }
  uint64_t Salvaged = 0, Bad = Scan.BadRecords;
  for (std::string_view Record : Scan.Records) {
    ByteReader In(Record);
    Fingerprint Key;
    if (!In.u64(Key.Hi) || !In.u64(Key.Lo)) {
      ++Bad;
      continue;
    }
    ++Salvaged;
    // Ctor context: single thread.
    insertLocked(Key, std::string(Record.substr(In.pos())));
  }
  if (Bad != 0)
    countInvalidations(Bad);
  if (Scan.Tail == RecordTail::Torn)
    countLoadFailure();
  else if (Scan.Tail == RecordTail::Corrupt)
    countInvalidations(1);
  scopeCounterAdd("cache.loaded-entries", Salvaged);
  if (Bad != 0 || Scan.Tail != RecordTail::Clean)
    scopeCounterAdd("cache.salvaged-entries", Salvaged);
}

void AlignmentCache::touchLocked(Entry &E, const Fingerprint &Key) {
  Lru.erase(E.LruPos);
  Lru.push_back(Key);
  E.LruPos = std::prev(Lru.end());
}

void AlignmentCache::insertLocked(const Fingerprint &Key,
                                  std::string Payload) {
  auto It = Entries.find(Key);
  if (It != Entries.end()) {
    Stats.PayloadBytes -= It->second.Payload.size();
    Stats.PayloadBytes += Payload.size();
    It->second.Payload = std::move(Payload);
    touchLocked(It->second, Key);
  } else {
    Lru.push_back(Key);
    Entry E;
    E.Payload = std::move(Payload);
    E.LruPos = std::prev(Lru.end());
    Stats.PayloadBytes += E.Payload.size();
    Entries.emplace(Key, std::move(E));
  }
  Stats.Entries = Entries.size();
  evictLocked();
}

void AlignmentCache::evictLocked() {
  while (!Lru.empty() && (Entries.size() > Config.MaxEntries ||
                          Stats.PayloadBytes > Config.MaxPayloadBytes)) {
    auto It = Entries.find(Lru.front());
    Stats.PayloadBytes -= It->second.Payload.size();
    Entries.erase(It);
    Lru.pop_front();
    ++Stats.Evictions;
    scopeCounterAdd("cache.evictions");
  }
  Stats.Entries = Entries.size();
}

bool AlignmentCache::lookup(const Procedure &Proc,
                            const ProcedureProfile &Train,
                            const AlignmentOptions &Options, size_t ProcIndex,
                            ProcedureAlignment &Out) {
  ScopedSpan LookupSpan("cache.lookup", SpanCat::Cache);
  Fingerprint Key = fingerprintProcedureInputs(Proc, Train, Options,
                                               ProcIndex);
  // Copy the payload out under the lock; the expensive decode and
  // validation run unlocked so parallel workers do not serialize.
  std::string Payload;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It == Entries.end()) {
      ++Stats.Misses;
      scopeCounterAdd("cache.misses");
      return false;
    }
    Payload = It->second.Payload;
    touchLocked(It->second, Key);
  }

  ProcedureAlignment PA;
  bool Valid = decodeAlignment(Payload, PA) &&
               validateHit(Proc, Train, Options.Model, PA);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (!Valid) {
    // Checksum-clean but semantically wrong (tampered store, or a
    // fingerprint collision): drop it and recompute.
    auto It = Entries.find(Key);
    if (It != Entries.end()) {
      Stats.PayloadBytes -= It->second.Payload.size();
      Lru.erase(It->second.LruPos);
      Entries.erase(It);
      Stats.Entries = Entries.size();
    }
    ++Stats.Invalidations;
    ++Stats.Misses;
    scopeCounterAdd("cache.invalidations");
    scopeCounterAdd("cache.misses");
    return false;
  }
  Out = std::move(PA);
  ++Stats.Hits;
  scopeCounterAdd("cache.hits");
  return true;
}

void AlignmentCache::store(const Procedure &Proc,
                           const ProcedureProfile &Train,
                           const AlignmentOptions &Options, size_t ProcIndex,
                           const ProcedureAlignment &Result) {
  ScopedSpan StoreSpan("cache.store", SpanCat::Cache);
  Fingerprint Key = fingerprintProcedureInputs(Proc, Train, Options,
                                               ProcIndex);
  std::string Payload = encodeAlignment(Result);
  // FlushEveryStores must trigger the flush *outside* the lock (flush
  // retakes it); the flag decided under the lock keeps the counter
  // race-free across concurrent pipeline workers.
  bool NeedFlush = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    insertLocked(Key, std::move(Payload));
    ++Stats.Stores;
    if (Config.FlushEveryStores != 0 && !Dir.empty() && !DiskDisabled &&
        ++StoresSinceFlush >= Config.FlushEveryStores) {
      StoresSinceFlush = 0;
      NeedFlush = true;
    }
  }
  scopeCounterAdd("cache.stores");
  if (NeedFlush)
    flush(); // Best effort: a failure counts and downgrades as usual.
}

bool AlignmentCache::flush(std::string *Error) {
  ScopedSpan FlushSpan("cache.flush", SpanCat::Cache);
  if (Dir.empty())
    return true;
  // The fsync'd replace runs outside Mutex so lookups and stores never
  // queue behind the disk.
  std::lock_guard<std::mutex> FlushLock(FlushMutex);
  std::string File = recordFileHeader(StoreMagic, CacheFormatVersion);
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (DiskDisabled)
      return true; // Downgraded to memory-only; nothing left to persist.
    std::string Record;
    for (const Fingerprint &Key : Lru) { // Oldest first: reload keeps LRU.
      Record.clear();
      putU64(Record, Key.Hi);
      putU64(Record, Key.Lo);
      Record += Entries.at(Key).Payload;
      appendRecord(File, Record);
    }
  }

  std::string FlushError;
  RetryOutcome Outcome = retryWithBackoff(
      RetryPolicy(),
      [&](std::string *AttemptError) {
        // balign-shield fault site: a transient write failure anywhere
        // in the atomic replace, retried with bounded backoff.
        if (FaultInjector::instance().shouldFail(FaultSite::CacheFlush)) {
          if (AttemptError)
            *AttemptError = "injected fault at 'cache.flush'";
          return false;
        }
        std::error_code Ec;
        std::filesystem::create_directories(Dir, Ec);
        if (Ec) {
          if (AttemptError)
            *AttemptError = "cannot create cache directory '" + Dir +
                            "': " + Ec.message();
          return false;
        }
        return replaceFileAtomically(Dir + "/" + StoreFileName, File,
                                     AttemptError);
      },
      &FlushError, Config.RetrySleep);
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Outcome.Attempts > 1) {
    Stats.Retries += Outcome.Attempts - 1;
    scopeGaugeAdd("cache.retries", Outcome.Attempts - 1);
  }
  if (!Outcome.Succeeded) {
    // Persistent write failure: downgrade to a memory-only cache so the
    // rest of the run neither blocks on a broken disk nor loses
    // correctness — only warm-start persistence is sacrificed.
    ++Stats.FlushFailures;
    scopeCounterAdd("cache.flush-failures");
    DiskDisabled = true;
    if (Error)
      *Error = FlushError + " (cache downgraded to memory-only)";
    return false;
  }
  Stats.BytesWritten += File.size();
  scopeCounterAdd("cache.bytes-written", File.size());
  return true;
}

bool AlignmentCache::isDiskBacked() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return !Dir.empty() && !DiskDisabled;
}

CacheStats AlignmentCache::stats() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Stats;
}

size_t AlignmentCache::size() const {
  std::lock_guard<std::mutex> Lock(Mutex);
  return Entries.size();
}

CacheSession::CacheSession(AlignmentOptions &Options,
                           AlignmentCacheConfig Config)
    : Options(&Options) {
  switch (Options.Cache) {
  case CacheMode::Off:
    break;
  case CacheMode::Memory:
    Impl = std::make_unique<AlignmentCache>(Config);
    break;
  case CacheMode::Disk:
    Impl = std::make_unique<AlignmentCache>(
        Options.CachePath.empty() ? std::string(".") : Options.CachePath,
        Config);
    break;
  }
  if (Impl)
    Options.CacheImpl = Impl.get();
}

CacheSession::~CacheSession() {
  if (Impl) {
    std::string FlushError;
    if (!Impl->flush(&FlushError))
      std::cerr << "balign: warning: cache flush failed: " << FlushError
                << "\n";
    if (Options->CacheImpl == Impl.get())
      Options->CacheImpl = nullptr;
  }
}

bool CacheSession::flush(std::string *Error) {
  return Impl ? Impl->flush(Error) : true;
}

CacheStats CacheSession::stats() const {
  return Impl ? Impl->stats() : CacheStats();
}
