//===- cache/Store.cpp ----------------------------------------------------===//

#include "cache/Store.h"

#include "analysis/Verifier.h"
#include "objective/Penalty.h"
#include "robust/CrashInjector.h"
#include "robust/Durability.h"
#include "robust/FaultInjector.h"
#include "support/Timer.h"
#include "trace/Scope.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include <fcntl.h>
#include <unistd.h>

using namespace balign;

namespace {

constexpr char StoreMagic[8] = {'B', 'A', 'L', 'N', 'C', 'A', 'C', 'H'};
constexpr size_t HeaderBytes = sizeof(StoreMagic) + 2 * sizeof(uint32_t);
/// Key (2 x u64) + payload size (u32) before the payload, checksum
/// (u64) after it.
constexpr size_t EntryOverheadBytes = 2 * sizeof(uint64_t) +
                                      sizeof(uint32_t) + sizeof(uint64_t);
/// No legitimate payload is remotely this large (a layout entry is a
/// few bytes per block); larger sizes mean a corrupted length field.
constexpr uint32_t MaxReasonablePayload = 64u << 20;

//===--------------------------------------------------------------------===//
// Little-endian byte (de)serialization of ProcedureAlignment payloads.
//===--------------------------------------------------------------------===//

void putU32(std::vector<uint8_t> &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putU64(std::vector<uint8_t> &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<uint8_t>(V >> (8 * I)));
}

void putLayout(std::vector<uint8_t> &Out, const Layout &L) {
  putU32(Out, static_cast<uint32_t>(L.Order.size()));
  for (BlockId Id : L.Order)
    putU32(Out, Id);
}

std::vector<uint8_t> encodeAlignment(const ProcedureAlignment &PA) {
  std::vector<uint8_t> Out;
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

/// Bounds-checked reader over a byte span; any out-of-range read sets
/// Failed and sticks.
struct ByteReader {
  const uint8_t *Data;
  size_t Size;
  size_t Pos = 0;
  bool Failed = false;

  uint32_t u32() {
    if (Failed || Size - Pos < 4) {
      Failed = true;
      return 0;
    }
    uint32_t V = 0;
    for (int I = 0; I != 4; ++I)
      V |= static_cast<uint32_t>(Data[Pos + I]) << (8 * I);
    Pos += 4;
    return V;
  }

  uint64_t u64() {
    if (Failed || Size - Pos < 8) {
      Failed = true;
      return 0;
    }
    uint64_t V = 0;
    for (int I = 0; I != 8; ++I)
      V |= static_cast<uint64_t>(Data[Pos + I]) << (8 * I);
    Pos += 8;
    return V;
  }
};

bool decodeLayout(ByteReader &R, Layout &L) {
  uint32_t Len = R.u32();
  if (R.Failed || static_cast<size_t>(Len) * 4 > R.Size - R.Pos)
    return false;
  L.Order.clear();
  L.Order.reserve(Len);
  for (uint32_t I = 0; I != Len; ++I)
    L.Order.push_back(R.u32());
  return !R.Failed;
}

bool decodeAlignment(const std::vector<uint8_t> &Payload,
                     ProcedureAlignment &PA) {
  ByteReader R{Payload.data(), Payload.size()};
  if (!decodeLayout(R, PA.OriginalLayout) ||
      !decodeLayout(R, PA.GreedyLayout) || !decodeLayout(R, PA.TspLayout))
    return false;
  PA.OriginalPenalty = R.u64();
  PA.GreedyPenalty = R.u64();
  PA.TspPenalty = R.u64();
  uint64_t HkBits = R.u64();
  std::memcpy(&PA.Bounds.HeldKarp, &HkBits, sizeof(HkBits));
  PA.Bounds.Assignment = static_cast<int64_t>(R.u64());
  PA.Bounds.AssignmentCycles = static_cast<size_t>(R.u64());
  PA.SolverRuns = R.u32();
  PA.RunsFindingBest = R.u32();
  // Trailing bytes mean the payload is not what the encoder produced.
  return !R.Failed && R.Pos == R.Size;
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
                "flush-failures=%llu lookup-s=%.3f store-s=%.3f",
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
                static_cast<unsigned long long>(FlushFailures),
                LookupSeconds, StoreSeconds);
  return Buffer;
}

uint64_t balign::entryChecksum(uint64_t KeyHi, uint64_t KeyLo,
                               const void *Payload, size_t Size) {
  Hasher H;
  H.u64(KeyHi);
  H.u64(KeyLo);
  H.bytes(Payload, Size);
  Fingerprint F = H.digest();
  return F.Hi ^ (F.Lo * GoldenGamma);
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
  std::vector<uint8_t> File;
  bool Exists = false;
  RetryOutcome Outcome = retryWithBackoff(
      Config.DiskRetry,
      [&](std::string *Error) {
        // balign-shield fault site: a transient read failure on the
        // store file, retried with bounded backoff.
        if (FaultInjector::instance().shouldFail(FaultSite::CacheLoad)) {
          if (Error)
            *Error = "injected fault at 'cache.load'";
          return false;
        }
        std::ifstream In(Path, std::ios::binary);
        if (!In) {
          Exists = false; // No store yet: a cold cache, not an error.
          return true;
        }
        File.assign((std::istreambuf_iterator<char>(In)),
                    std::istreambuf_iterator<char>());
        Exists = true;
        return true;
      },
      nullptr, Config.RetrySleep);
  if (Outcome.Attempts > 1) {
    Stats.Retries += Outcome.Attempts - 1;
    scopeGaugeAdd("cache.retries", Outcome.Attempts - 1);
  }
  if (!Outcome.Succeeded) {
    // Persistent read failure: degrade to a cold cache. Every lookup
    // recomputes (correct, just slower), and the next flush rebuilds
    // the store from scratch.
    ++Stats.LoadFailures;
    scopeCounterAdd("cache.load-failures");
    return;
  }
  if (!Exists)
    return;

  // Corruption taxonomy for everything below: a *truncated* store (a
  // crash or full disk cut the file short) is a partial-load failure —
  // every complete preceding entry is salvaged and exactly one
  // load-failures increment is reported, never double-counted through
  // the retry wrapper above (truncation is not transient, so it is not
  // retried at all). Content that is the wrong *shape* (foreign magic,
  // old version, an absurd length field, a checksum mismatch) is
  // invalidation: the store was read fine but its content is discarded.
  if (File.size() < HeaderBytes) {
    // An empty vector's data() may be null, which memcmp must not see.
    if (File.empty() ||
        std::memcmp(File.data(), StoreMagic,
                    std::min(File.size(), sizeof(StoreMagic))) == 0) {
      ++Stats.LoadFailures; // Our store, cut off mid-header.
      scopeCounterAdd("cache.load-failures");
    } else {
      ++Stats.Invalidations; // Not our file at all.
      scopeCounterAdd("cache.invalidations");
    }
    return;
  }
  if (std::memcmp(File.data(), StoreMagic, sizeof(StoreMagic)) != 0) {
    ++Stats.Invalidations; // Not ours.
    scopeCounterAdd("cache.invalidations");
    return;
  }
  uint32_t Version = 0;
  std::memcpy(&Version, File.data() + sizeof(StoreMagic), sizeof(Version));
  if (Version != CacheFormatVersion) {
    ++Stats.Invalidations; // Old format: discard wholesale.
    scopeCounterAdd("cache.invalidations");
    return;
  }

  uint64_t Salvaged = 0;
  bool SawCorruption = false;
  size_t Pos = HeaderBytes;
  while (Pos < File.size()) {
    if (File.size() - Pos < EntryOverheadBytes) {
      ++Stats.LoadFailures; // Truncated mid-entry: partial load.
      scopeCounterAdd("cache.load-failures");
      SawCorruption = true;
      break;
    }
    ByteReader R{File.data() + Pos, File.size() - Pos};
    Fingerprint Key;
    Key.Hi = R.u64();
    Key.Lo = R.u64();
    uint32_t PayloadSize = R.u32();
    if (PayloadSize > MaxReasonablePayload) {
      ++Stats.Invalidations; // Corrupt length field; cannot resync.
      scopeCounterAdd("cache.invalidations");
      SawCorruption = true;
      break;
    }
    if (File.size() - Pos - R.Pos < PayloadSize + sizeof(uint64_t)) {
      ++Stats.LoadFailures; // Truncated mid-payload: partial load.
      scopeCounterAdd("cache.load-failures");
      SawCorruption = true;
      break;
    }
    std::vector<uint8_t> Payload(File.data() + Pos + R.Pos,
                                 File.data() + Pos + R.Pos + PayloadSize);
    R.Pos += PayloadSize;
    uint64_t Checksum = R.u64();
    Pos += R.Pos;
    if (Checksum !=
        entryChecksum(Key.Hi, Key.Lo, Payload.data(), Payload.size())) {
      ++Stats.Invalidations; // Bit rot; sizes were plausible, so the
      scopeCounterAdd("cache.invalidations");
      SawCorruption = true;
      continue;              // stream stays aligned — keep salvaging.
    }
    ++Salvaged;
    insertLocked(Key, std::move(Payload)); // Ctor context: single thread.
  }
  scopeCounterAdd("cache.loaded-entries", Salvaged);
  if (SawCorruption)
    scopeCounterAdd("cache.salvaged-entries", Salvaged);
}

void AlignmentCache::touchLocked(Entry &E, const Fingerprint &Key) {
  Lru.erase(E.LruPos);
  Lru.push_back(Key);
  E.LruPos = std::prev(Lru.end());
}

void AlignmentCache::insertLocked(const Fingerprint &Key,
                                  std::vector<uint8_t> Payload) {
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
  CpuStopwatch Timer;
  Fingerprint Key = fingerprintProcedureInputs(Proc, Train, Options,
                                               ProcIndex);
  // Copy the payload out under the lock; the expensive decode and
  // validation run unlocked so parallel workers do not serialize.
  std::vector<uint8_t> Payload;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    auto It = Entries.find(Key);
    if (It == Entries.end()) {
      ++Stats.Misses;
      Stats.LookupSeconds += Timer.seconds();
      scopeCounterAdd("cache.misses");
      return false;
    }
    Payload = It->second.Payload;
    touchLocked(It->second, Key);
  }

  ProcedureAlignment PA;
  bool Valid = decodeAlignment(Payload, PA) &&
               (!Config.ValidateHits ||
                validateHit(Proc, Train, Options.Model, PA));
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
    Stats.LookupSeconds += Timer.seconds();
    scopeCounterAdd("cache.invalidations");
    scopeCounterAdd("cache.misses");
    return false;
  }
  Out = std::move(PA);
  ++Stats.Hits;
  Stats.LookupSeconds += Timer.seconds();
  scopeCounterAdd("cache.hits");
  return true;
}

void AlignmentCache::store(const Procedure &Proc,
                           const ProcedureProfile &Train,
                           const AlignmentOptions &Options, size_t ProcIndex,
                           const ProcedureAlignment &Result) {
  ScopedSpan StoreSpan("cache.store", SpanCat::Cache);
  CpuStopwatch Timer;
  Fingerprint Key = fingerprintProcedureInputs(Proc, Train, Options,
                                               ProcIndex);
  std::vector<uint8_t> Payload = encodeAlignment(Result);
  // FlushEveryStores must trigger the flush *outside* the lock (flush
  // retakes it); the flag decided under the lock keeps the counter
  // race-free across concurrent pipeline workers.
  bool NeedFlush = false;
  {
    std::lock_guard<std::mutex> Lock(Mutex);
    insertLocked(Key, std::move(Payload));
    ++Stats.Stores;
    Stats.StoreSeconds += Timer.seconds();
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
  CpuStopwatch Timer;
  std::lock_guard<std::mutex> Lock(Mutex);
  if (Dir.empty())
    return true;
  if (DiskDisabled)
    return true; // Downgraded to memory-only; nothing left to persist.

  std::vector<uint8_t> File;
  File.reserve(HeaderBytes);
  for (char C : StoreMagic)
    File.push_back(static_cast<uint8_t>(C));
  putU32(File, CacheFormatVersion);
  putU32(File, 0); // Reserved.
  for (const Fingerprint &Key : Lru) { // Oldest first: reload keeps LRU.
    const Entry &E = Entries.at(Key);
    putU64(File, Key.Hi);
    putU64(File, Key.Lo);
    putU32(File, static_cast<uint32_t>(E.Payload.size()));
    File.insert(File.end(), E.Payload.begin(), E.Payload.end());
    putU64(File,
           entryChecksum(Key.Hi, Key.Lo, E.Payload.data(), E.Payload.size()));
  }

  std::string TmpPath =
      Dir + "/" + StoreFileName + ".tmp." + std::to_string(::getpid());
  std::string FlushError;
  RetryOutcome Outcome = retryWithBackoff(
      Config.DiskRetry,
      [&](std::string *AttemptError) {
        // balign-shield fault site: a transient write failure anywhere
        // in the atomic tmp-write-then-rename, retried with bounded
        // backoff.
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
        int TmpFd = ::open(TmpPath.c_str(),
                           O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
        if (TmpFd < 0) {
          if (AttemptError)
            *AttemptError = "cannot open '" + TmpPath + "': " +
                            std::strerror(errno);
          return false;
        }
        // balign-sentinel crash site: die with the tmp file half written.
        // The half-file carries the tmp suffix, so the live store under
        // the final name is untouched and the next run ignores the husk.
        size_t Half = File.size() / 2;
        bool Written = writeAll(TmpFd, File.data(), Half);
        if (Written)
          CrashInjector::instance().crashPoint(CrashSite::CacheTmpWrite);
        Written = Written &&
                  writeAll(TmpFd, File.data() + Half, File.size() - Half);
        // fsync before rename: without it the rename can land while the
        // tmp file's data is still only in the page cache, and a power
        // cut then leaves a torn file under the *final* name.
        if (Written && Config.Durable == Durability::Full)
          Written = fsyncFd(TmpFd);
        ::close(TmpFd);
        if (!Written) {
          std::filesystem::remove(TmpPath, Ec);
          if (AttemptError)
            *AttemptError = "cannot write '" + TmpPath + "': " +
                            std::strerror(errno);
          return false;
        }
        // balign-sentinel crash site: tmp file durable, rename not yet
        // issued — the old store (if any) must still load cleanly.
        CrashInjector::instance().crashPoint(CrashSite::CachePreRename);
        std::filesystem::rename(TmpPath, Dir + "/" + StoreFileName, Ec);
        if (Ec) {
          std::filesystem::remove(TmpPath, Ec);
          if (AttemptError)
            *AttemptError = "cannot replace store file in '" + Dir +
                            "': " + Ec.message();
          return false;
        }
        // balign-sentinel crash site: rename issued but the directory
        // not yet fsync'd — either the old or the new store is visible,
        // both complete.
        CrashInjector::instance().crashPoint(CrashSite::CachePostRename);
        if (Config.Durable == Durability::Full)
          fsyncParentDirectory(Dir + "/" + StoreFileName); // Best effort.
        return true;
      },
      &FlushError, Config.RetrySleep);
  if (Outcome.Attempts > 1) {
    Stats.Retries += Outcome.Attempts - 1;
    scopeGaugeAdd("cache.retries", Outcome.Attempts - 1);
  }
  Stats.StoreSeconds += Timer.seconds();
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
