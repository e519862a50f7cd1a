//===- tests/cache_store_test.cpp - Persistent cache store tests ----------===//
//
// Exercises the balign-cache store against the failure modes it promises
// to survive: bit rot, truncation, format drift, tampering that forges a
// valid checksum, leftover tmp files from dead writers, and LRU pressure.
// Every bad entry must degrade to a miss (recompute), never a wrong hit.
//
//===--------------------------------------------------------------------===//

#include "cache/Store.h"

#include "align/Pipeline.h"
#include "profile/Trace.h"
#include "robust/Journal.h"
#include "workloads/Generator.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <fstream>

using namespace balign;

namespace {

/// A small program plus matching profile and the no-cache alignment of
/// every procedure — the ground truth the cache must reproduce exactly.
struct Workload {
  Program Prog{"store_test"};
  ProgramProfile Train;
  AlignmentOptions Options;
  ProgramAlignment Truth;
};

Workload makeWorkload(size_t NumProcs, uint64_t Seed = 42) {
  Workload W;
  for (size_t P = 0; P != NumProcs; ++P) {
    Rng R(Seed + P);
    GenParams Params;
    Params.TargetBranchSites = 4 + P % 3;
    W.Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  for (size_t P = 0; P != NumProcs; ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    Rng TraceRng(Seed * 31 + P);
    W.Train.Procs.push_back(walkProfile(Proc, BranchBehavior::uniform(Proc),
                                        TraceRng, 400));
  }
  W.Truth = alignProgram(W.Prog, W.Train, W.Options);
  return W;
}

void expectAlignmentEq(const ProcedureAlignment &A,
                       const ProcedureAlignment &B) {
  EXPECT_EQ(A.OriginalLayout.Order, B.OriginalLayout.Order);
  EXPECT_EQ(A.GreedyLayout.Order, B.GreedyLayout.Order);
  EXPECT_EQ(A.TspLayout.Order, B.TspLayout.Order);
  EXPECT_EQ(A.OriginalPenalty, B.OriginalPenalty);
  EXPECT_EQ(A.GreedyPenalty, B.GreedyPenalty);
  EXPECT_EQ(A.TspPenalty, B.TspPenalty);
  EXPECT_EQ(0, std::memcmp(&A.Bounds.HeldKarp, &B.Bounds.HeldKarp,
                           sizeof(A.Bounds.HeldKarp)));
  EXPECT_EQ(A.Bounds.Assignment, B.Bounds.Assignment);
  EXPECT_EQ(A.Bounds.AssignmentCycles, B.Bounds.AssignmentCycles);
  EXPECT_EQ(A.SolverRuns, B.SolverRuns);
  EXPECT_EQ(A.RunsFindingBest, B.RunsFindingBest);
}

/// Fills a cache with every procedure of \p W.
void storeAll(AlignmentCache &Cache, const Workload &W) {
  for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
    Cache.store(W.Prog.proc(P), W.Train.Procs[P], W.Options, P,
                W.Truth.Procs[P]);
}

/// Looks up procedure \p P and, on a hit, checks it against the truth.
bool lookupOne(AlignmentCache &Cache, const Workload &W, size_t P) {
  ProcedureAlignment Out;
  if (!Cache.lookup(W.Prog.proc(P), W.Train.Procs[P], W.Options, P, Out))
    return false;
  expectAlignmentEq(Out, W.Truth.Procs[P]);
  return true;
}

std::string storePath(const TempDir &Dir) {
  return Dir / AlignmentCache::StoreFileName;
}

std::vector<uint8_t> readFile(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                             std::istreambuf_iterator<char>());
}

void writeFile(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

constexpr size_t HeaderBytes = 16; ///< magic[8] + version u32 + reserved u32.

uint64_t readU64(const std::vector<uint8_t> &File, size_t Pos) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(File[Pos + I]) << (8 * I);
  return V;
}

uint32_t readU32(const std::vector<uint8_t> &File, size_t Pos) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(File[Pos + I]) << (8 * I);
  return V;
}

void writeU64(std::vector<uint8_t> &File, size_t Pos, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    File[Pos + I] = static_cast<uint8_t>(V >> (8 * I));
}

/// Byte layout of the first entry in a store file: one record whose
/// bytes are the key (2 x u64) followed by the payload.
struct EntryView {
  size_t RecordSizePos = HeaderBytes;
  size_t KeyPos = HeaderBytes + 4;
  size_t PayloadPos = HeaderBytes + 20;
  uint32_t RecordSize = 0;
  uint32_t PayloadSize = 0;
  size_t ChecksumPos = 0;
};

EntryView firstEntry(const std::vector<uint8_t> &File) {
  EntryView E;
  E.RecordSize = readU32(File, E.RecordSizePos);
  E.PayloadSize = E.RecordSize - 16;
  E.ChecksumPos = E.KeyPos + E.RecordSize;
  return E;
}

} // namespace

TEST(CacheStoreTest, MemoryRoundtrip) {
  Workload W = makeWorkload(3);
  AlignmentCache Cache;
  EXPECT_FALSE(lookupOne(Cache, W, 0)); // Cold: everything misses.
  storeAll(Cache, W);
  for (size_t P = 0; P != 3; ++P)
    EXPECT_TRUE(lookupOne(Cache, W, P));
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Hits, 3u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Stores, 3u);
  EXPECT_EQ(S.Entries, 3u);
  EXPECT_EQ(S.Invalidations, 0u);
  EXPECT_NE(S.summary().find("hits=3"), std::string::npos);
}

TEST(CacheStoreTest, WrongIndexOrOptionsMiss) {
  Workload W = makeWorkload(1);
  AlignmentCache Cache;
  storeAll(Cache, W);

  // Same inputs under a different procedure index: different derived
  // seed, so a different key.
  ProcedureAlignment Out;
  EXPECT_FALSE(
      Cache.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options, 7, Out));

  AlignmentOptions Reseeded = W.Options;
  Reseeded.Solver.Seed += 1;
  EXPECT_FALSE(
      Cache.lookup(W.Prog.proc(0), W.Train.Procs[0], Reseeded, 0, Out));

  EXPECT_TRUE(lookupOne(Cache, W, 0));
}

TEST(CacheStoreTest, DiskFlushReopenHits) {
  Workload W = makeWorkload(3);
  TempDir Dir("cache_roundtrip");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    std::string Error;
    ASSERT_TRUE(Cache.flush(&Error)) << Error;
    EXPECT_GT(Cache.stats().BytesWritten, 0u);
  }
  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 3u);
  for (size_t P = 0; P != 3; ++P)
    EXPECT_TRUE(lookupOne(Reopened, W, P));
  EXPECT_EQ(Reopened.stats().Invalidations, 0u);
}

TEST(CacheStoreTest, FlushIsAtomicReplacement) {
  Workload W = makeWorkload(2);
  TempDir Dir("cache_atomic");
  AlignmentCache Cache(Dir.path());
  storeAll(Cache, W);
  ASSERT_TRUE(Cache.flush());
  ASSERT_TRUE(Cache.flush()); // Second flush replaces, never appends.
  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 2u);
  // No tmp files left behind by successful flushes.
  size_t TmpFiles = 0;
  for (const auto &E : std::filesystem::directory_iterator(Dir.path()))
    if (E.path().filename().string().find(".tmp.") != std::string::npos)
      ++TmpFiles;
  EXPECT_EQ(TmpFiles, 0u);
}

TEST(CacheStoreTest, BitFlippedEntryIsDroppedOthersSalvaged) {
  Workload W = makeWorkload(3);
  TempDir Dir("cache_bitflip");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  std::vector<uint8_t> File = readFile(storePath(Dir));
  EntryView E = firstEntry(File);
  File[E.PayloadPos + E.PayloadSize / 2] ^= 0xFF; // Rot inside entry 0.
  writeFile(storePath(Dir), File);

  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 2u); // Entries 1 and 2 salvaged.
  EXPECT_EQ(Reopened.stats().Invalidations, 1u);
  EXPECT_FALSE(lookupOne(Reopened, W, 0)); // The rotted entry is a miss...
  EXPECT_TRUE(lookupOne(Reopened, W, 1));  // ...the rest still hit.
  EXPECT_TRUE(lookupOne(Reopened, W, 2));
}

TEST(CacheStoreTest, TruncatedFileSalvagesPrefix) {
  Workload W = makeWorkload(3);
  TempDir Dir("cache_truncated");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  std::vector<uint8_t> File = readFile(storePath(Dir));
  File.resize(File.size() - 5); // Cut into the last entry's checksum.
  writeFile(storePath(Dir), File);

  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 2u);
  // Truncation (a crash or full disk cut the store short) is a load
  // failure, not a content invalidation: the preceding entries are
  // intact and the taxonomy must say "the file ended early".
  EXPECT_EQ(Reopened.stats().LoadFailures, 1u);
  EXPECT_EQ(Reopened.stats().Invalidations, 0u);
  size_t Hits = 0;
  for (size_t P = 0; P != 3; ++P)
    Hits += lookupOne(Reopened, W, P) ? 1 : 0;
  EXPECT_EQ(Hits, 2u);
}

TEST(CacheStoreTest, TruncationAtEveryByteOffset) {
  // Exhaustive crash-cut sweep: a store prefix of every possible length
  // must (a) salvage exactly the complete entries it contains, (b)
  // report exactly one load failure unless the cut falls on an entry
  // boundary (where the file is short but self-consistent), and (c)
  // never misclassify a truncation as a content invalidation.
  Workload W = makeWorkload(2);
  TempDir Dir("cache_everycut");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  std::vector<uint8_t> Full = readFile(storePath(Dir));

  // Walk the record framing (size u32 + key[16] and payload + checksum
  // u64) to find the clean cut points: end-of-header and each entry's
  // end.
  std::vector<size_t> Boundaries{HeaderBytes};
  size_t Pos = HeaderBytes;
  while (Pos < Full.size()) {
    uint32_t RecordSize = readU32(Full, Pos);
    Pos += 4 + RecordSize + 8;
    Boundaries.push_back(Pos);
  }
  ASSERT_EQ(Pos, Full.size());
  ASSERT_EQ(Boundaries.size(), 3u);

  for (size_t Cut = 0; Cut != Full.size(); ++Cut) {
    std::vector<uint8_t> File(Full.begin(), Full.begin() + Cut);
    writeFile(storePath(Dir), File);

    size_t CompleteEntries = 0;
    bool CleanCut = false;
    for (size_t B = 0; B != Boundaries.size(); ++B) {
      if (Cut >= Boundaries[B])
        CompleteEntries = B;
      CleanCut |= Cut == Boundaries[B];
    }

    AlignmentCache Reopened(Dir.path());
    CacheStats S = Reopened.stats();
    EXPECT_EQ(Reopened.size(), CompleteEntries) << "cut at " << Cut;
    EXPECT_EQ(S.LoadFailures, CleanCut ? 0u : 1u) << "cut at " << Cut;
    EXPECT_EQ(S.Invalidations, 0u) << "cut at " << Cut;
    EXPECT_EQ(S.Retries, 0u) << "cut at " << Cut;

    size_t Hits = 0;
    for (size_t P = 0; P != 2; ++P)
      Hits += lookupOne(Reopened, W, P) ? 1 : 0;
    EXPECT_EQ(Hits, CompleteEntries) << "cut at " << Cut;
  }
}

TEST(CacheStoreTest, HeaderTruncationDiscardsStore) {
  Workload W = makeWorkload(1);
  TempDir Dir("cache_headercut");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  std::vector<uint8_t> File = readFile(storePath(Dir));
  File.resize(HeaderBytes - 3);
  writeFile(storePath(Dir), File);
  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 0u);
  // The magic prefix still matches, so this is our store cut mid-header:
  // a truncation (load failure), not foreign content.
  EXPECT_EQ(Reopened.stats().LoadFailures, 1u);
  EXPECT_EQ(Reopened.stats().Invalidations, 0u);
}

TEST(CacheStoreTest, WrongVersionDiscardsWholesale) {
  Workload W = makeWorkload(2);
  TempDir Dir("cache_version");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  std::vector<uint8_t> File = readFile(storePath(Dir));
  uint32_t Bumped = CacheFormatVersion + 1;
  std::memcpy(File.data() + 8, &Bumped, sizeof(Bumped));
  writeFile(storePath(Dir), File);

  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 0u);
  EXPECT_EQ(Reopened.stats().Invalidations, 1u);
  EXPECT_FALSE(lookupOne(Reopened, W, 0));
  // A flush from the new session writes a clean current-version store.
  storeAll(Reopened, W);
  ASSERT_TRUE(Reopened.flush());
  AlignmentCache Again(Dir.path());
  EXPECT_EQ(Again.size(), 2u);
}

TEST(CacheStoreTest, WrongMagicDiscardsWholesale) {
  Workload W = makeWorkload(1);
  TempDir Dir("cache_magic");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  std::vector<uint8_t> File = readFile(storePath(Dir));
  File[0] ^= 0x20;
  writeFile(storePath(Dir), File);
  AlignmentCache Reopened(Dir.path());
  EXPECT_EQ(Reopened.size(), 0u);
  EXPECT_EQ(Reopened.stats().Invalidations, 1u);
}

TEST(CacheStoreTest, ForgedChecksumStillRejectedByValidation) {
  Workload W = makeWorkload(1);
  TempDir Dir("cache_forged");
  {
    AlignmentCache Cache(Dir.path());
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  // Tamper with the stored TSP penalty, then *recompute the checksum* so
  // the entry loads clean — validation must still refuse to serve it.
  std::vector<uint8_t> File = readFile(storePath(Dir));
  EntryView E = firstEntry(File);
  size_t NumBlocks = W.Prog.proc(0).numBlocks();
  size_t LayoutBytes = 4 + 4 * NumBlocks;
  size_t TspPenaltyPos = E.PayloadPos + 3 * LayoutBytes + 16;
  ASSERT_LT(TspPenaltyPos + 8, E.ChecksumPos);
  writeU64(File, TspPenaltyPos, readU64(File, TspPenaltyPos) + 1);
  writeU64(File, E.ChecksumPos,
           journalChecksum(File.data() + E.KeyPos, E.RecordSize));
  writeFile(storePath(Dir), File);

  AlignmentCache Reopened(Dir.path());
  ASSERT_EQ(Reopened.size(), 1u); // Checksum passes, so the entry loads...
  ProcedureAlignment Out;
  EXPECT_FALSE(Reopened.lookup(W.Prog.proc(0), W.Train.Procs[0], W.Options,
                               0, Out)); // ...but is never served.
  CacheStats S = Reopened.stats();
  EXPECT_EQ(S.Hits, 0u);
  EXPECT_EQ(S.Misses, 1u);
  EXPECT_EQ(S.Invalidations, 1u);
  EXPECT_EQ(Reopened.size(), 0u); // And it is dropped, not retried.
}

TEST(CacheStoreTest, RecordTooShortForItsKeyIsInvalidated) {
  // A checksum-clean record must still hold the 16-byte key; a shorter
  // one (forged, or written by something else) is damaged content.
  TempDir Dir("cache_shortkey");
  std::string File = recordFileHeader("BALNCACH", CacheFormatVersion);
  appendRecord(File, "short");
  writeFile(storePath(Dir), std::vector<uint8_t>(File.begin(), File.end()));
  AlignmentCache Cache(Dir.path());
  EXPECT_EQ(Cache.size(), 0u);
  EXPECT_EQ(Cache.stats().Invalidations, 1u);
  EXPECT_EQ(Cache.stats().LoadFailures, 0u);
}

TEST(CacheStoreTest, StaleTmpFilesAreHarmless) {
  Workload W = makeWorkload(1);
  TempDir Dir("cache_staletmp");
  // Simulate a writer that died mid-flush before the rename.
  std::vector<uint8_t> Garbage(128, 0xAB);
  writeFile(Dir / AlignmentCache::StoreFileName + ".tmp.99999",
            Garbage);

  AlignmentCache Cache(Dir.path());
  EXPECT_EQ(Cache.size(), 0u); // Tmp leftovers are not the store.
  storeAll(Cache, W);
  ASSERT_TRUE(Cache.flush());
  AlignmentCache Reopened(Dir.path());
  EXPECT_TRUE(lookupOne(Reopened, W, 0));
}

TEST(CacheStoreTest, MissingDirectoryIsColdNotFatal) {
  Workload W = makeWorkload(1);
  TempDir Root("cache_missing");
  std::string Dir = Root / "nested/deeper";
  AlignmentCache Cache(Dir); // Directory does not exist yet.
  EXPECT_FALSE(lookupOne(Cache, W, 0));
  storeAll(Cache, W);
  std::string Error;
  ASSERT_TRUE(Cache.flush(&Error)) << Error; // flush() creates it.
  AlignmentCache Reopened(Dir);
  EXPECT_TRUE(lookupOne(Reopened, W, 0));
}

TEST(CacheStoreTest, LruEvictsOldestFirst) {
  Workload W = makeWorkload(6);
  AlignmentCacheConfig Config;
  Config.MaxEntries = 4;
  AlignmentCache Cache(Config);
  storeAll(Cache, W);

  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Stores, 6u);
  EXPECT_EQ(S.Evictions, 2u);
  EXPECT_EQ(S.Entries, 4u);
  EXPECT_FALSE(lookupOne(Cache, W, 0)); // The two oldest were evicted.
  EXPECT_FALSE(lookupOne(Cache, W, 1));
  for (size_t P = 2; P != 6; ++P)
    EXPECT_TRUE(lookupOne(Cache, W, P));
}

TEST(CacheStoreTest, LookupRefreshesLruRecency) {
  Workload W = makeWorkload(5);
  AlignmentCacheConfig Config;
  Config.MaxEntries = 4;
  AlignmentCache Cache(Config);
  for (size_t P = 0; P != 4; ++P)
    Cache.store(W.Prog.proc(P), W.Train.Procs[P], W.Options, P,
                W.Truth.Procs[P]);
  EXPECT_TRUE(lookupOne(Cache, W, 0)); // 0 becomes the most recent...
  Cache.store(W.Prog.proc(4), W.Train.Procs[4], W.Options, 4,
              W.Truth.Procs[4]);
  EXPECT_TRUE(lookupOne(Cache, W, 0));  // ...so it survives the eviction
  EXPECT_FALSE(lookupOne(Cache, W, 1)); // and 1 is the victim instead.
}

TEST(CacheStoreTest, PayloadByteBoundEvicts) {
  Workload W = makeWorkload(4);
  AlignmentCacheConfig Config;
  Config.MaxPayloadBytes = 1; // Every insert immediately overflows.
  AlignmentCache Cache(Config);
  storeAll(Cache, W);
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Entries, 0u);
  EXPECT_EQ(S.Evictions, 4u);
}

TEST(CacheStoreTest, DiskEvictionCompactsOnFlush) {
  Workload W = makeWorkload(6);
  TempDir Dir("cache_compact");
  AlignmentCacheConfig Config;
  Config.MaxEntries = 2;
  {
    AlignmentCache Cache(Dir.path(), Config);
    storeAll(Cache, W);
    ASSERT_TRUE(Cache.flush());
  }
  AlignmentCache Reopened(Dir.path(), Config);
  EXPECT_EQ(Reopened.size(), 2u);
  EXPECT_TRUE(lookupOne(Reopened, W, 4));
  EXPECT_TRUE(lookupOne(Reopened, W, 5));
}
