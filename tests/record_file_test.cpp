//===- tests/record_file_test.cpp - Record-file scan and parser fuzzing ---===//
//
// The shared record-file format behind the cache store and the
// checkpoint journal (robust/Journal.h). The scan is checked state by
// state, then both parsers are fuzzed from real files: a flushed cache
// store and a written journal take seeded byte flips, truncations,
// rewritten record length fields, appended garbage and swapped records,
// and are reopened. No case may crash or over-read (the sanitizer builds
// run these too) or take more than a bounded time; every cache hit must
// still equal the no-cache truth; the journal may only ever return a
// prefix of the records that were written.
//
//===--------------------------------------------------------------------===//

#include "robust/Journal.h"

#include "align/Pipeline.h"
#include "cache/Store.h"
#include "profile/Trace.h"
#include "support/Bytes.h"
#include "workloads/Generator.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

using namespace balign;

namespace {

constexpr std::string_view TestMagic = "BALNTEST";
constexpr size_t HeaderBytes = 16; ///< magic[8] + version u32 + reserved u32.

/// Wall-clock ceiling for one fuzz case (write, reopen, look up, flush).
/// A case takes milliseconds; only unbounded work could come near it.
constexpr double MaxCaseSeconds = 5.0;

std::string recordFile(const std::vector<std::string> &Records) {
  std::string File = recordFileHeader(TestMagic, 3);
  for (const std::string &R : Records)
    appendRecord(File, R);
  return File;
}

std::vector<std::string> strings(const std::vector<std::string_view> &Views) {
  return std::vector<std::string>(Views.begin(), Views.end());
}

void writeFile(const std::string &Path, const std::string &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(Bytes.data(), static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Boundaries of the record frames ([u32 size][bytes][u64 checksum])
/// found by walking the size fields from the header on: frame I spans
/// [B[I], B[I+1]). The file is fully framed iff B.back() == its size.
std::vector<size_t> frameBoundaries(const std::string &File) {
  std::vector<size_t> Bounds;
  size_t Pos = HeaderBytes;
  uint32_t Size = 0;
  while (Pos < File.size() &&
         ByteReader(std::string_view(File).substr(Pos)).u32(Size)) {
    Bounds.push_back(Pos);
    Pos += 4 + static_cast<size_t>(Size) + 8;
  }
  Bounds.push_back(Pos);
  return Bounds;
}

enum class Mutation {
  FlipBytes,
  Truncate,
  RewriteLength,
  AppendGarbage,
  SwapRecords,
};

/// Applies one seeded mutation of \p Kind to \p File.
void mutate(std::string &File, Mutation Kind, Rng &R) {
  std::vector<size_t> B = frameBoundaries(File);
  size_t Frames = B.size() - 1;
  switch (Kind) {
  case Mutation::FlipBytes:
    if (File.empty())
      return;
    for (size_t N = 1 + R.nextIndex(4); N != 0; --N)
      File[R.nextIndex(File.size())] ^= static_cast<char>(1 + R.nextIndex(255));
    return;
  case Mutation::Truncate:
    if (!File.empty())
      File.resize(R.nextIndex(File.size()));
    return;
  case Mutation::RewriteLength: {
    if (Frames == 0)
      return;
    size_t At = B[R.nextIndex(Frames)];
    uint32_t Real = 0;
    ByteReader(std::string_view(File).substr(At)).u32(Real);
    const uint32_t Choices[] = {0,
                                Real - 1,
                                Real + 1,
                                static_cast<uint32_t>(R.nextIndex(64)),
                                MaxRecordBytes,
                                MaxRecordBytes + 1,
                                static_cast<uint32_t>(R.next())};
    std::string Size;
    putU32(Size, Choices[R.nextIndex(std::size(Choices))]);
    File.replace(At, 4, Size);
    return;
  }
  case Mutation::AppendGarbage:
    for (size_t N = 1 + R.nextIndex(64); N != 0; --N)
      File.push_back(static_cast<char>(R.nextIndex(256)));
    return;
  case Mutation::SwapRecords: {
    if (Frames < 2 || B.back() != File.size())
      return;
    size_t I = R.nextIndex(Frames - 1);
    size_t J = I + 1 + R.nextIndex(Frames - I - 1);
    File = File.substr(0, B[I]) + File.substr(B[J], B[J + 1] - B[J]) +
           File.substr(B[I + 1], B[J] - B[I + 1]) +
           File.substr(B[I], B[I + 1] - B[I]) + File.substr(B[J + 1]);
    return;
  }
  }
}

/// A small program plus matching profile and the no-cache alignment of
/// every procedure (the cache_store_test workload shape).
struct Workload {
  Program Prog{"record_fuzz"};
  ProgramProfile Train;
  AlignmentOptions Options;
  ProgramAlignment Truth;
};

Workload makeWorkload(size_t NumProcs) {
  Workload W;
  for (size_t P = 0; P != NumProcs; ++P) {
    Rng R(42 + P);
    GenParams Params;
    Params.TargetBranchSites = 4 + P % 3;
    W.Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  for (size_t P = 0; P != NumProcs; ++P) {
    const Procedure &Proc = W.Prog.proc(P);
    Rng TraceRng(42 * 31 + P);
    W.Train.Procs.push_back(walkProfile(Proc, BranchBehavior::uniform(Proc),
                                        TraceRng, 300));
  }
  W.Truth = alignProgram(W.Prog, W.Train, W.Options);
  return W;
}

bool sameAlignment(const ProcedureAlignment &A, const ProcedureAlignment &B) {
  return A.OriginalLayout.Order == B.OriginalLayout.Order &&
         A.GreedyLayout.Order == B.GreedyLayout.Order &&
         A.TspLayout.Order == B.TspLayout.Order &&
         A.OriginalPenalty == B.OriginalPenalty &&
         A.GreedyPenalty == B.GreedyPenalty &&
         A.TspPenalty == B.TspPenalty &&
         std::memcmp(&A.Bounds.HeldKarp, &B.Bounds.HeldKarp,
                     sizeof(A.Bounds.HeldKarp)) == 0 &&
         A.Bounds.Assignment == B.Bounds.Assignment &&
         A.Bounds.AssignmentCycles == B.Bounds.AssignmentCycles &&
         A.SolverRuns == B.SolverRuns &&
         A.RunsFindingBest == B.RunsFindingBest;
}

double secondsSince(std::chrono::steady_clock::time_point Start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       Start)
      .count();
}

} // namespace

TEST(RecordFileTest, ScanClassifiesEveryHeaderState) {
  std::string File = recordFile({"a", "bc"});
  EXPECT_EQ(RecordHeader::Missing, scanRecordFile("", TestMagic, 3).Header);
  for (size_t Cut = 1; Cut != HeaderBytes; ++Cut)
    EXPECT_EQ(RecordHeader::Torn,
              scanRecordFile(File.substr(0, Cut), TestMagic, 3).Header)
        << "cut=" << Cut;
  EXPECT_EQ(RecordHeader::Foreign,
            scanRecordFile("BALNTESX", TestMagic, 3).Header);
  EXPECT_EQ(RecordHeader::Foreign,
            scanRecordFile(File, "BALNCACH", 3).Header);
  EXPECT_EQ(RecordHeader::Foreign,
            scanRecordFile("plain text line\n", TestMagic, 3).Header);
  RecordScan Old = scanRecordFile(File, TestMagic, 4);
  EXPECT_EQ(RecordHeader::WrongVersion, Old.Header);
  EXPECT_EQ(3u, Old.Version);
  EXPECT_TRUE(Old.Records.empty());

  RecordScan Ok = scanRecordFile(File, TestMagic, 3);
  EXPECT_EQ(RecordHeader::Ok, Ok.Header);
  EXPECT_EQ(RecordTail::Clean, Ok.Tail);
  EXPECT_EQ((std::vector<std::string>{"a", "bc"}), strings(Ok.Records));
  EXPECT_EQ(0u, Ok.BadRecords);
  EXPECT_EQ(2u, Ok.PrefixRecords);
  EXPECT_EQ(File.size(), Ok.PrefixBytes);
}

TEST(RecordFileTest, ScanSkipsBadRecordsAndReportsTheTail) {
  std::string File = recordFile({"one", "two", "three"});
  size_t Second = HeaderBytes + 4 + 3 + 8;

  // A checksum-bad record is skipped, the scan resyncs on its size field,
  // and the defect-free prefix ends where it starts.
  std::string Rotted = File;
  Rotted[Second + 4] ^= 0x20;
  RecordScan Bad = scanRecordFile(Rotted, TestMagic, 3);
  EXPECT_EQ((std::vector<std::string>{"one", "three"}), strings(Bad.Records));
  EXPECT_EQ(1u, Bad.BadRecords);
  EXPECT_EQ(RecordTail::Clean, Bad.Tail);
  EXPECT_EQ(1u, Bad.PrefixRecords);
  EXPECT_EQ(Second, Bad.PrefixBytes);

  // A cut inside the last record is a torn tail.
  RecordScan Torn = scanRecordFile(
      std::string_view(File).substr(0, File.size() - 1), TestMagic, 3);
  EXPECT_EQ(RecordTail::Torn, Torn.Tail);
  EXPECT_EQ(2u, Torn.Records.size());
  EXPECT_EQ(2u, Torn.PrefixRecords);

  // A size field over the cap is corrupt: nothing after it can be framed.
  std::string Huge = File;
  std::string Size;
  putU32(Size, MaxRecordBytes + 1);
  Huge.replace(Second, 4, Size);
  RecordScan Corrupt = scanRecordFile(Huge, TestMagic, 3);
  EXPECT_EQ(RecordTail::Corrupt, Corrupt.Tail);
  EXPECT_EQ((std::vector<std::string>{"one"}), strings(Corrupt.Records));
  EXPECT_EQ(Second, Corrupt.PrefixBytes);
}

TEST(RecordFuzzTest, CacheStoreHitsAlwaysEqualTheTruth) {
  Workload W = makeWorkload(4);
  TempDir Dir("recordfile_cache");
  std::string Path = Dir / AlignmentCache::StoreFileName;
  {
    AlignmentCache Cache(Dir.path());
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P)
      Cache.store(W.Prog.proc(P), W.Train.Procs[P], W.Options, P,
                  W.Truth.Procs[P]);
    ASSERT_TRUE(Cache.flush());
  }
  std::string Base;
  ASSERT_TRUE(readFileBytes(Path, Base));
  ASSERT_EQ(5u, frameBoundaries(Base).size());

  Rng R(2026);
  size_t Hits = 0;
  double Slowest = 0.0;
  for (int Case = 0; Case != 300; ++Case) {
    // One to three stacked mutations of any kind: whatever the bytes,
    // the store may only ever serve the truth or miss.
    std::string File = Base;
    for (size_t N = 1 + R.nextIndex(3); N != 0; --N)
      mutate(File, static_cast<Mutation>(R.nextIndex(5)), R);
    writeFile(Path, File);

    auto Start = std::chrono::steady_clock::now();
    AlignmentCache Cache(Dir.path());
    for (size_t P = 0; P != W.Prog.numProcedures(); ++P) {
      ProcedureAlignment Out;
      if (!Cache.lookup(W.Prog.proc(P), W.Train.Procs[P], W.Options, P,
                        Out))
        continue;
      ++Hits;
      EXPECT_TRUE(sameAlignment(W.Truth.Procs[P], Out))
          << "case " << Case << " proc " << P;
    }
    // Whatever the load salvaged, the next flush writes a clean store.
    ASSERT_TRUE(Cache.flush()) << "case " << Case;
    AlignmentCache Repaired(Dir.path());
    EXPECT_EQ(0u, Repaired.stats().Invalidations) << "case " << Case;
    EXPECT_EQ(0u, Repaired.stats().LoadFailures) << "case " << Case;
    Slowest = std::max(Slowest, secondsSince(Start));
  }
  EXPECT_GT(Hits, 0u);
  EXPECT_LT(Slowest, MaxCaseSeconds);
}

TEST(RecordFuzzTest, JournalOnlyEverReturnsAPrefixOfWhatWasWritten) {
  const std::vector<std::string> Written{
      "examples/data/interp_like.cfg", "b.cfg", "",
      "a/much/longer/path/to/some/program.cfg", "x", "last.cfg"};
  TempDir Dir("recordfile_journal");
  std::string Path = Dir / "checkpoint";
  {
    AppendJournal J;
    std::string Error;
    ASSERT_TRUE(J.open(Path, &Error)) << Error;
    for (const std::string &Record : Written)
      ASSERT_TRUE(J.append(Record, &Error)) << Error;
  }
  std::string Base;
  ASSERT_TRUE(readFileBytes(Path, Base));

  Rng R(1997);
  double Slowest = 0.0;
  for (int Case = 0; Case != 600; ++Case) {
    // One mutation per case, never a swap: records are checksummed one
    // by one, so a swapped pair reads back reordered. No crash can do
    // that (appends are sequential and only the tail tears), while a cut
    // below the header stacked with a flip can leave a short NUL-free
    // file that is, byte for byte, a legal plain-line checkpoint.
    std::string File = Base;
    mutate(File, static_cast<Mutation>(R.nextIndex(4)), R);
    writeFile(Path, File);

    auto Start = std::chrono::steady_clock::now();
    AppendJournal J;
    std::string Error;
    if (!J.open(Path, &Error)) {
      // Refused (another version, or not a journal at all): untouched.
      std::string After;
      ASSERT_TRUE(readFileBytes(Path, After));
      EXPECT_EQ(File, After) << "case " << Case << ": " << Error;
      continue;
    }
    EXPECT_FALSE(J.stats().MigratedLegacy) << "case " << Case;
    ASSERT_LE(J.records().size(), Written.size()) << "case " << Case;
    EXPECT_TRUE(
        std::equal(J.records().begin(), J.records().end(), Written.begin()))
        << "case " << Case;

    // The salvage is physical: an append lands on a clean boundary and a
    // reopen sees exactly the repaired history.
    ASSERT_TRUE(J.append("resumed.cfg", &Error)) << "case " << Case;
    J.close();
    AppendJournal Again;
    ASSERT_TRUE(Again.open(Path, &Error)) << "case " << Case << ": "
                                          << Error;
    EXPECT_EQ(J.records(), Again.records()) << "case " << Case;
    EXPECT_FALSE(Again.stats().RecoveredTail) << "case " << Case;
    Slowest = std::max(Slowest, secondsSince(Start));
  }
  EXPECT_LT(Slowest, MaxCaseSeconds);
}
