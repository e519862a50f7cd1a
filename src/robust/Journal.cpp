//===- robust/Journal.cpp -------------------------------------------------===//

#include "robust/Journal.h"

#include "robust/CrashInjector.h"
#include "robust/Durability.h"
#include "robust/FaultInjector.h"
#include "support/Bytes.h"
#include "support/Hash.h"

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

using namespace balign;

const char AppendJournal::Magic[8] = {'B', 'A', 'L', 'N',
                                      'J', 'R', 'N', 'L'};

namespace {

constexpr std::string_view JournalMagic(AppendJournal::Magic,
                                        sizeof(AppendJournal::Magic));

} // namespace

uint64_t balign::journalChecksum(const void *Data, size_t Size) {
  // FNV-1a with a splitmix64 finalizer: cheap, and a single flipped bit
  // anywhere in the record flips about half the checksum.
  return splitMix64Mix(fnv1a64(Data, Size));
}

RecordScan balign::scanRecordFile(std::string_view Bytes,
                                  std::string_view Magic, uint32_t Version) {
  RecordScan Scan;
  if (Bytes.empty())
    return Scan;
  ByteReader In(Bytes);
  std::string_view FoundMagic;
  uint32_t Reserved = 0;
  if (!In.bytes(Magic.size(), FoundMagic) || !In.u32(Scan.Version) ||
      !In.u32(Reserved)) {
    Scan.Header = Magic.starts_with(Bytes.substr(0, Magic.size()))
                      ? RecordHeader::Torn
                      : RecordHeader::Foreign;
    return Scan;
  }
  if (FoundMagic != Magic) {
    Scan.Header = RecordHeader::Foreign;
    return Scan;
  }
  if (Scan.Version != Version) {
    Scan.Header = RecordHeader::WrongVersion;
    return Scan;
  }
  Scan.Header = RecordHeader::Ok;
  Scan.PrefixBytes = In.pos();
  while (!In.atEnd()) {
    uint32_t Size = 0;
    std::string_view Record;
    uint64_t Checksum = 0;
    if (!In.u32(Size)) {
      Scan.Tail = RecordTail::Torn;
      break;
    }
    if (Size > MaxRecordBytes) {
      Scan.Tail = RecordTail::Corrupt;
      break;
    }
    if (!In.bytes(Size, Record) || !In.u64(Checksum)) {
      Scan.Tail = RecordTail::Torn;
      break;
    }
    if (Checksum != journalChecksum(Record.data(), Record.size())) {
      ++Scan.BadRecords;
      continue;
    }
    Scan.Records.push_back(Record);
    if (Scan.BadRecords == 0) {
      Scan.PrefixRecords = Scan.Records.size();
      Scan.PrefixBytes = In.pos();
    }
  }
  return Scan;
}

std::string balign::recordFileHeader(std::string_view Magic,
                                     uint32_t Version) {
  std::string Out(Magic);
  putU32(Out, Version);
  putU32(Out, 0); // Reserved.
  return Out;
}

void balign::appendRecord(std::string &Out, std::string_view Record) {
  putU32(Out, static_cast<uint32_t>(Record.size()));
  Out += Record;
  putU64(Out, journalChecksum(Record.data(), Record.size()));
}

bool balign::readFileBytes(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  // Streamed into one growing buffer that is then moved out, so a large
  // store is never held twice.
  std::ostringstream Bytes;
  Bytes << In.rdbuf();
  Out = std::move(Bytes).str();
  return true;
}

bool balign::replaceFileAtomically(const std::string &Path,
                                   std::string_view Bytes,
                                   std::string *Error) {
  std::string TmpPath = Path + ".tmp." + std::to_string(::getpid());
  auto fail = [&](const std::string &What) {
    if (Error)
      *Error = What + ": " + std::strerror(errno);
    ::unlink(TmpPath.c_str());
    return false;
  };
  int Fd = ::open(TmpPath.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (Fd < 0)
    return fail("cannot open '" + TmpPath + "'");
  // balign-sentinel crash site: die with the tmp file half written. The
  // half-file carries the tmp suffix, so the file under the final name is
  // untouched and the next reader never sees the husk.
  size_t Half = Bytes.size() / 2;
  bool Written = writeAll(Fd, Bytes.data(), Half);
  if (Written)
    CrashInjector::instance().crashPoint(CrashSite::CacheTmpWrite);
  // fsync before rename: without it the rename can land while the tmp
  // file's data is still only in the page cache, and a power cut then
  // leaves a torn file under the *final* name.
  Written = Written &&
            writeAll(Fd, Bytes.data() + Half, Bytes.size() - Half) &&
            fsyncFd(Fd);
  int WriteErrno = errno;
  ::close(Fd);
  if (!Written) {
    errno = WriteErrno;
    return fail("cannot write '" + TmpPath + "'");
  }
  // balign-sentinel crash site: tmp file durable, rename not yet issued —
  // the old file (if any) must still read cleanly.
  CrashInjector::instance().crashPoint(CrashSite::CachePreRename);
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0)
    return fail("cannot rename '" + TmpPath + "' over '" + Path + "'");
  // balign-sentinel crash site: rename issued but the directory not yet
  // fsync'd — either the old or the new file is visible, both complete.
  CrashInjector::instance().crashPoint(CrashSite::CachePostRename);
  fsyncParentDirectory(Path); // Best effort: the data is already in place.
  return true;
}

std::string JournalStats::summary() const {
  char Buffer[192];
  std::snprintf(Buffer, sizeof(Buffer),
                "records=%llu torn-bytes=%llu recovered=%d migrated=%d "
                "appends=%llu append-failures=%llu",
                static_cast<unsigned long long>(Records),
                static_cast<unsigned long long>(TornBytes),
                RecoveredTail ? 1 : 0, MigratedLegacy ? 1 : 0,
                static_cast<unsigned long long>(Appends),
                static_cast<unsigned long long>(AppendFailures));
  return Buffer;
}

void AppendJournal::close() {
  if (Fd >= 0) {
    ::close(Fd);
    Fd = -1;
  }
}

bool AppendJournal::writeHeaderLocked(std::string *Error) {
  std::string Header = recordFileHeader(JournalMagic, FormatVersion);
  if (!writeAll(Fd, Header.data(), Header.size()) || !fsyncFd(Fd) ||
      !fsyncParentDirectory(Path)) {
    if (Error)
      *Error = "cannot write journal header to '" + Path +
               "': " + std::strerror(errno);
    return false;
  }
  return true;
}

bool AppendJournal::migrateLegacy(const std::string &Contents,
                                  std::string *Error) {
  // A pre-sentinel checkpoint: raw text lines. Its entries become
  // records and the file is rewritten in journal format through the
  // atomic replace, so a kill mid-migration leaves either the old file
  // or the new one, never a hybrid.
  std::istringstream In(Contents);
  std::string Line;
  std::string NewContents = recordFileHeader(JournalMagic, FormatVersion);
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Records.push_back(Line);
    appendRecord(NewContents, Line);
  }
  Stats.MigratedLegacy = true;
  Stats.Records = Records.size();
  std::string ReplaceError;
  if (!replaceFileAtomically(Path, NewContents, &ReplaceError)) {
    if (Error)
      *Error = "cannot migrate legacy checkpoint '" + Path +
               "': " + ReplaceError;
    return false;
  }
  return true;
}

bool AppendJournal::open(const std::string &Path, std::string *Error) {
  close();
  Records.clear();
  Stats = JournalStats();
  this->Path = Path;

  // An unreadable file scans as missing; the open(2) below reports it.
  std::string Contents;
  readFileBytes(Path, Contents);
  RecordScan Scan = scanRecordFile(Contents, JournalMagic, FormatVersion);
  if (Scan.Header == RecordHeader::WrongVersion) {
    // Refuse rather than guess: silently clobbering a future-format
    // journal could re-run (or skip) someone's completed work.
    if (Error)
      *Error = "journal '" + Path + "' has unsupported version " +
               std::to_string(Scan.Version);
    return false;
  }
  bool IsLegacy = Scan.Header == RecordHeader::Foreign;
  if (IsLegacy && Contents.find('\0') != std::string::npos) {
    // A legacy checkpoint is lines of paths, and no path holds a NUL
    // byte, while every record-file header does (its reserved word is
    // zero). So a cache store, or a journal whose magic rotted, would
    // migrate into bogus records: refuse it and leave it untouched.
    if (Error)
      *Error = "'" + Path + "' is neither a checkpoint journal nor a "
                            "plain-line checkpoint";
    return false;
  }
  if (IsLegacy && !migrateLegacy(Contents, Error))
    return false;

  Fd = ::open(Path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (Fd < 0) {
    if (Error)
      *Error = "cannot open journal '" + Path + "': " +
               std::strerror(errno);
    return false;
  }
  if (IsLegacy)
    return true; // migrateLegacy already parsed and persisted.

  Records.assign(Scan.Records.begin(),
                 Scan.Records.begin() +
                     static_cast<std::ptrdiff_t>(Scan.PrefixRecords));
  Stats.Records = Records.size();
  if (Scan.PrefixBytes < Contents.size()) {
    // Truncate-and-salvage: drop the torn or bad tail (or a header cut
    // off during journal creation) now, so the next append starts at a
    // clean record boundary.
    Stats.RecoveredTail = true;
    Stats.TornBytes = Contents.size() - Scan.PrefixBytes;
    if (::ftruncate(Fd, static_cast<off_t>(Scan.PrefixBytes)) != 0 ||
        !fsyncFd(Fd)) {
      if (Error)
        *Error = "cannot truncate torn journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
  }
  if (Scan.Header != RecordHeader::Ok) // Missing, or torn at creation.
    return writeHeaderLocked(Error) || (close(), false);
  return true;
}

bool AppendJournal::append(const std::string &Record, std::string *Error) {
  if (Fd < 0) {
    if (Error)
      *Error = "journal is not open";
    ++Stats.AppendFailures;
    return false;
  }
  // balign-shield fault site: an injectable append failure, reported
  // through the error return like the cache's disk faults.
  if (FaultInjector::instance().shouldFail(FaultSite::JournalAppend)) {
    if (Error)
      *Error = "injected fault at 'journal.append'";
    ++Stats.AppendFailures;
    return false;
  }

  std::string Encoded;
  appendRecord(Encoded, Record);
  off_t Before = ::lseek(Fd, 0, SEEK_END);
  // balign-sentinel crash site: die with only half the record written —
  // the torn tail open()'s salvage must truncate away.
  size_t Half = Encoded.size() / 2;
  bool Ok = writeAll(Fd, Encoded.data(), Half);
  if (Ok)
    CrashInjector::instance().crashPoint(CrashSite::CheckpointAppend);
  Ok = Ok && writeAll(Fd, Encoded.data() + Half, Encoded.size() - Half) &&
       fsyncFd(Fd);
  if (!Ok) {
    if (Error)
      *Error = "cannot append to journal '" + Path + "': " +
               std::strerror(errno);
    // A partial in-process write would poison every later record on
    // reload (the scan stops at the first bad one), so roll the file
    // back to the last clean boundary immediately.
    if (Before >= 0 && ::ftruncate(Fd, Before) == 0)
      fsyncFd(Fd);
    ++Stats.AppendFailures;
    return false;
  }
  Records.push_back(Record);
  ++Stats.Appends;
  return true;
}
