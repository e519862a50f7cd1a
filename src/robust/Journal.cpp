//===- robust/Journal.cpp -------------------------------------------------===//

#include "robust/Journal.h"

#include "robust/CrashInjector.h"
#include "robust/Durability.h"
#include "robust/FaultInjector.h"
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

constexpr size_t HeaderBytes = sizeof(AppendJournal::Magic) +
                               2 * sizeof(uint32_t);
/// Checkpoint records are file paths; anything near this is a corrupt
/// length field, not a record.
constexpr uint32_t MaxRecordBytes = 1u << 20;
/// Bytes around one record beyond its payload (u32 size + u64 checksum).
constexpr size_t RecordOverheadBytes = sizeof(uint32_t) + sizeof(uint64_t);

void putU32(std::string &Out, uint32_t V) {
  for (int I = 0; I != 4; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

void putU64(std::string &Out, uint64_t V) {
  for (int I = 0; I != 8; ++I)
    Out.push_back(static_cast<char>(V >> (8 * I)));
}

uint32_t readU32(const char *P) {
  uint32_t V = 0;
  for (int I = 0; I != 4; ++I)
    V |= static_cast<uint32_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

uint64_t readU64(const char *P) {
  uint64_t V = 0;
  for (int I = 0; I != 8; ++I)
    V |= static_cast<uint64_t>(static_cast<uint8_t>(P[I])) << (8 * I);
  return V;
}

std::string headerBytes() {
  std::string Out(AppendJournal::Magic, sizeof(AppendJournal::Magic));
  putU32(Out, AppendJournal::FormatVersion);
  putU32(Out, 0); // Reserved.
  return Out;
}

std::string encodeRecord(const std::string &Record) {
  std::string Out;
  putU32(Out, static_cast<uint32_t>(Record.size()));
  Out += Record;
  putU64(Out, journalChecksum(Record.data(), Record.size()));
  return Out;
}

} // namespace

uint64_t balign::journalChecksum(const void *Data, size_t Size) {
  // FNV-1a with a splitmix64 finalizer: cheap, and a single flipped bit
  // anywhere in the record flips about half the checksum.
  return splitMix64Mix(fnv1a64(Data, Size));
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
  std::string Header = headerBytes();
  if (!writeAll(Fd, Header.data(), Header.size())) {
    if (Error)
      *Error = "cannot write journal header to '" + Path +
               "': " + std::strerror(errno);
    return false;
  }
  if (Durable == Durability::Full &&
      (!fsyncFd(Fd) || !fsyncParentDirectory(Path))) {
    if (Error)
      *Error = "cannot fsync journal '" + Path + "': " +
               std::strerror(errno);
    return false;
  }
  return true;
}

bool AppendJournal::migrateLegacy(const std::string &Contents,
                                  std::string *Error) {
  // A pre-sentinel checkpoint: raw text lines. Its entries become
  // records and the file is rewritten in journal format through the
  // same fsync'd tmp-write-then-rename discipline the cache store uses,
  // so a kill mid-migration leaves either the old file or the new one,
  // never a hybrid.
  std::istringstream In(Contents);
  std::string Line;
  std::string NewContents = headerBytes();
  while (std::getline(In, Line)) {
    if (Line.empty())
      continue;
    Records.push_back(Line);
    NewContents += encodeRecord(Line);
  }
  Stats.MigratedLegacy = true;
  Stats.Records = Records.size();

  std::string TmpPath = Path + ".tmp." + std::to_string(::getpid());
  int TmpFd = ::open(TmpPath.c_str(),
                     O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (TmpFd < 0 || !writeAll(TmpFd, NewContents.data(),
                             NewContents.size()) ||
      (Durable == Durability::Full && !fsyncFd(TmpFd))) {
    if (Error)
      *Error = "cannot migrate legacy checkpoint '" + Path +
               "': " + std::strerror(errno);
    if (TmpFd >= 0)
      ::close(TmpFd);
    ::unlink(TmpPath.c_str());
    return false;
  }
  ::close(TmpFd);
  if (::rename(TmpPath.c_str(), Path.c_str()) != 0) {
    if (Error)
      *Error = "cannot replace legacy checkpoint '" + Path +
               "': " + std::strerror(errno);
    ::unlink(TmpPath.c_str());
    return false;
  }
  if (Durable == Durability::Full)
    fsyncParentDirectory(Path); // Best effort: data already renamed in.
  return true;
}

bool AppendJournal::open(const std::string &Path, std::string *Error) {
  close();
  Records.clear();
  Stats = JournalStats();
  this->Path = Path;

  std::string Contents;
  {
    std::ifstream In(Path, std::ios::binary);
    if (In)
      Contents.assign((std::istreambuf_iterator<char>(In)),
                      std::istreambuf_iterator<char>());
  }

  bool IsLegacy =
      !Contents.empty() &&
      std::memcmp(Contents.data(), Magic,
                  std::min(Contents.size(), sizeof(Magic))) != 0;
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

  if (Contents.empty())
    return writeHeaderLocked(Error) || (close(), false);

  if (Contents.size() < HeaderBytes) {
    // Our magic, cut off mid-header: a kill during journal creation.
    // Start over from scratch; there were no records to lose.
    Stats.RecoveredTail = true;
    Stats.TornBytes = Contents.size();
    if (::ftruncate(Fd, 0) != 0) {
      if (Error)
        *Error = "cannot truncate torn journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
    return writeHeaderLocked(Error) || (close(), false);
  }

  uint32_t Version = readU32(Contents.data() + sizeof(Magic));
  if (Version != FormatVersion) {
    // Refuse rather than guess: silently clobbering a future-format
    // journal could re-run (or skip) someone's completed work.
    if (Error)
      *Error = "journal '" + Path + "' has unsupported version " +
               std::to_string(Version);
    close();
    return false;
  }

  size_t Pos = HeaderBytes;
  size_t GoodEnd = Pos;
  while (Pos < Contents.size()) {
    if (Contents.size() - Pos < sizeof(uint32_t))
      break; // Torn mid-size.
    uint32_t Size = readU32(Contents.data() + Pos);
    if (Size > MaxRecordBytes)
      break; // Corrupt length field.
    if (Contents.size() - Pos - sizeof(uint32_t) <
        Size + sizeof(uint64_t))
      break; // Torn mid-record or mid-checksum.
    const char *Bytes = Contents.data() + Pos + sizeof(uint32_t);
    uint64_t Checksum = readU64(Bytes + Size);
    if (Checksum != journalChecksum(Bytes, Size))
      break; // Bit rot at the tail; everything before it is good.
    Records.emplace_back(Bytes, Size);
    Pos += RecordOverheadBytes + Size;
    GoodEnd = Pos;
  }
  Stats.Records = Records.size();
  if (GoodEnd < Contents.size()) {
    // Truncate-and-salvage: drop the torn tail now so the next append
    // starts at a clean record boundary.
    Stats.RecoveredTail = true;
    Stats.TornBytes = Contents.size() - GoodEnd;
    if (::ftruncate(Fd, static_cast<off_t>(GoodEnd)) != 0) {
      if (Error)
        *Error = "cannot truncate torn journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
    if (Durable == Durability::Full && !fsyncFd(Fd)) {
      if (Error)
        *Error = "cannot fsync journal '" + Path + "': " +
                 std::strerror(errno);
      close();
      return false;
    }
  }
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

  std::string Encoded = encodeRecord(Record);
  off_t Before = ::lseek(Fd, 0, SEEK_END);
  // balign-sentinel crash site: die with only half the record written —
  // the torn tail open()'s salvage must truncate away.
  size_t Half = Encoded.size() / 2;
  bool Ok = writeAll(Fd, Encoded.data(), Half);
  if (Ok)
    CrashInjector::instance().crashPoint(CrashSite::CheckpointAppend);
  Ok = Ok && writeAll(Fd, Encoded.data() + Half, Encoded.size() - Half);
  if (Ok && Durable == Durability::Full)
    Ok = fsyncFd(Fd);
  if (!Ok) {
    if (Error)
      *Error = "cannot append to journal '" + Path + "': " +
               std::strerror(errno);
    // A partial in-process write would poison every later record on
    // reload (the scan stops at the first bad one), so roll the file
    // back to the last clean boundary immediately.
    if (Before >= 0 && ::ftruncate(Fd, Before) == 0 &&
        Durable == Durability::Full)
      fsyncFd(Fd);
    ++Stats.AppendFailures;
    return false;
  }
  Records.push_back(Record);
  ++Stats.Appends;
  return true;
}
