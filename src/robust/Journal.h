//===- robust/Journal.h - Checksummed record files and the append journal -===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The one on-disk record-file format balign persists through, and the
/// balign-sentinel append journal built on it. Two files use the format:
/// the cache store (`<dir>/balign.cache`, magic "BALNCACH", see
/// cache/Store.h) and the `align_tool --checkpoint` journal (magic
/// "BALNJRNL").
///
/// Format (little-endian, support/Bytes.h):
///
///   [8]   magic: "BALN" plus four letters naming the file kind
///   [u32] format version
///   [u32] reserved (0)
///   record*:
///     [u32] record size in bytes (at most MaxRecordBytes)
///     [record bytes]
///     [u64] journalChecksum over the record bytes
///
/// Three routines work on it, shared by both files:
///  - scanRecordFile reads a file's bytes and reports the header state,
///    every checksum-clean record, and how the framing ended. It only
///    reports: each consumer keeps its own recovery policy (the cache
///    salvages past a bad record and counts the damage; the journal
///    truncates at the first defect).
///  - recordFileHeader / appendRecord build the bytes.
///  - replaceFileAtomically writes a whole file as tmp write, fsync,
///    rename, fsync of the directory, with the cache.tmp-write,
///    cache.pre-rename and cache.post-rename crash points between the
///    steps. A cache flush and a legacy checkpoint migration both use it.
///
/// The journal is an ordered log of opaque byte records with the
/// exactly-once recovery contract the chaos harness enforces: a record
/// whose append() returned true survives any subsequent kill, and a
/// record whose append() was killed mid-write is truncated away on the
/// next open, never half-returned. open() keeps the records before the
/// first torn or checksum-bad one and ftruncates the file back to that
/// boundary (so one crash never compounds into a permanently suspicious
/// tail). A pre-sentinel checkpoint file of raw text lines is migrated
/// in place: its lines become records and the file is rewritten through
/// replaceFileAtomically. A file holding a NUL byte cannot be one (no
/// path holds a NUL; every record-file header does), so another balign
/// record file (a cache store passed as a checkpoint, say) or a journal
/// whose magic rotted is refused with the file left untouched, and so is
/// an unknown journal version.
///
/// Durability: every append is fsync'd before it reports success, so
/// "returned true" means "on the platter". The journal.append fault site
/// makes append failures injectable; the checkpoint.append crash site
/// kills the process with half a record written, which is exactly what
/// open()'s salvage must absorb.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ROBUST_JOURNAL_H
#define BALIGN_ROBUST_JOURNAL_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace balign {

/// The framing's one length cap. No legitimate record comes near it (a
/// cache entry is a few bytes per block, a checkpoint record is a path),
/// so a larger size field is corruption, not a record.
inline constexpr uint32_t MaxRecordBytes = 64u << 20;

/// What a record file's 16-byte header says.
enum class RecordHeader : uint8_t {
  Missing,      ///< No bytes at all (an absent or empty file).
  Torn,         ///< A proper prefix of the expected header: cut off.
  Foreign,      ///< Not the expected magic.
  WrongVersion, ///< The expected magic with another version.
  Ok,           ///< The expected magic and version; records follow.
};

/// How the records after an Ok header ended.
enum class RecordTail : uint8_t {
  Clean,   ///< The last record ends exactly at the end of the file.
  Torn,    ///< The file ends inside a record (a cut write).
  Corrupt, ///< A size field above MaxRecordBytes; no way to resync.
};

/// What scanRecordFile found. The record views point into the scanned
/// bytes, which must outlive them.
struct RecordScan {
  RecordHeader Header = RecordHeader::Missing;
  uint32_t Version = 0; ///< The header's version, once the magic matched.
  RecordTail Tail = RecordTail::Clean;
  /// Every checksum-clean record, in file order.
  std::vector<std::string_view> Records;
  /// Well-framed records whose checksum failed. The scan skips them and
  /// keeps going, since their size fields still frame the next record.
  size_t BadRecords = 0;
  /// The defect-free prefix: the first PrefixRecords of Records, ending
  /// at byte PrefixBytes (0 unless the header is Ok). The whole file
  /// when nothing is wrong.
  size_t PrefixRecords = 0;
  size_t PrefixBytes = 0;
};

/// Checksum guarding one record (exposed so tests can craft and corrupt
/// records byte-precisely).
uint64_t journalChecksum(const void *Data, size_t Size);

/// Scans \p Bytes as a record file with \p Magic (8 bytes) at \p Version.
RecordScan scanRecordFile(std::string_view Bytes, std::string_view Magic,
                          uint32_t Version);

/// The 16-byte header of a record file with \p Magic at \p Version.
std::string recordFileHeader(std::string_view Magic, uint32_t Version);

/// Appends \p Record to \p Out with its size and checksum framing.
void appendRecord(std::string &Out, std::string_view Record);

/// Reads all of \p Path into \p Out; false when it cannot be opened.
bool readFileBytes(const std::string &Path, std::string &Out);

/// Makes \p Bytes the contents of \p Path so that a crash at any point
/// leaves either the old file or the new one under \p Path, both
/// complete: writes `<Path>.tmp.<pid>`, fsyncs it, renames it over
/// \p Path, and fsyncs the directory. A dead writer's tmp file is inert.
/// Returns false and fills \p Error on failure, leaving \p Path as it
/// was.
bool replaceFileAtomically(const std::string &Path, std::string_view Bytes,
                           std::string *Error = nullptr);

/// What open() found and append() has done since; greppable one-line
/// summary() for stderr reporting.
struct JournalStats {
  uint64_t Records = 0;        ///< Records salvaged by open().
  uint64_t TornBytes = 0;      ///< Bytes truncated off a torn tail.
  bool RecoveredTail = false;  ///< open() truncated a torn/bad tail.
  bool MigratedLegacy = false; ///< open() rewrote a pre-journal file.
  uint64_t Appends = 0;        ///< Successful append() calls.
  uint64_t AppendFailures = 0; ///< append() calls that failed.

  /// "records=3 torn-bytes=7 recovered=1 ..." stable key=value form.
  std::string summary() const;
};

/// The crash-consistent append log. Not thread-safe: the one consumer
/// (the batch driver) is serial by construction.
class AppendJournal {
public:
  static constexpr uint32_t FormatVersion = 1;

  /// Journal files start with these 8 bytes.
  static const char Magic[8];

  AppendJournal() = default;
  ~AppendJournal() { close(); }

  AppendJournal(const AppendJournal &) = delete;
  AppendJournal &operator=(const AppendJournal &) = delete;

  /// Opens (creating if missing) the journal at \p Path, salvaging every
  /// complete record and truncating any torn tail. Returns false and
  /// fills \p Error when the file cannot be read, repaired, or migrated,
  /// or is refused; the journal is then unusable (isOpen() == false).
  bool open(const std::string &Path, std::string *Error = nullptr);

  /// Appends one record. True means the record is durable (fsync'd) and
  /// will be in records() after any future open(). False (with \p Error
  /// filled) means the record must be treated as never written — a torn
  /// attempt will be truncated by the next open.
  bool append(const std::string &Record, std::string *Error = nullptr);

  /// Every salvaged + successfully appended record, in append order
  /// (duplicates preserved; consumers wanting set semantics dedupe).
  const std::vector<std::string> &records() const { return Records; }

  const JournalStats &stats() const { return Stats; }

  bool isOpen() const { return Fd >= 0; }

  /// Closes the descriptor; the journal stays readable via records().
  void close();

private:
  bool writeHeaderLocked(std::string *Error);
  bool migrateLegacy(const std::string &Contents, std::string *Error);

  int Fd = -1;
  std::string Path;
  std::vector<std::string> Records;
  JournalStats Stats;
};

} // namespace balign

#endif // BALIGN_ROBUST_JOURNAL_H
