//===- robust/Durability.h - Durable write primitives ---------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The balign-sentinel write primitives the persistence layers (record
/// files, serve frames) share: one complete-write loop and two fsyncs.
/// `rename` alone is atomic against concurrent readers but not against
/// power loss: without an fsync of the source file first, the rename can
/// land while the file's *data* is still only in the page cache, leaving
/// a torn file under the final name; without an fsync of the containing
/// directory after, the rename itself can be lost. Every balign write of
/// user data pays both fsyncs; there is no switch to skip them. The one
/// place that sequences them is replaceFileAtomically (robust/Journal.h).
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ROBUST_DURABILITY_H
#define BALIGN_ROBUST_DURABILITY_H

#include <cstddef>
#include <string>

namespace balign {

/// write(2)s all \p Size bytes of \p Data to \p Fd, retrying short writes
/// and EINTR. Returns false on any other failure (errno set by write;
/// EPIPE after a socket peer vanished is the common one), so a partial
/// write is never left unreported.
bool writeAll(int Fd, const void *Data, size_t Size);

/// fsync(2) on \p Fd; returns false (leaving errno set) on failure.
bool fsyncFd(int Fd);

/// Opens and fsyncs the directory containing \p Path (or \p Path itself
/// when it already names a directory is the caller's business — this
/// always syncs the parent). Returns false on open/fsync failure.
bool fsyncParentDirectory(const std::string &Path);

} // namespace balign

#endif // BALIGN_ROBUST_DURABILITY_H
