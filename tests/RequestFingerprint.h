//===- tests/RequestFingerprint.h - Align-request wire digest ----*- C++ -*-===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Test helper: a stable 64-bit fingerprint over an align request's
/// encoded wire bytes. Two requests with the same fingerprint are
/// byte-identical on the wire, which is what makes ServeClient's
/// alignWithRetry resend idempotent; the tests pin the encoding with it.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TESTS_REQUESTFINGERPRINT_H
#define BALIGN_TESTS_REQUESTFINGERPRINT_H

#include "serve/Protocol.h"
#include "support/Hash.h"

#include <cstdint>
#include <string>

namespace balign {

inline uint64_t requestFingerprint(const AlignRequest &Request) {
  // FNV-1a + splitmix64 finalizer over the exact wire bytes, so the
  // fingerprint pins what actually crosses the socket.
  std::string Wire = encodeAlignRequest(Request);
  return splitMix64Mix(fnv1a64(Wire.data(), Wire.size()));
}

} // namespace balign

#endif // BALIGN_TESTS_REQUESTFINGERPRINT_H
