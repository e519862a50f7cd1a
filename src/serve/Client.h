//===- serve/Client.h - balign-serve client helper ------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// A small synchronous client over the serve protocol: connect (or wrap
/// an existing descriptor pair, which is how tests drive a server over
/// a socketpair), send one request frame, read one response frame. The
/// balign_client example, the throughput bench, and the test battery
/// all speak through this class so none of them re-implement framing.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_CLIENT_H
#define BALIGN_SERVE_CLIENT_H

#include "serve/Protocol.h"

#include "robust/Retry.h"

namespace balign {

/// One client connection. Movable, not copyable; owns its descriptors
/// unless adopted via wrap().
class ServeClient {
public:
  ServeClient() = default;
  ~ServeClient() { close(); }

  ServeClient(ServeClient &&Other) noexcept { *this = std::move(Other); }
  ServeClient &operator=(ServeClient &&Other) noexcept;
  ServeClient(const ServeClient &) = delete;
  ServeClient &operator=(const ServeClient &) = delete;

  /// Connects to the unix-domain socket at \p Path. Returns false and
  /// fills \p Error on failure.
  bool connectUnix(const std::string &Path, std::string *Error = nullptr);

  /// Adopts an existing descriptor pair without taking ownership (the
  /// socketpair tests close their own ends).
  void wrap(int InFd, int OutFd);

  /// True when a transport is attached.
  bool connected() const { return InFd >= 0 && OutFd >= 0; }

  /// Closes owned descriptors; idempotent.
  void close();

  /// Sends \p Request and reads one response into \p Response. Returns
  /// false and fills \p Error on any transport/framing failure (a
  /// server-side Error *frame* is a successful call — inspect
  /// Response.Type).
  bool call(const Frame &Request, Frame &Response,
            std::string *Error = nullptr);

  /// Convenience wrapper: one align request. On success fills
  /// \p Report with the response body. A server Error frame fails the
  /// call with "code: message" in \p Error.
  bool align(const AlignRequest &Request, std::string &Report,
             std::string *Error = nullptr);

  /// connectUnix with deterministic reconnect-with-backoff (the
  /// balign-shield doubling sequence; \p Sleep injectable for tests).
  /// The client.connect fault site fires inside each attempt.
  bool connectUnixRetry(const std::string &Path, const RetryPolicy &Policy,
                        std::string *Error = nullptr,
                        const SleepFn &Sleep = {});

  /// One align call that survives a server restart: on any *transport*
  /// failure — connect refused, the server dying mid-frame — the
  /// connection is torn down, re-established against \p Path, and the
  /// byte-identical request is resent, up to Policy.MaxAttempts with
  /// deterministic backoff; the server's content-addressed cache answers
  /// a repeat from the entry the first attempt (if it got that far)
  /// already stored. A server Error *frame* is a definitive answer and
  /// is never retried; it fails the call with "code: message" like
  /// align(). May be called without an existing connection.
  bool alignWithRetry(const std::string &Path, const AlignRequest &Request,
                      std::string &Report, const RetryPolicy &Policy,
                      std::string *Error = nullptr,
                      const SleepFn &Sleep = {});

private:
  int InFd = -1;
  int OutFd = -1;
  bool OwnsFds = false;
};

} // namespace balign

#endif // BALIGN_SERVE_CLIENT_H
