//===- serve/Client.cpp - balign-serve client helper ----------------------===//

#include "serve/Client.h"

#include "robust/FaultInjector.h"

#include <cerrno>
#include <cstring>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

using namespace balign;

namespace {

bool fail(std::string *Error, const std::string &Reason) {
  if (Error)
    *Error = Reason;
  return false;
}

} // namespace

ServeClient &ServeClient::operator=(ServeClient &&Other) noexcept {
  if (this != &Other) {
    close();
    InFd = Other.InFd;
    OutFd = Other.OutFd;
    OwnsFds = Other.OwnsFds;
    Other.InFd = Other.OutFd = -1;
    Other.OwnsFds = false;
  }
  return *this;
}

bool ServeClient::connectUnix(const std::string &Path, std::string *Error) {
  close();
  // balign-shield fault site: a deterministic injectable connect
  // failure, so reconnect-with-backoff is testable without racing a
  // real server's lifecycle.
  if (FaultInjector::instance().shouldFail(FaultSite::ClientConnect, Error))
    return false;
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path))
    return fail(Error, "socket path '" + Path + "' is too long");
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0)
    return fail(Error, std::string("socket: ") + std::strerror(errno));
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0) {
    int Saved = errno;
    ::close(Fd);
    return fail(Error, "cannot connect to '" + Path +
                           "': " + std::strerror(Saved));
  }
  InFd = OutFd = Fd;
  OwnsFds = true;
  return true;
}

void ServeClient::wrap(int InFd, int OutFd) {
  close();
  this->InFd = InFd;
  this->OutFd = OutFd;
  OwnsFds = false;
}

void ServeClient::close() {
  if (OwnsFds && InFd >= 0) {
    ::close(InFd);
    if (OutFd != InFd)
      ::close(OutFd);
  }
  InFd = OutFd = -1;
  OwnsFds = false;
}

bool ServeClient::call(const Frame &Request, Frame &Response,
                       std::string *Error) {
  if (!connected())
    return fail(Error, "client is not connected");
  if (!writeFrame(OutFd, Request))
    return fail(Error, "write failed (server gone?)");
  FrameError Code = FrameError::None;
  std::string Message;
  ReadStatus Status = readFrame(InFd, Response, Code, Message);
  if (Status == ReadStatus::Eof)
    return fail(Error, "server closed the connection");
  if (Status == ReadStatus::Error)
    return fail(Error, std::string(frameErrorName(Code)) + ": " + Message);
  return true;
}

bool ServeClient::align(const AlignRequest &Request, std::string &Report,
                        std::string *Error) {
  Frame Response;
  if (!call(makeFrame(FrameType::Align, encodeAlignRequest(Request)),
            Response, Error))
    return false;
  if (Response.Type == FrameType::AlignOk) {
    Report = Response.Body;
    return true;
  }
  FrameError Code = FrameError::None;
  std::string Message;
  if (decodeErrorFrame(Response, Code, Message))
    return fail(Error, std::string(frameErrorName(Code)) + ": " + Message);
  return fail(Error, std::string("unexpected response frame '") +
                         frameTypeName(Response.Type) + "'");
}

bool ServeClient::connectUnixRetry(const std::string &Path,
                                   const RetryPolicy &Policy,
                                   std::string *Error, const SleepFn &Sleep) {
  std::string LastError;
  RetryOutcome Outcome = retryWithBackoff(
      Policy,
      [&](std::string *AttemptError) {
        return connectUnix(Path, AttemptError);
      },
      &LastError, Sleep);
  if (Outcome.Succeeded)
    return true;
  return fail(Error, LastError + " (after " +
                         std::to_string(Outcome.Attempts) + " attempts)");
}

bool ServeClient::alignWithRetry(const std::string &Path,
                                 const AlignRequest &Request,
                                 std::string &Report,
                                 const RetryPolicy &Policy,
                                 std::string *Error, const SleepFn &Sleep) {
  // Encode once: every attempt resends these exact bytes, which is what
  // makes the resend idempotent.
  Frame RequestFrame =
      makeFrame(FrameType::Align, encodeAlignRequest(Request));
  Frame Response;
  std::string LastError;
  RetryOutcome Outcome = retryWithBackoff(
      Policy,
      [&](std::string *AttemptError) {
        if (!connected() && !connectUnix(Path, AttemptError))
          return false;
        if (!call(RequestFrame, Response, AttemptError)) {
          // Transport broke mid-call (server died, stream torn): drop
          // the connection so the next attempt starts fresh.
          close();
          return false;
        }
        return true;
      },
      &LastError, Sleep);
  if (!Outcome.Succeeded)
    return fail(Error, LastError + " (after " +
                           std::to_string(Outcome.Attempts) + " attempts)");
  if (Response.Type == FrameType::AlignOk) {
    Report = Response.Body;
    return true;
  }
  // A structured server answer — including Error frames — is
  // definitive; retrying it would just repeat the same answer.
  FrameError Code = FrameError::None;
  std::string Message;
  if (decodeErrorFrame(Response, Code, Message))
    return fail(Error, std::string(frameErrorName(Code)) + ": " + Message);
  return fail(Error, std::string("unexpected response frame '") +
                         frameTypeName(Response.Type) + "'");
}
