//===- serve/Server.cpp - Long-lived alignment server ---------------------===//

#include "serve/Server.h"

#include "robust/Deadline.h"
#include "robust/FaultInjector.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <future>
#include <list>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <system_error>
#include <unistd.h>

using namespace balign;

namespace {

/// Self-pipe of the drain signal handlers (write end is what the
/// handler touches — async-signal-safe, nonblocking so a full pipe
/// never wedges the handler).
int DrainPipeFds[2] = {-1, -1};

extern "C" void drainSignalHandler(int) {
  int Saved = errno;
  char C = 'd';
  [[maybe_unused]] ssize_t N = ::write(DrainPipeFds[1], &C, 1);
  errno = Saved;
}

constexpr const char *ForcedDrainMessage =
    "server is shutting down; request abandoned by forced drain";

/// How long the accept loop pauses when accept(2) runs out of
/// descriptors or memory before it tries again.
constexpr int AcceptRetryPauseMs = 50;

} // namespace

AlignServer::AlignServer(const AlignmentOptions &Base, ServeConfig Config)
    : Service(Base, AlignServiceConfig{Config.DefaultDeadlineMs,
                                       Config.Clock}),
      Config(std::move(Config)), Pool(this->Config.Threads) {
  if (::pipe2(WakeFds, O_CLOEXEC) != 0)
    WakeErrno = errno;
}

AlignServer::~AlignServer() {
  if (SignalWatcher.joinable()) {
    char C = 'q';
    [[maybe_unused]] ssize_t N = ::write(DrainPipeFds[1], &C, 1);
    SignalWatcher.join();
  }
  for (int Fd : WakeFds)
    if (Fd >= 0)
      ::close(Fd);
}

bool AlignServer::wakePipeReady() const {
  if (WakeFds[0] >= 0)
    return true;
  std::fprintf(stderr, "error: cannot create the drain wake pipe: %s\n",
               std::strerror(WakeErrno));
  return false;
}

uint64_t AlignServer::nowMs() const {
  return Config.Clock ? Config.Clock() : steadyClockMs();
}

void AlignServer::installSignalDrain() {
  if (DrainPipeFds[0] < 0) {
    if (::pipe(DrainPipeFds) != 0) {
      std::fprintf(stderr, "serve: cannot create drain pipe: %s\n",
                   std::strerror(errno));
      return;
    }
    ::fcntl(DrainPipeFds[0], F_SETFD, FD_CLOEXEC);
    ::fcntl(DrainPipeFds[1], F_SETFD, FD_CLOEXEC);
    ::fcntl(DrainPipeFds[1], F_SETFL, O_NONBLOCK);
  }
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = drainSignalHandler;
  sigemptyset(&Sa.sa_mask);
  // The wake pipe, not EINTR, ends blocked reads and accepts.
  Sa.sa_flags = SA_RESTART;
  ::sigaction(SIGTERM, &Sa, nullptr);
  ::sigaction(SIGINT, &Sa, nullptr);
  SignalWatcher = std::thread([this] {
    char C;
    while (true) {
      ssize_t N = ::read(DrainPipeFds[0], &C, 1);
      if (N < 0 && errno == EINTR)
        continue;
      if (N <= 0 || C == 'q')
        break;
      requestDrain();
    }
  });
}

void AlignServer::requestDrain() {
  int Prev = DrainSignals.fetch_add(1);
  if (Prev == 0)
    beginDrain();
  else if (Prev == 1)
    forceDrain(); // The double-SIGTERM escalation: the operator is done.
}

void AlignServer::beginDrain() {
  uint64_t Unset = NotDraining;
  if (!DrainStartMs.compare_exchange_strong(Unset, nowMs()))
    return;
  Metrics.counterAdd("serve.drain", 1);
  // Wake the accept loop and every blocked frame read. Nothing reads
  // this byte, so the pipe stays readable for the rest of the run;
  // in-flight requests keep running and their responses still go out.
  [[maybe_unused]] ssize_t N = ::write(WakeFds[1], "w", 1);
}

void AlignServer::forceDrain() {
  if (ForcedDrain.exchange(true))
    return;
  Metrics.counterAdd("serve.drain.forced", 1);
  // Answer every in-flight request now; workers still running will lose
  // the complete() race and their results are dropped. Each connection
  // thread writes the abandonment frame, then its next read finds the
  // drain's wake and ends.
  std::lock_guard<std::mutex> Lock(TableMutex);
  for (const std::shared_ptr<PendingResponse> &Pending : InFlight)
    Pending->complete(
        makeErrorFrame(FrameError::Internal, ForcedDrainMessage));
}

size_t AlignServer::inFlightRequests() const {
  std::lock_guard<std::mutex> Lock(TableMutex);
  return InFlight.size();
}

std::string AlignServer::metricsJson() {
  size_t Deepest;
  {
    std::lock_guard<std::mutex> Lock(TableMutex);
    Deepest = HighWater;
  }
  Metrics.gaugeMax("serve.queue.highwater", static_cast<uint64_t>(Deepest));
  std::map<std::string, uint64_t> Counters = Metrics.counters();
  if (Config.CacheStatsFn) {
    CacheStats S = Config.CacheStatsFn();
    Counters["cache.hits"] = S.Hits;
    Counters["cache.misses"] = S.Misses;
    Counters["cache.stores"] = S.Stores;
    Counters["cache.entries"] = S.Entries;
  }
  ProfileMemoStats Memo = Service.profileMemoStats();
  Counters["serve.profile-memo.hits"] = Memo.Hits;
  Counters["serve.profile-memo.misses"] = Memo.Misses;
  Counters["serve.profile-memo.entries"] = Memo.Entries;
  return renderMetricsJson(Counters, Metrics.gauges(), /*NumSpans=*/0);
}

Frame AlignServer::runAlign(const AlignRequest &Request) {
  // Shared ownership instead of by-reference captures: this thread's
  // Stuck answer or a forced drain can complete the response early,
  // after which the worker must still have valid request/response state
  // to finish (and lose the complete() race) against.
  auto Pending = std::make_shared<PendingResponse>();
  // Read before the request enters the table: whoever sees it there
  // reads a clock at or past its start.
  uint64_t StartMs = nowMs();
  bool Admitted;
  {
    std::lock_guard<std::mutex> Lock(TableMutex);
    Admitted =
        Config.QueueBudget == 0 || InFlight.size() < Config.QueueBudget;
    if (Admitted) {
      InFlight.push_back(Pending);
      HighWater = std::max(HighWater, InFlight.size());
    }
  }
  if (!Admitted) {
    Metrics.counterAdd("serve.rejected", 1);
    return makeErrorFrame(FrameError::Rejected,
                          "align queue budget exhausted; retry later");
  }
  auto Req = std::make_shared<AlignRequest>(Request);
  std::future<Frame> Result = Pending->Promise.get_future();
  if (ForcedDrain.load()) {
    Pending->complete(
        makeErrorFrame(FrameError::Internal, ForcedDrainMessage));
  } else {
    Pool.submit([Pending, Req, this] {
      if (Config.TestStallHook)
        Config.TestStallHook();
      try {
        Pending->complete(Service.handleAlign(*Req));
      } catch (const std::exception &E) {
        Pending->complete(makeErrorFrame(FrameError::Internal, E.what()));
      } catch (...) {
        Pending->complete(makeErrorFrame(
            FrameError::Internal, "unknown exception in align worker"));
      }
    });
  }
  // This thread is the request's watchdog and the drain's supervisor.
  // The deadline is enforced cooperatively inside the pipeline; a
  // request past deadline + StuckGraceMs on the injectable clock is
  // wedged somewhere that never polls, so abandon the worker and answer
  // the client structurally. A drain older than DrainTimeoutMs is forced
  // from here, however the connection is served.
  uint64_t LimitMs =
      Request.DeadlineMs ? Request.DeadlineMs : Config.DefaultDeadlineMs;
  while (Result.wait_for(std::chrono::milliseconds(StuckPollMs)) !=
         std::future_status::ready) {
    uint64_t DrainMs = DrainStartMs.load();
    uint64_t Now = nowMs();
    if (DrainMs != NotDraining && Config.DrainTimeoutMs != 0 &&
        Now >= DrainMs + Config.DrainTimeoutMs)
      forceDrain();
    if (LimitMs != 0 && Now >= StartMs + LimitMs + StuckGraceMs &&
        Pending->complete(makeErrorFrame(
            FrameError::Stuck,
            "align request exceeded its deadline of " +
                std::to_string(LimitMs) +
                "ms and did not return; abandoned by the watchdog")))
      Metrics.counterAdd("serve.stuck", 1);
  }
  Frame Response = Result.get();
  std::lock_guard<std::mutex> Lock(TableMutex);
  InFlight.erase(std::find(InFlight.begin(), InFlight.end(), Pending));
  return Response;
}

Frame AlignServer::dispatch(const Frame &Request, bool &SawShutdown) {
  switch (Request.Type) {
  case FrameType::Ping:
    Metrics.counterAdd("serve.requests.ping", 1);
    return makeFrame(FrameType::Pong, Request.Body);
  case FrameType::Align: {
    Metrics.counterAdd("serve.requests.align", 1);
    // Decode up front (once): the connection thread needs the request's
    // deadline to watch it, and the decode error is answered without
    // burning a pool slot.
    AlignRequest Req;
    std::string Error;
    if (!decodeAlignRequest(Request.Body, Req, &Error))
      return makeErrorFrame(FrameError::BadRequest, Error);
    return runAlign(Req);
  }
  case FrameType::Metrics:
    Metrics.counterAdd("serve.requests.metrics", 1);
    if (!Request.Body.empty())
      return makeErrorFrame(FrameError::BadRequest,
                            "metrics request carries a body");
    return makeFrame(FrameType::MetricsOk, metricsJson());
  case FrameType::Shutdown:
    Metrics.counterAdd("serve.requests.shutdown", 1);
    if (!Request.Body.empty())
      return makeErrorFrame(FrameError::BadRequest,
                            "shutdown request carries a body");
    SawShutdown = true;
    return makeFrame(FrameType::ShutdownOk);
  default:
    return makeErrorFrame(
        FrameError::BadType,
        std::string("frame type '") + frameTypeName(Request.Type) +
            "' is not a request");
  }
}

AlignServer::ConnectionEnd AlignServer::serveConnection(int InFd, int OutFd) {
  Metrics.counterAdd("serve.connections", 1);
  ConnectionEnd End = ConnectionEnd::Eof;
  bool SawShutdown = false;
  while (!SawShutdown) {
    Frame Request;
    FrameError Code = FrameError::None;
    std::string Message;
    // A drain wakes this read: an idle stream ends here as Eof, a
    // stalled one inside its frame as an Error.
    ReadStatus Status = readFrame(InFd, Request, Code, Message, WakeFds[0]);
    if (Status == ReadStatus::Eof)
      break;
    if (Status == ReadStatus::Error) {
      // The stream cannot be resynchronized after a framing error;
      // answer once (best effort — the peer may already be gone) and
      // close this connection. The server lives on.
      Metrics.counterAdd("serve.frames.bad", 1);
      Metrics.counterAdd("serve.responses.error", 1);
      writeFrame(OutFd, makeErrorFrame(Code, Message));
      return ConnectionEnd::ProtocolError;
    }
    Frame Response;
    try {
      // balign-shield fault site: the CI serve column arms
      // BALIGN_FAULT=serve.frame:... to prove one poisoned dispatch
      // errors structurally while the connection (and server) survive.
      FaultInjector::instance().throwIfFault(FaultSite::ServeFrame);
      Response = dispatch(Request, SawShutdown);
    } catch (const FaultInjectedError &E) {
      Response = makeErrorFrame(FrameError::Internal, E.what());
    }
    if (Response.Type == FrameType::Error)
      Metrics.counterAdd("serve.responses.error", 1);
    else
      Metrics.counterAdd("serve.responses.ok", 1);
    // balign-sentinel crash site: die with the response computed (and
    // any cache effects possibly flushed) but not yet written — the
    // client sees a dead server mid-call and must resend idempotently.
    FaultInjector::instance().crashPoint(FaultSite::ServeResponse);
    if (!writeFrame(OutFd, Response))
      break; // Peer vanished mid-response.
  }
  if (SawShutdown) {
    // The same drain as a first SIGTERM; never an escalation.
    End = ConnectionEnd::Shutdown;
    beginDrain();
  }
  return End;
}

int AlignServer::serveStdio() {
  if (!wakePipeReady())
    return 1;
  ::signal(SIGPIPE, SIG_IGN);
  if (serveConnection(STDIN_FILENO, STDOUT_FILENO) ==
      ConnectionEnd::ProtocolError)
    return 1;
  return ForcedDrain.load() ? 4 : 0;
}

int AlignServer::serveUnixSocket(const std::string &Path) {
  if (!wakePipeReady())
    return 1;
  ::signal(SIGPIPE, SIG_IGN);
  sockaddr_un Addr;
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  if (Path.size() >= sizeof(Addr.sun_path)) {
    std::fprintf(stderr, "error: socket path '%s' is too long\n",
                 Path.c_str());
    return 1;
  }
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);

  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    std::fprintf(stderr, "error: socket: %s\n", std::strerror(errno));
    return 1;
  }
  ::unlink(Path.c_str()); // Replace a stale socket file.
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) < 0 ||
      ::listen(Fd, 64) < 0) {
    std::fprintf(stderr, "error: cannot listen on '%s': %s\n", Path.c_str(),
                 std::strerror(errno));
    ::close(Fd);
    return 1;
  }
  std::fprintf(stderr, "serve: listening on %s\n", Path.c_str());

  // One thread per connection. Each flags itself done as it ends, and
  // the loop joins the finished ones at every accept, so a long-lived
  // server keeps no exited thread (nor its stack mapping) around.
  struct Connection {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  std::list<Connection> Connections;
  while (!draining()) {
    pollfd Ready[2] = {{Fd, POLLIN, 0}, {WakeFds[0], POLLIN, 0}};
    int Polled = ::poll(Ready, 2, -1);
    if (Polled > 0 && Ready[0].revents == 0)
      continue; // The drain's wake; the loop condition ends the loop.
    int Client = Polled > 0 ? ::accept(Fd, nullptr, nullptr) : -1;
    if (Client < 0) {
      int Error = errno;
      if (Error == EMFILE || Error == ENFILE || Error == ENOBUFS ||
          Error == ENOMEM) {
        // Out of descriptors or memory until a connection ends: pause,
        // unless a drain ends the pause, and try again.
        pollfd Wake = {WakeFds[0], POLLIN, 0};
        ::poll(&Wake, 1, AcceptRetryPauseMs);
      } else if (Error != EINTR && Error != EAGAIN &&
                 Error != ECONNABORTED) {
        // The listener is broken: stop the one way the server stops.
        std::fprintf(stderr, "serve: accept: %s\n", std::strerror(Error));
        beginDrain();
      }
      continue;
    }
    for (auto It = Connections.begin(); It != Connections.end();) {
      if (!It->Done.load()) {
        ++It;
        continue;
      }
      It->Thread.join();
      It = Connections.erase(It);
    }
    Connection &Conn = Connections.emplace_back();
    try {
      Conn.Thread = std::thread([this, Client, &Done = Conn.Done] {
        serveConnection(Client, Client);
        ::close(Client);
        Done.store(true);
      });
    } catch (const std::system_error &E) {
      // No thread for this client: refuse it and keep serving the rest.
      std::fprintf(stderr, "serve: dropped a connection: %s\n", E.what());
      Connections.pop_back();
      ::close(Client);
    }
  }
  // Idle connections end at the wake; each busy one ends once its
  // request is answered, and forces the drain itself past
  // DrainTimeoutMs.
  std::fprintf(stderr, "serve: draining (%zu requests in flight)\n",
               inFlightRequests());
  for (Connection &Conn : Connections)
    Conn.Thread.join();
  ::close(Fd);
  ::unlink(Path.c_str());
  if (ForcedDrain.load()) {
    std::fprintf(stderr, "serve: drain forced; abandoned in-flight work\n");
    return 4;
  }
  std::fprintf(stderr, "serve: shut down cleanly\n");
  return 0;
}
