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

/// The server whose requestDrain() the signal watcher and the frame
/// read-interrupt check target.
std::atomic<AlignServer *> DrainServer{nullptr};

extern "C" void drainSignalHandler(int) {
  int Saved = errno;
  char C = 'd';
  [[maybe_unused]] ssize_t N = ::write(DrainPipeFds[1], &C, 1);
  errno = Saved;
}

/// setFrameReadInterrupt check: once the target server is draining, a
/// signal-interrupted frame read at a boundary ends as clean EOF.
bool drainReadInterrupt() {
  AlignServer *S = DrainServer.load(std::memory_order_relaxed);
  return S && S->draining();
}

constexpr const char *ForcedDrainMessage =
    "server is shutting down; request abandoned by forced drain";

} // namespace

AlignServer::AlignServer(const AlignmentOptions &Base, ServeConfig Config)
    : Service(Base, AlignServiceConfig{Config.DefaultDeadlineMs,
                                       Config.Clock}),
      Config(std::move(Config)), Pool(this->Config.Threads),
      Gate(this->Config.QueueBudget) {
  Watchdog = std::thread([this] { watchdogLoop(); });
}

AlignServer::~AlignServer() {
  if (SignalWatcher.joinable()) {
    char C = 'q';
    [[maybe_unused]] ssize_t N = ::write(DrainPipeFds[1], &C, 1);
    SignalWatcher.join();
    DrainServer.store(nullptr);
    setFrameReadInterrupt(nullptr);
  }
  {
    std::lock_guard<std::mutex> Lock(WatchdogMutex);
    WatchdogStop = true;
  }
  WatchdogCv.notify_all();
  if (Watchdog.joinable())
    Watchdog.join();
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
  DrainServer.store(this);
  setFrameReadInterrupt(&drainReadInterrupt);
  struct sigaction Sa;
  std::memset(&Sa, 0, sizeof(Sa));
  Sa.sa_handler = drainSignalHandler;
  sigemptyset(&Sa.sa_mask);
  Sa.sa_flags = 0; // No SA_RESTART: blocked reads/accepts must EINTR.
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
  if (Prev == 0) {
    Draining.store(true);
    Stopping.store(true);
    Metrics.counterAdd("serve.drain", 1);
    // Wake the accept loop and stop new frames on live connections;
    // in-flight requests keep running and their responses still go out
    // (only the read side closes).
    int Fd = ListenFd.load();
    if (Fd >= 0)
      ::shutdown(Fd, SHUT_RDWR);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (int C : ConnFds)
      ::shutdown(C, SHUT_RD);
  } else if (Prev == 1) {
    // The double-SIGTERM escalation: the operator is done waiting.
    forceDrain();
  }
}

void AlignServer::forceDrain() {
  if (ForcedDrain.exchange(true))
    return;
  Metrics.counterAdd("serve.drain.forced", 1);
  {
    // Answer every in-flight request now; workers still running will
    // lose the complete() race and their results are dropped.
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    for (InFlightRequest &R : InFlight)
      R.Pending->complete(
          makeErrorFrame(FrameError::Internal, ForcedDrainMessage));
  }
  // Stop reads only: each connection thread still gets to write the
  // abandonment frame just completed above (a SHUT_RDWR here would race
  // that write and turn the structured answer into a bare EOF), then
  // sees EOF on its next read and exits.
  std::lock_guard<std::mutex> Lock(ConnMutex);
  for (int C : ConnFds)
    ::shutdown(C, SHUT_RD);
}

size_t AlignServer::inFlightRequests() const {
  std::lock_guard<std::mutex> Lock(InFlightMutex);
  return InFlight.size();
}

void AlignServer::watchdogLoop() {
  std::unique_lock<std::mutex> Lock(WatchdogMutex);
  while (!WatchdogStop) {
    WatchdogCv.wait_for(Lock, std::chrono::milliseconds(StuckPollMs));
    if (WatchdogStop)
      break;
    uint64_t Now = nowMs();
    std::lock_guard<std::mutex> InLock(InFlightMutex);
    for (InFlightRequest &R : InFlight) {
      if (R.LimitMs == 0 || Now < R.StartMs + R.LimitMs + StuckGraceMs)
        continue;
      // The deadline is enforced cooperatively inside the pipeline; a
      // request this far past it is wedged somewhere that never polls.
      // Abandon the worker and answer the client structurally.
      if (R.Pending->complete(makeErrorFrame(
              FrameError::Stuck,
              "align request exceeded its deadline of " +
                  std::to_string(R.LimitMs) +
                  "ms and did not return; abandoned by the watchdog")))
        Metrics.counterAdd("serve.stuck", 1);
    }
  }
}

std::string AlignServer::metricsJson() {
  Metrics.gaugeMax("serve.queue.highwater",
                   static_cast<uint64_t>(Gate.highWater()));
  std::map<std::string, uint64_t> Counters = Metrics.counters();
  if (Config.CacheStatsFn) {
    CacheStats S = Config.CacheStatsFn();
    Counters["cache.hits"] = S.Hits;
    Counters["cache.misses"] = S.Misses;
    Counters["cache.stores"] = S.Stores;
    Counters["cache.entries"] = S.Entries;
  }
  return renderMetricsJson(Counters, Metrics.gauges(), /*NumSpans=*/0);
}

Frame AlignServer::runAlign(const AlignRequest &Request) {
  if (!Gate.tryAdmit()) {
    Metrics.counterAdd("serve.rejected", 1);
    return makeErrorFrame(FrameError::Rejected,
                          "align queue budget exhausted; retry later");
  }
  // Shared ownership instead of by-reference captures: the watchdog or
  // a forced drain can answer the connection thread early, after which
  // the worker must still have valid request/response state to finish
  // (and lose the complete() race) against.
  auto Pending = std::make_shared<PendingResponse>();
  auto Req = std::make_shared<AlignRequest>(Request);
  std::future<Frame> Result = Pending->Promise.get_future();
  uint64_t LimitMs =
      Req->DeadlineMs ? Req->DeadlineMs : Config.DefaultDeadlineMs;
  uint64_t Id = NextRequestId.fetch_add(1);
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    InFlight.push_back({Id, nowMs(), LimitMs, Pending});
  }
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
  Frame Response = Result.get();
  {
    std::lock_guard<std::mutex> Lock(InFlightMutex);
    InFlight.erase(std::find_if(InFlight.begin(), InFlight.end(),
                                [Id](const InFlightRequest &R) {
                                  return R.Id == Id;
                                }));
  }
  Gate.release();
  return Response;
}

Frame AlignServer::dispatch(const Frame &Request, bool &SawShutdown) {
  switch (Request.Type) {
  case FrameType::Ping:
    Metrics.counterAdd("serve.requests.ping", 1);
    return makeFrame(FrameType::Pong, Request.Body);
  case FrameType::Align: {
    Metrics.counterAdd("serve.requests.align", 1);
    // Decode up front (once): the watchdog needs the request's deadline
    // before dispatch, and the decode error is answered without burning
    // a pool slot.
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
  ActiveConnections.fetch_add(1);
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    ConnFds.push_back(InFd);
  }
  // Connection teardown bookkeeping, run on every exit path.
  struct ConnCleanup {
    AlignServer *Server;
    int Fd;
    ~ConnCleanup() {
      std::lock_guard<std::mutex> Lock(Server->ConnMutex);
      Server->ConnFds.erase(std::find(Server->ConnFds.begin(),
                                      Server->ConnFds.end(), Fd));
      Server->ActiveConnections.fetch_sub(1);
    }
  } Cleanup{this, InFd};
  ConnectionEnd End = ConnectionEnd::Eof;
  bool SawShutdown = false;
  while (!SawShutdown) {
    Frame Request;
    FrameError Code = FrameError::None;
    std::string Message;
    ReadStatus Status = readFrame(InFd, Request, Code, Message);
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
    End = ConnectionEnd::Shutdown;
    Stopping.store(true);
    // Wake the accept loop (if any) out of accept(2).
    int Fd = ListenFd.load();
    if (Fd >= 0)
      ::shutdown(Fd, SHUT_RDWR);
  }
  return End;
}

int AlignServer::serveStdio() {
  ::signal(SIGPIPE, SIG_IGN);
  if (serveConnection(STDIN_FILENO, STDOUT_FILENO) ==
      ConnectionEnd::ProtocolError)
    return 1;
  return ForcedDrain.load() ? 4 : 0;
}

int AlignServer::serveUnixSocket(const std::string &Path) {
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
  ListenFd.store(Fd);
  std::fprintf(stderr, "serve: listening on %s\n", Path.c_str());

  // One thread per connection. Each flags itself done as it ends, and
  // the loop joins the finished ones at every accept, so a long-lived
  // server keeps no exited thread (nor its stack mapping) around.
  struct Connection {
    std::thread Thread;
    std::atomic<bool> Done{false};
  };
  std::list<Connection> Connections;
  while (!Stopping.load()) {
    int Client = ::accept(Fd, nullptr, nullptr);
    if (Client < 0) {
      if (errno == EINTR)
        continue;
      break; // Shutdown closed the listener (or it broke for real).
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
  if (Draining.load()) {
    // Supervised drain: give in-flight connections DrainTimeoutMs to
    // finish their current requests, then escalate.
    std::fprintf(stderr, "serve: draining (%zu connections in flight)\n",
                 ActiveConnections.load());
    Deadline DrainDeadline(Config.DrainTimeoutMs, Config.Clock);
    while (ActiveConnections.load() != 0 && !ForcedDrain.load()) {
      if (DrainDeadline.expired()) {
        forceDrain();
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  for (Connection &Conn : Connections)
    Conn.Thread.join();
  ListenFd.store(-1);
  ::close(Fd);
  ::unlink(Path.c_str());
  if (ForcedDrain.load()) {
    std::fprintf(stderr, "serve: drain forced; abandoned in-flight work\n");
    return 4;
  }
  std::fprintf(stderr, "serve: shut down cleanly\n");
  return 0;
}
