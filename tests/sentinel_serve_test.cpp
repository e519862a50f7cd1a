//===- tests/sentinel_serve_test.cpp - drain/watchdog/retry lifecycle -----===//
//
// The balign-sentinel serving contract, driven deterministically: a
// graceful drain lets a parked in-flight request finish and deliver its
// byte-identical response; a second drain request (the double-SIGTERM
// escalation, injected through requestDrain — the same hook the
// self-pipe signal watcher calls) abandons it with a structured error;
// a connection served over pipes, as `--serve -` is, ends on a drain
// and is forced by the drain timeout; the watchdog flags a request that
// blew past its deadline as serve.stuck on a hand-cranked clock; and
// the client's reconnect-with-backoff makes a server restart invisible
// to an align call. Every "request in flight" state is a latch the test
// controls, never a race.
//
//===--------------------------------------------------------------------===//

#include "serve/Server.h"

#include "ir/TextFormat.h"
#include "robust/Deadline.h"
#include "robust/FaultInjector.h"
#include "serve/Client.h"
#include "serve/Oneshot.h"

#include "RequestFingerprint.h"
#include "TempDir.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <fstream>
#include <mutex>
#include <sys/socket.h>
#include <thread>
#include <unistd.h>

using namespace balign;

namespace {

struct IgnoreSigpipe {
  IgnoreSigpipe() { ::signal(SIGPIPE, SIG_IGN); }
} IgnoreSigpipeInit;

constexpr uint64_t ProfileBudget = 800;

const char DemoProgram[] = R"(program sentinel
proc main {
  entry: size 3 jump -> loop
  loop:  size 2 cond -> body exit
  body:  size 4 jump -> loop
  exit:  size 1 ret
}
)";

/// The request every test sends, plus the exact bytes a one-shot run
/// prints for it (the byte-identity oracle, computed through the same
/// one-shot helpers the server's service layer uses).
struct Oracle {
  AlignRequest Request;
  std::string Expected;
};

Oracle makeOracle(uint32_t DeadlineMs = 0) {
  Oracle O;
  O.Request.CfgText = DemoProgram;
  O.Request.Seed = 7;
  O.Request.Budget = ProfileBudget;
  O.Request.DeadlineMs = DeadlineMs;
  std::string Error;
  std::optional<Program> Prog = parseProgram(DemoProgram, &Error);
  EXPECT_TRUE(Prog.has_value()) << Error;
  ProgramProfile Counts = synthesizeProfile(*Prog, 7, ProfileBudget);
  AlignmentOptions Options;
  Options.Solver.Seed = 7;
  ProgramAlignment Result = alignProgram(*Prog, Counts, Options);
  O.Expected = renderAlignmentReport(*Prog, Counts, Result,
                                     /*ComputeBounds=*/false,
                                     /*EmitDot=*/false);
  return O;
}

/// The deterministic "request in flight" gate: the pool worker parks in
/// TestStallHook until the test opens the latch.
struct Latch {
  std::mutex M;
  std::condition_variable Cv;
  bool Open = false;

  void release() {
    {
      std::lock_guard<std::mutex> Lock(M);
      Open = true;
    }
    Cv.notify_all();
  }
  void wait() {
    std::unique_lock<std::mutex> Lock(M);
    Cv.wait(Lock, [&] { return Open; });
  }
};

/// One socketpair-backed connection to \p S (the stress-test idiom).
struct Connection {
  int Fds[2] = {-1, -1};
  std::thread Server;
  ServeClient Client;

  Connection(AlignServer &S) {
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, Fds));
    Server = std::thread([&S, Fd = Fds[1]] { S.serveConnection(Fd, Fd); });
    Client.wrap(Fds[0], Fds[0]);
  }
  ~Connection() {
    Client.close();
    ::close(Fds[0]);
    Server.join();
    ::close(Fds[1]);
  }
};

/// The two pipes of a `--serve -` style connection: requests flow down
/// Requests, responses back up Responses. Closes every end still open.
struct Pipes {
  int Requests[2] = {-1, -1};
  int Responses[2] = {-1, -1};

  Pipes() {
    EXPECT_EQ(0, ::pipe(Requests));
    EXPECT_EQ(0, ::pipe(Responses));
  }
  ~Pipes() {
    for (int Fd : {Requests[0], Requests[1], Responses[0], Responses[1]})
      if (Fd >= 0)
        ::close(Fd);
  }
  /// The client's end of the request stream: what ends a pipe for good.
  void closeRequests() {
    ::close(Requests[1]);
    Requests[1] = -1;
  }
};

/// Spins (real time, bounded) until \p Cond holds.
template <typename Fn> bool eventually(Fn Cond, int BudgetMs = 10000) {
  for (int I = 0; I != BudgetMs; ++I) {
    if (Cond())
      return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return Cond();
}

} // namespace

TEST(SentinelServeTest, GracefulDrainDeliversInFlightResponse) {
  Oracle O = makeOracle();
  Latch Stall;
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.TestStallHook = [&Stall] { Stall.wait(); };
  AlignServer Server(Base, Config);

  Connection Conn(Server);
  std::string Report, Error;
  bool Ok = false;
  std::thread ClientThread([&] {
    Ok = Conn.Client.align(O.Request, Report, &Error);
  });

  // The request is provably in flight (parked on the latch), not racing.
  ASSERT_TRUE(eventually([&] { return Server.inFlightRequests() == 1; }));
  Server.requestDrain();
  EXPECT_TRUE(Server.draining());
  EXPECT_FALSE(Server.drainForced());

  // A graceful drain is supervised, not abandoned: the parked request
  // finishes and its response is byte-identical to a one-shot run.
  Stall.release();
  ClientThread.join();
  ASSERT_TRUE(Ok) << Error;
  EXPECT_EQ(O.Expected, Report);
  EXPECT_FALSE(Server.drainForced());
  EXPECT_TRUE(
      eventually([&] { return Server.inFlightRequests() == 0; }));
  EXPECT_EQ(1u, Server.metrics().counter("serve.drain"));
}

TEST(SentinelServeTest, SecondDrainRequestForcesStructuredAbandon) {
  Oracle O = makeOracle();
  Latch Stall;
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.TestStallHook = [&Stall] { Stall.wait(); };
  AlignServer Server(Base, Config);

  Connection Conn(Server);
  Frame Response;
  std::string Error;
  bool Ok = false;
  std::thread ClientThread([&] {
    Ok = Conn.Client.call(
        makeFrame(FrameType::Align, encodeAlignRequest(O.Request)),
        Response, &Error);
  });

  ASSERT_TRUE(eventually([&] { return Server.inFlightRequests() == 1; }));
  // The double-SIGTERM escalation, through the same requestDrain hook
  // the signal watcher uses: first call drains, second call forces.
  Server.requestDrain();
  Server.requestDrain();
  EXPECT_TRUE(Server.drainForced());

  // The parked request is answered *now*, with a structured error frame
  // — never a hung client, never a silently dropped connection.
  ClientThread.join();
  ASSERT_TRUE(Ok) << Error;
  ASSERT_EQ(FrameType::Error, Response.Type);
  FrameError Code = FrameError::None;
  std::string Message;
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
  EXPECT_EQ(FrameError::Internal, Code);
  EXPECT_NE(std::string::npos, Message.find("forced drain")) << Message;
  EXPECT_EQ(1u, Server.metrics().counter("serve.drain.forced"));

  // Unpark the worker: its late result is dropped (the response slot is
  // already taken), not delivered twice and not crashed on.
  Stall.release();
}

TEST(SentinelServeTest, WatchdogFlagsStuckRequestOnManualClock) {
  const uint32_t DeadlineMs = 20;
  Oracle O = makeOracle(DeadlineMs);
  Latch Stall;
  ManualClock Clock(1000);
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.Clock = Clock.fn();
  Config.TestStallHook = [&Stall] { Stall.wait(); };
  AlignServer Server(Base, Config);

  Connection Conn(Server);
  Frame Response;
  std::string Error;
  bool Ok = false;
  std::thread ClientThread([&] {
    Ok = Conn.Client.call(
        makeFrame(FrameType::Align, encodeAlignRequest(O.Request)),
        Response, &Error);
  });

  ASSERT_TRUE(eventually([&] { return Server.inFlightRequests() == 1; }));
  // Sit one tick short of deadline + grace: not stuck yet, however many
  // scans pass. The watchdog scans in real time but judges on the
  // injected clock, so this is a stable state, not a lucky one.
  Clock.advance(DeadlineMs + StuckGraceMs - 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(5 * StuckPollMs));
  EXPECT_EQ(1u, Server.inFlightRequests());
  EXPECT_EQ(0u, Server.metrics().counter("serve.stuck"));

  // One tick past deadline + grace: the watchdog abandons it.
  Clock.advance(1);
  ClientThread.join();
  ASSERT_TRUE(Ok) << Error;
  ASSERT_EQ(FrameType::Error, Response.Type);
  FrameError Code = FrameError::None;
  std::string Message;
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
  EXPECT_EQ(FrameError::Stuck, Code);
  EXPECT_NE(std::string::npos, Message.find("deadline")) << Message;
  EXPECT_EQ(1u, Server.metrics().counter("serve.stuck"));

  Stall.release();
}

TEST(SentinelServeTest, UnixSocketDrainExitCodesReflectCleanVsForced) {
  // Clean drain: request finishes inside the timeout -> exit 0.
  {
    Latch Stall;
    Oracle O = makeOracle();
    AlignmentOptions Base;
    ServeConfig Config;
    Config.Threads = 1;
    Config.TestStallHook = [&Stall] { Stall.wait(); };
    AlignServer Server(Base, Config);
    TempDir Dir("sentinel_clean");
    std::string Sock = Dir / "sock";
    int Exit = -1;
    std::thread ServeThread(
        [&] { Exit = Server.serveUnixSocket(Sock); });

    ServeClient Client;
    RetryPolicy Wait;
    Wait.MaxAttempts = 200;
    Wait.InitialBackoffMs = 5;
    Wait.MaxBackoffMs = 5;
    std::string Error;
    ASSERT_TRUE(Client.connectUnixRetry(Sock, Wait, &Error)) << Error;

    std::string Report;
    bool Ok = false;
    std::thread ClientThread(
        [&] { Ok = Client.align(O.Request, Report, &Error); });
    ASSERT_TRUE(
        eventually([&] { return Server.inFlightRequests() == 1; }));
    Server.requestDrain();
    Stall.release();
    ClientThread.join();
    ASSERT_TRUE(Ok) << Error;
    EXPECT_EQ(O.Expected, Report);
    Client.close();
    ServeThread.join();
    EXPECT_EQ(0, Exit);
    EXPECT_FALSE(Server.drainForced());
  }

  // Forced drain (second request): abandoned in flight -> exit 4.
  {
    Latch Stall;
    Oracle O = makeOracle();
    AlignmentOptions Base;
    ServeConfig Config;
    Config.Threads = 1;
    Config.TestStallHook = [&Stall] { Stall.wait(); };
    AlignServer Server(Base, Config);
    TempDir Dir("sentinel_forced");
    std::string Sock = Dir / "sock";
    int Exit = -1;
    std::thread ServeThread(
        [&] { Exit = Server.serveUnixSocket(Sock); });

    ServeClient Client;
    RetryPolicy Wait;
    Wait.MaxAttempts = 200;
    Wait.InitialBackoffMs = 5;
    Wait.MaxBackoffMs = 5;
    std::string Error;
    ASSERT_TRUE(Client.connectUnixRetry(Sock, Wait, &Error)) << Error;

    Frame Response;
    bool Ok = false;
    std::thread ClientThread([&] {
      Ok = Client.call(
          makeFrame(FrameType::Align, encodeAlignRequest(O.Request)),
          Response, &Error);
    });
    ASSERT_TRUE(
        eventually([&] { return Server.inFlightRequests() == 1; }));
    Server.requestDrain();
    Server.requestDrain();
    ClientThread.join();
    Stall.release();
    ServeThread.join();
    EXPECT_EQ(4, Exit);
    EXPECT_TRUE(Server.drainForced());
    // The abandoned request still got a structured answer.
    ASSERT_TRUE(Ok) << Error;
    EXPECT_EQ(FrameType::Error, Response.Type);
    Client.close();
  }
}

TEST(SentinelServeTest, ShutdownEndsIdleSiblingConnections) {
  // A Shutdown frame begins the same drain as a first SIGTERM, so a
  // sibling connection that sits idle is shut with the rest instead of
  // holding the server open until its client leaves.
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  TempDir Dir("sentinel_idle");
  std::string Sock = Dir / "sock";
  std::atomic<int> Exit{-1};
  std::thread ServeThread([&] { Exit = Server.serveUnixSocket(Sock); });

  RetryPolicy Wait;
  Wait.MaxAttempts = 200;
  Wait.InitialBackoffMs = 5;
  Wait.MaxBackoffMs = 5;
  std::string Error;
  ServeClient Idle;
  ASSERT_TRUE(Idle.connectUnixRetry(Sock, Wait, &Error)) << Error;
  // One answered ping: the idle connection is being served, not queued
  // in the listener's backlog.
  Frame Response;
  ASSERT_TRUE(Idle.call(makeFrame(FrameType::Ping, "idle"), Response,
                        &Error))
      << Error;

  ServeClient Stopper;
  ASSERT_TRUE(Stopper.connectUnix(Sock, &Error)) << Error;
  ASSERT_TRUE(Stopper.call(makeFrame(FrameType::Shutdown), Response,
                           &Error))
      << Error;
  EXPECT_EQ(FrameType::ShutdownOk, Response.Type);

  // The server returns while the idle client is still connected; closing
  // that client afterwards only bounds the wait, so a server that waits
  // for it fails here instead of hanging.
  bool Returned = eventually([&] { return Exit.load() != -1; }, 3000);
  Idle.close();
  ServeThread.join();
  EXPECT_TRUE(Returned) << "serveUnixSocket waited for the idle client";
  EXPECT_EQ(0, Exit.load());
  EXPECT_FALSE(Server.drainForced());
  EXPECT_EQ(1u, Server.metrics().counter("serve.drain"));
}

TEST(SentinelServeTest, DrainEndsAnIdlePipeConnection) {
  // `--serve -` reads its requests from a pipe, whose read cannot be
  // shut down like a socket's: the drain itself must end the idle read.
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Pipes P;
  std::atomic<bool> Returned{false};
  AlignServer::ConnectionEnd End = AlignServer::ConnectionEnd::ProtocolError;
  std::thread ServeThread([&] {
    End = Server.serveConnection(P.Requests[0], P.Responses[1]);
    Returned = true;
  });
  ServeClient Client;
  Client.wrap(P.Responses[0], P.Requests[1]);
  Frame Response;
  std::string Error;
  EXPECT_TRUE(Client.call(makeFrame(FrameType::Ping, "pipe"), Response,
                          &Error))
      << Error;
  EXPECT_EQ(FrameType::Pong, Response.Type);

  Server.requestDrain();
  // The write end stays open through this bounded wait; closing it
  // afterwards ends only a server that ignored the drain, which then
  // fails here instead of hanging.
  bool Ended = eventually([&] { return Returned.load(); }, 3000);
  P.closeRequests();
  ServeThread.join();
  EXPECT_TRUE(Ended) << "serveConnection kept reading a drained pipe";
  EXPECT_EQ(AlignServer::ConnectionEnd::Eof, End);
  EXPECT_EQ(1u, Server.metrics().counter("serve.drain"));
}

TEST(SentinelServeTest, DrainTimeoutForcesAPipeConnection) {
  // No accept loop watches a directly served pipe connection: the
  // connection thread waiting on the parked request forces the drain
  // itself once the drain outlives DrainTimeoutMs on the injected clock.
  Oracle O = makeOracle();
  Latch Stall;
  ManualClock Clock(1000);
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.Clock = Clock.fn();
  Config.DrainTimeoutMs = 100;
  Config.TestStallHook = [&Stall] { Stall.wait(); };
  AlignServer Server(Base, Config);
  Pipes P;
  std::atomic<bool> Returned{false};
  std::thread ServeThread([&] {
    Server.serveConnection(P.Requests[0], P.Responses[1]);
    Returned = true;
  });
  ServeClient Client;
  Client.wrap(P.Responses[0], P.Requests[1]);
  std::atomic<bool> Answered{false};
  Frame Response;
  std::string Error;
  bool Ok = false;
  std::thread ClientThread([&] {
    Ok = Client.call(
        makeFrame(FrameType::Align, encodeAlignRequest(O.Request)),
        Response, &Error);
    Answered = true;
  });

  EXPECT_TRUE(eventually([&] { return Server.inFlightRequests() == 1; }));
  Server.requestDrain();
  Clock.advance(Config.DrainTimeoutMs + 1);
  // The latch and the write end are released only after this bounded
  // wait, so a server that never forces fails here instead of hanging.
  bool Forced = eventually(
      [&] { return Answered.load() && Returned.load(); }, 3000);
  Stall.release();
  ClientThread.join();
  P.closeRequests();
  ServeThread.join();
  EXPECT_TRUE(Forced) << "the drain timeout did not end the connection";
  EXPECT_TRUE(Server.drainForced());
  ASSERT_TRUE(Ok) << Error;
  ASSERT_EQ(FrameType::Error, Response.Type);
  FrameError Code = FrameError::None;
  std::string Message;
  ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
  EXPECT_EQ(FrameError::Internal, Code);
  EXPECT_NE(std::string::npos, Message.find("forced drain")) << Message;
}

TEST(SentinelServeTest, TimeoutsNearTwoToThe64NeverForceOrAbandon) {
  // On a clock far from zero, a drain timeout and a default deadline of
  // UINT64_MAX ms saturate instead of wrapping: a large clock advance
  // neither forces the drain nor abandons the request, whose own
  // deadline does not expire either.
  Oracle O = makeOracle();
  Latch Stall;
  ManualClock Clock(uint64_t(1) << 62);
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  Config.Clock = Clock.fn();
  Config.DrainTimeoutMs = UINT64_MAX;
  Config.DefaultDeadlineMs = UINT64_MAX;
  Config.TestStallHook = [&Stall] { Stall.wait(); };
  AlignServer Server(Base, Config);

  Connection Conn(Server);
  std::string Report, Error;
  bool Ok = false;
  std::thread ClientThread([&] {
    Ok = Conn.Client.align(O.Request, Report, &Error);
  });
  EXPECT_TRUE(eventually([&] { return Server.inFlightRequests() == 1; }));
  Server.requestDrain();
  Clock.advance(uint64_t(1) << 61);
  std::this_thread::sleep_for(std::chrono::milliseconds(5 * StuckPollMs));
  EXPECT_FALSE(Server.drainForced());
  EXPECT_EQ(0u, Server.metrics().counter("serve.stuck"));

  Stall.release();
  ClientThread.join();
  ASSERT_TRUE(Ok) << Error;
  EXPECT_EQ(O.Expected, Report);
  EXPECT_FALSE(Server.drainForced());
}

TEST(SentinelServeTest, SigtermSelfPipeDrivesTheDrainStateMachine) {
  // The real signal path: installSignalDrain's handler writes to the
  // self-pipe, the watcher thread turns each byte into requestDrain().
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  Server.installSignalDrain();

  ASSERT_EQ(0, ::raise(SIGTERM));
  EXPECT_TRUE(eventually([&] { return Server.draining(); }));
  EXPECT_FALSE(Server.drainForced());

  // Second SIGTERM escalates — the S3 contract.
  ASSERT_EQ(0, ::raise(SIGTERM));
  EXPECT_TRUE(eventually([&] { return Server.drainForced(); }));
}

TEST(SentinelServeTest, ConnectRetryBackoffIsDeterministic) {
  // All attempts fail (injected): the error names the site and the
  // attempt count, and the backoff sequence is the doubling ladder.
  std::vector<uint64_t> Sleeps;
  SleepFn Recorder = [&Sleeps](uint64_t Ms) { Sleeps.push_back(Ms); };
  RetryPolicy Policy;
  Policy.MaxAttempts = 4;
  Policy.InitialBackoffMs = 3;
  Policy.MaxBackoffMs = 7;
  {
    FaultInjector::ScopedFault Fault(FaultSite::ClientConnect,
                                     FaultSpec::always());
    ServeClient Client;
    std::string Error;
    EXPECT_FALSE(Client.connectUnixRetry("/nonexistent.sock", Policy,
                                         &Error, Recorder));
    EXPECT_NE(std::string::npos, Error.find("client.connect")) << Error;
    EXPECT_NE(std::string::npos, Error.find("after 4 attempts")) << Error;
  }
  EXPECT_EQ((std::vector<uint64_t>{3, 6, 7}), Sleeps);
}

TEST(SentinelServeTest, AlignWithRetrySurvivesServerRestart) {
  Oracle O = makeOracle();
  TempDir Dir("sentinel_restart");
  std::string Sock = Dir / "sock";
  AlignmentOptions Base;

  RetryPolicy Wait;
  Wait.MaxAttempts = 200;
  Wait.InitialBackoffMs = 5;
  Wait.MaxBackoffMs = 5;

  ServeClient Client;
  std::string Error;

  // Server generation one: align once, then shut it down — the client
  // keeps its (now dead) connection.
  {
    ServeConfig Config;
    Config.Threads = 1;
    AlignServer Server(Base, Config);
    std::thread ServeThread([&] { Server.serveUnixSocket(Sock); });
    ASSERT_TRUE(Client.connectUnixRetry(Sock, Wait, &Error)) << Error;
    std::string Report;
    ASSERT_TRUE(Client.align(O.Request, Report, &Error)) << Error;
    EXPECT_EQ(O.Expected, Report);
    Frame Response;
    ASSERT_TRUE(Client.call(makeFrame(FrameType::Shutdown), Response,
                            &Error))
        << Error;
    EXPECT_EQ(FrameType::ShutdownOk, Response.Type);
    ServeThread.join();
  }

  // Server generation two on the same path. alignWithRetry's first
  // attempt fails on the dead connection, reconnects, and resends the
  // byte-identical request — the restart is invisible to the caller.
  {
    ServeConfig Config;
    Config.Threads = 1;
    AlignServer Server(Base, Config);
    std::thread ServeThread([&] { Server.serveUnixSocket(Sock); });
    EXPECT_TRUE(Client.connected()); // still holding generation one.
    std::string Report;
    ASSERT_TRUE(
        Client.alignWithRetry(Sock, O.Request, Report, Wait, &Error))
        << Error;
    EXPECT_EQ(O.Expected, Report);

    Frame Response;
    ASSERT_TRUE(Client.call(makeFrame(FrameType::Shutdown), Response,
                            &Error))
        << Error;
    ServeThread.join();
  }
}

TEST(SentinelServeTest, FinishedConnectionThreadsAreJoined) {
  // Each connection runs on its own thread. One that has exited but was
  // never joined keeps its stack mapped, so a long-lived server that
  // joined only at shutdown would grow a mapping or two per connection
  // until thread creation failed.
  auto MapsLines = [] {
    std::ifstream Maps("/proc/self/maps");
    size_t Lines = 0;
    for (std::string Line; std::getline(Maps, Line);)
      ++Lines;
    return Lines;
  };
  AlignmentOptions Base;
  ServeConfig Config;
  Config.Threads = 1;
  AlignServer Server(Base, Config);
  TempDir Dir("sentinel_reap");
  std::string Sock = Dir / "sock";
  std::thread ServeThread([&] { Server.serveUnixSocket(Sock); });
  RetryPolicy Wait;
  Wait.MaxAttempts = 200;
  Wait.InitialBackoffMs = 5;
  Wait.MaxBackoffMs = 5;
  auto PingOnce = [&] {
    ServeClient Client;
    std::string Error;
    ASSERT_TRUE(Client.connectUnixRetry(Sock, Wait, &Error)) << Error;
    Frame Response;
    ASSERT_TRUE(Client.call(makeFrame(FrameType::Ping, "hi"), Response,
                            &Error))
        << Error;
    EXPECT_EQ(FrameType::Pong, Response.Type);
  };

  // Warm up first: the earliest threads grow per-thread state that
  // later ones reuse (ThreadSanitizer's runtime keeps the first few dozen
  // exited threads' state before it recycles any).
  for (int I = 0; I != 64; ++I)
    PingOnce();
  size_t Before = MapsLines();
  for (int I = 0; I != 64; ++I)
    PingOnce();
  size_t After = MapsLines();
  EXPECT_LT(After, Before + 32) << "mappings grew from " << Before << " to "
                                << After << " over 64 connections";

  ServeClient Client;
  std::string Error;
  ASSERT_TRUE(Client.connectUnix(Sock, &Error)) << Error;
  Frame Response;
  ASSERT_TRUE(Client.call(makeFrame(FrameType::Shutdown), Response, &Error))
      << Error;
  ServeThread.join();
}

TEST(SentinelServeTest, RequestFingerprintPinsWireBytes) {
  Oracle O = makeOracle();
  AlignRequest Same = O.Request;
  EXPECT_EQ(requestFingerprint(O.Request), requestFingerprint(Same));
  AlignRequest Different = O.Request;
  Different.Seed ^= 1;
  EXPECT_NE(requestFingerprint(O.Request), requestFingerprint(Different));
}
