//===- serve/Server.h - Long-lived alignment server -----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The connection/threading half of balign-serve. An AlignServer owns
///
///  - one ThreadPool every align request is multiplexed onto (each
///    request runs whole on one worker, Threads=1 inside, so the repo's
///    thread-count invariance makes responses byte-identical at any pool
///    size);
///  - one in-flight table under one mutex: the response slot of every
///    admitted align request and the fd of every live connection.
///    Admission reads it — past QueueBudget a request is answered
///    FrameError::Rejected immediately instead of queueing without bound
///    (backpressure, not buffering) — and so do the
///    serve.queue.highwater gauge, a drain's wait and a forced drain;
///  - one MetricRegistry of serve counters, exported through the
///    Metrics request type in the exact `--metrics-json` shape. The
///    server deliberately does *not* install a TraceSession: a span per
///    request would grow without bound over a server's lifetime.
///
/// Ownership/threading model: the accept loop spawns one thread per
/// connection and joins the finished ones at each accept, so exited
/// connections hold no thread; the connection thread reads frames in
/// order, answers ping/metrics/shutdown inline, and blocks on the pool
/// future for each align request (so one connection sees its responses
/// in request order; concurrency comes from multiple connections). That
/// thread is also the request's watchdog: a request with a deadline is
/// waited on in StuckPollMs slices and answered FrameError::Stuck once
/// it blows past deadline + StuckGraceMs. A protocol error on a
/// connection closes that connection after a best-effort error frame —
/// it never touches the server or its siblings.
///
/// The server stops one way: a Shutdown frame and the first
/// requestDrain() (SIGTERM/SIGINT) begin the same drain, which stops
/// accepting, ends every connection's reads, and lets in-flight aligns
/// finish under DrainTimeoutMs; a second drain request or the timeout
/// forces it.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_SERVER_H
#define BALIGN_SERVE_SERVER_H

#include "serve/Service.h"

#include "cache/Store.h"
#include "support/ThreadPool.h"
#include "trace/Scope.h"

#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace balign {

/// balign-sentinel: slack past a request's deadline before its
/// connection thread abandons it with FrameError::Stuck. The deadline
/// itself is polled by the profile walk and inside the pipeline; the
/// Stuck answer comes when a worker blew through it without returning.
/// Requests with no deadline at all are never flagged.
inline constexpr uint64_t StuckGraceMs = 1000;

/// Real-time slice a connection thread waits on a request with a
/// deadline before it checks the clock again.
inline constexpr uint64_t StuckPollMs = 20;

/// Server-level configuration.
struct ServeConfig {
  /// Pool workers align requests run on (0 = hardware threads).
  unsigned Threads = 0;

  /// Max in-flight align requests before Rejected (0 = unlimited).
  size_t QueueBudget = 0;

  /// Deadline for requests that do not carry one (0 = unlimited).
  uint64_t DefaultDeadlineMs = 0;

  /// balign-sentinel: how long a drain (Shutdown frame, SIGTERM,
  /// requestDrain) waits for in-flight connections before escalating to
  /// a forced shutdown
  /// (0 = wait forever). Measured on Clock, so tests drive the timeout
  /// from a ManualClock.
  uint64_t DrainTimeoutMs = 5000;

  /// Injectable clock for per-request deadlines (tests).
  ClockFn Clock;

  /// When set, cache counters are merged into metrics snapshots as
  /// "cache.<field>" (align_tool wires this to its CacheSession).
  std::function<CacheStats()> CacheStatsFn;

  /// Test-only: run at the start of every pooled align task. Drain and
  /// watchdog tests park a worker here (on a latch they control) to
  /// make "request in flight" a deterministic state instead of a race.
  std::function<void()> TestStallHook;
};

/// The long-lived server. Construct once over the shared
/// AlignmentOptions (whose CacheImpl is the cross-client cache), then
/// run serveUnixSocket / serveStdio — or drive serveConnection directly
/// over a socketpair, which is how the test battery attacks it without
/// filesystem paths.
class AlignServer {
public:
  AlignServer(const AlignmentOptions &Base, ServeConfig Config);
  ~AlignServer();

  /// How one connection ended.
  enum class ConnectionEnd : uint8_t {
    Eof,           ///< Clean EOF at a frame boundary.
    ProtocolError, ///< A framing error closed the connection.
    Shutdown,      ///< A Shutdown frame was answered; the server drains.
  };

  /// Serves one established connection: reads frames from \p InFd and
  /// writes responses to \p OutFd until EOF, a protocol error, or a
  /// Shutdown frame. Thread-safe; the accept loop runs it once per
  /// connection thread.
  ConnectionEnd serveConnection(int InFd, int OutFd);

  /// Listens on unix-domain socket \p Path (an existing file at Path is
  /// replaced) and accepts until a drain begins (a Shutdown frame or a
  /// drain request). Returns 0 when the drain's in-flight work finished
  /// inside DrainTimeoutMs, 1 on setup failure (bind/listen), 4 when the
  /// drain had to be forced — by a second drain request or by the drain
  /// timeout expiring.
  int serveUnixSocket(const std::string &Path);

  /// Serves a single connection on stdin/stdout ("--serve -"): the
  /// pipe-mode peer for driving the server from a harness without
  /// socket plumbing. Returns 0 when the stream ended cleanly or shut
  /// down, 1 when a protocol error closed it.
  int serveStdio();

  /// balign-sentinel: the drain state machine, callable from any thread.
  /// The first call begins a supervised drain, the step a Shutdown frame
  /// also takes — the accept loop stops, connections stop reading new
  /// frames (their read side is shut down), and in-flight requests run
  /// to completion under DrainTimeoutMs. A second call (the
  /// double-SIGTERM escalation) forces the drain: every in-flight
  /// request is answered with an Error frame immediately and
  /// connections are torn down. A Shutdown frame never forces. This is
  /// also the injectable signal-delivery hook — the SIGTERM/SIGINT
  /// self-pipe ends here, and tests call it directly.
  void requestDrain();

  /// True once a drain has begun (drain request or Shutdown frame).
  bool draining() const { return Draining.load(); }

  /// True once the drain was escalated (second signal or timeout).
  bool drainForced() const { return ForcedDrain.load(); }

  /// Installs SIGTERM/SIGINT handlers (no SA_RESTART) whose self-pipe
  /// watcher thread calls requestDrain() per signal. Call once, from the
  /// thread that owns the server, before serving. The handlers survive
  /// the server; align_tool's serve mode is a serve-then-exit process.
  void installSignalDrain();

  /// Align requests currently in flight (admitted, not yet answered).
  size_t inFlightRequests() const;

  /// The serve counters.
  MetricRegistry &metrics() { return Metrics; }

  /// Metrics snapshot in the `--metrics-json` shape, cache counters
  /// merged in, queue high-water refreshed.
  std::string metricsJson();

private:
  /// One response slot shared by the pool worker, the connection thread
  /// (Stuck) and a forced drain: whichever calls complete() first wins,
  /// the others' frames are dropped. The connection thread blocks on
  /// the future.
  struct PendingResponse {
    std::atomic<bool> Done{false};
    std::promise<Frame> Promise;

    /// True when this call fulfilled the promise.
    bool complete(Frame Response) {
      if (Done.exchange(true))
        return false;
      Promise.set_value(std::move(Response));
      return true;
    }
  };

  /// Dispatches one well-formed frame; returns the response to write.
  /// Sets \p SawShutdown for Shutdown frames.
  Frame dispatch(const Frame &Request, bool &SawShutdown);

  /// Admits one decoded align request, runs it on the pool and waits
  /// for its response (from the worker — or Stuck from this thread, or
  /// a forced drain's).
  Frame runAlign(const AlignRequest &Request);

  /// The first drain request's step, and a Shutdown frame's: stop
  /// accepting and shut every connection's read side. Runs once.
  void beginDrain();

  /// Escalation: answer every in-flight request with an Error frame now
  /// and tear down registered connections.
  void forceDrain();

  /// Connections served right now.
  size_t liveConnections() const;

  uint64_t nowMs() const;

  AlignService Service;
  ServeConfig Config;
  ThreadPool Pool;
  MetricRegistry Metrics;
  std::atomic<int> ListenFd{-1};

  // balign-sentinel drain state.
  std::atomic<int> DrainSignals{0};
  std::atomic<bool> Draining{false};
  std::atomic<bool> ForcedDrain{false};

  // The in-flight table: TableMutex guards the three members after it.
  mutable std::mutex TableMutex;
  std::vector<std::shared_ptr<PendingResponse>> InFlight;
  std::vector<int> ConnFds;
  size_t HighWater = 0; ///< Deepest InFlight has been.
  std::thread SignalWatcher;
};

} // namespace balign

#endif // BALIGN_SERVE_SERVER_H
