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
///    admitted align request and the deepest the table has been.
///    Admission reads it — past QueueBudget a request is answered
///    FrameError::Rejected immediately instead of queueing without bound
///    (backpressure, not buffering) — and so do the
///    serve.queue.highwater gauge and a forced drain;
///  - one wake pipe, which a drain makes readable for good; the accept
///    loop and every frame read (readFrame's WakeFd) poll it;
///  - one MetricRegistry of serve counters, exported through the
///    Metrics request type in the exact `--metrics-json` shape. The
///    server deliberately does *not* install a TraceSession: a span per
///    request would grow without bound over a server's lifetime.
///
/// Ownership/threading model: the accept loop spawns one thread per
/// connection and joins the finished ones at each accept, so exited
/// connections hold no thread; the connection thread reads frames in
/// order, answers ping/metrics/shutdown inline, and waits on the pool
/// future for each align request (so one connection sees its responses
/// in request order; concurrency comes from multiple connections). That
/// thread waits in StuckPollMs slices and is the request's watchdog and
/// the drain's supervisor: it answers FrameError::Stuck once a request
/// blows past deadline + StuckGraceMs, and forces a drain older than
/// DrainTimeoutMs. A protocol error on a connection closes that
/// connection after a best-effort error frame — it never touches the
/// server or its siblings.
///
/// The server stops one way: a Shutdown frame and the first
/// requestDrain() (SIGTERM/SIGINT) begin the same drain. Its wake stops
/// the accept loop and ends every idle read, over a socket or a pipe,
/// and in-flight aligns finish under DrainTimeoutMs; a second drain
/// request or the timeout forces it.
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
  /// requestDrain) waits for in-flight requests before the connection
  /// thread waiting on one forces it (0 = wait forever). Measured on
  /// Clock, so tests drive the timeout from a ManualClock.
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
    Eof,           ///< Clean EOF, or a drain, at a frame boundary.
    ProtocolError, ///< A framing error closed the connection.
    Shutdown,      ///< A Shutdown frame was answered; the server drains.
  };

  /// Serves one established connection: reads frames from \p InFd and
  /// writes responses to \p OutFd until EOF, a protocol error, a
  /// Shutdown frame, or a drain that finds the stream idle. Thread-safe;
  /// the accept loop runs it once per connection thread.
  ConnectionEnd serveConnection(int InFd, int OutFd);

  /// Listens on unix-domain socket \p Path (an existing file at Path is
  /// replaced) and accepts until a drain begins (a Shutdown frame, a
  /// drain request, or an accept(2) error that is not transient). Returns
  /// 0 when the drain's in-flight work finished inside DrainTimeoutMs, 1
  /// on setup failure (the wake pipe, bind, listen), 4 when the drain had
  /// to be forced — by a second drain request or by the drain timeout
  /// expiring.
  int serveUnixSocket(const std::string &Path);

  /// Serves a single connection on stdin/stdout ("--serve -"): the
  /// pipe-mode peer for driving the server from a harness without
  /// socket plumbing. It drains like a socket connection. Returns 0 when
  /// the stream ended cleanly, shut down or drained, 1 on setup failure
  /// (the wake pipe) or when a protocol error closed it, 4 when the drain
  /// was forced.
  int serveStdio();

  /// balign-sentinel: the drain state machine, callable from any thread.
  /// The first call begins a supervised drain, the step a Shutdown frame
  /// also takes — the wake pipe fires, the accept loop stops, idle
  /// connections end their reads, and in-flight requests run to
  /// completion under DrainTimeoutMs. A second call (the double-SIGTERM
  /// escalation) forces the drain: every in-flight request is answered
  /// with an Error frame immediately, and each connection ends after
  /// writing it. A Shutdown frame never forces. This is also the
  /// injectable signal-delivery hook — the SIGTERM/SIGINT self-pipe ends
  /// here, and tests call it directly.
  void requestDrain();

  /// True once a drain has begun (drain request or Shutdown frame).
  bool draining() const { return DrainStartMs.load() != NotDraining; }

  /// True once the drain was escalated (second signal or timeout).
  bool drainForced() const { return ForcedDrain.load(); }

  /// Installs SIGTERM/SIGINT handlers whose self-pipe watcher thread
  /// calls requestDrain() per signal. Call once, from the thread that
  /// owns the server, before serving. The handlers survive the server;
  /// align_tool's serve mode is a serve-then-exit process.
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
  /// the others' frames are dropped. The connection thread waits on
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
  /// a forced drain's), forcing the drain once it outlives
  /// DrainTimeoutMs.
  Frame runAlign(const AlignRequest &Request);

  /// The first drain request's step, and a Shutdown frame's: note the
  /// drain's start and fire the wake pipe. Runs once.
  void beginDrain();

  /// Escalation: answer every in-flight request with an Error frame now.
  void forceDrain();

  /// False, after one error line, when the constructor's pipe(2) failed.
  bool wakePipeReady() const;

  uint64_t nowMs() const;

  /// DrainStartMs before any drain has begun.
  static constexpr uint64_t NotDraining = UINT64_MAX;

  AlignService Service;
  ServeConfig Config;
  ThreadPool Pool;
  MetricRegistry Metrics;

  // balign-sentinel drain state.
  std::atomic<int> DrainSignals{0};
  std::atomic<uint64_t> DrainStartMs{NotDraining}; ///< On Config.Clock.
  std::atomic<bool> ForcedDrain{false};
  int WakeFds[2] = {-1, -1}; ///< The wake pipe; -1s when pipe(2) failed.
  int WakeErrno = 0;

  // The in-flight table: TableMutex guards the two members after it.
  mutable std::mutex TableMutex;
  std::vector<std::shared_ptr<PendingResponse>> InFlight;
  size_t HighWater = 0; ///< Deepest InFlight has been.
  std::thread SignalWatcher;
};

} // namespace balign

#endif // BALIGN_SERVE_SERVER_H
