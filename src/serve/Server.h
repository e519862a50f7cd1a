//===- serve/Server.h - Long-lived alignment server -----------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The connection/threading half of balign-serve. An AlignServer owns
///
///  - one work-stealing ThreadPool every align request is multiplexed
///    onto (each request runs whole on one worker, Threads=1 inside, so
///    the repo's thread-count invariance makes responses byte-identical
///    at any pool size);
///  - one AdmissionGate bounding in-flight align requests — past the
///    budget a request is answered FrameError::Rejected immediately
///    instead of queueing without bound (backpressure, not buffering);
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
/// in request order; concurrency comes from multiple connections). A
/// protocol error on a connection closes that connection after a
/// best-effort error frame — it never touches the server or its
/// siblings.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SERVE_SERVER_H
#define BALIGN_SERVE_SERVER_H

#include "serve/Service.h"

#include "cache/Store.h"
#include "support/ThreadPool.h"
#include "trace/Scope.h"

#include <atomic>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace balign {

/// Bounded admission of in-flight align requests. Budget 0 = unlimited
/// (the CLI convention). Thread-safe; public so tests can pre-saturate
/// it and observe a deterministic Rejected without racing real work.
class AdmissionGate {
public:
  explicit AdmissionGate(size_t Budget) : Budget(Budget) {}

  /// Claims a slot; false when the budget is exhausted (backpressure).
  bool tryAdmit() {
    std::lock_guard<std::mutex> Lock(Mutex);
    if (Budget != 0 && Depth >= Budget)
      return false;
    ++Depth;
    if (Depth > HighWater)
      HighWater = Depth;
    return true;
  }

  /// Returns a slot claimed by tryAdmit.
  void release() {
    std::lock_guard<std::mutex> Lock(Mutex);
    --Depth;
  }

  /// In-flight align requests right now.
  size_t depth() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return Depth;
  }

  /// Deepest the gate has ever been (the serve.queue.highwater gauge).
  size_t highWater() const {
    std::lock_guard<std::mutex> Lock(Mutex);
    return HighWater;
  }

private:
  mutable std::mutex Mutex;
  size_t Budget;
  size_t Depth = 0;
  size_t HighWater = 0;
};

/// balign-sentinel: slack past a request's deadline before the watchdog
/// abandons it with FrameError::Stuck. The deadline itself is polled by
/// the profile walk and inside the pipeline; the watchdog fires when a
/// worker blew through it without returning. Requests with no deadline
/// at all are never flagged.
inline constexpr uint64_t StuckGraceMs = 1000;

/// Real-time interval between watchdog scans of the in-flight table.
inline constexpr uint64_t StuckPollMs = 20;

/// Server-level configuration.
struct ServeConfig {
  /// Pool workers align requests run on (0 = hardware threads).
  unsigned Threads = 0;

  /// Max in-flight align requests before Rejected (0 = unlimited).
  size_t QueueBudget = 0;

  /// Deadline for requests that do not carry one (0 = unlimited).
  uint64_t DefaultDeadlineMs = 0;

  /// balign-sentinel: how long a drain (SIGTERM / requestDrain) waits
  /// for in-flight connections before escalating to a forced shutdown
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
    Shutdown,      ///< A Shutdown frame was answered; the server stops.
  };

  /// Serves one established connection: reads frames from \p InFd and
  /// writes responses to \p OutFd until EOF, a protocol error, or a
  /// Shutdown frame. Thread-safe; the accept loop runs it once per
  /// connection thread.
  ConnectionEnd serveConnection(int InFd, int OutFd);

  /// Listens on unix-domain socket \p Path (an existing file at Path is
  /// replaced) and accepts until a Shutdown frame or a drain request
  /// arrives. Returns 0 on clean shutdown (including a drain whose
  /// in-flight work finished inside DrainTimeoutMs), 1 on setup failure
  /// (bind/listen), 4 when the drain had to be forced — by a second
  /// drain request or by the drain timeout expiring.
  int serveUnixSocket(const std::string &Path);

  /// Serves a single connection on stdin/stdout ("--serve -"): the
  /// pipe-mode peer for driving the server from a harness without
  /// socket plumbing. Returns 0 when the stream ended cleanly or shut
  /// down, 1 when a protocol error closed it.
  int serveStdio();

  /// balign-sentinel: the drain state machine, callable from any thread.
  /// The first call begins a supervised drain — the accept loop stops,
  /// connections stop reading new frames (their read side is shut
  /// down), and in-flight requests run to completion under
  /// DrainTimeoutMs. A second call (the double-SIGTERM escalation)
  /// forces the drain: every in-flight request is answered with an
  /// Error frame immediately and connections are torn down. This is
  /// also the injectable signal-delivery hook — the SIGTERM/SIGINT
  /// self-pipe ends here, and tests call it directly.
  void requestDrain();

  /// True once a drain has been requested.
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

  /// The admission gate (tests pre-saturate it for deterministic
  /// Rejected coverage).
  AdmissionGate &gate() { return Gate; }

  /// The serve counters.
  MetricRegistry &metrics() { return Metrics; }

  /// Metrics snapshot in the `--metrics-json` shape, cache counters
  /// merged in, queue high-water refreshed.
  std::string metricsJson();

private:
  /// One response slot shared by the pool worker and the watchdog:
  /// whichever calls complete() first wins, the other's frame is
  /// dropped. The connection thread blocks on the future.
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

  /// What the watchdog scans: when did the request start, how long was
  /// it allowed, where to deliver the Stuck frame.
  struct InFlightRequest {
    uint64_t Id = 0;
    uint64_t StartMs = 0;
    uint64_t LimitMs = 0; ///< 0 = no deadline, never flagged stuck.
    std::shared_ptr<PendingResponse> Pending;
  };

  /// Dispatches one well-formed frame; returns the response to write.
  /// Sets \p SawShutdown for Shutdown frames.
  Frame dispatch(const Frame &Request, bool &SawShutdown);

  /// Runs one decoded align request on the pool and waits for its
  /// response (from the worker — or from the watchdog/forced drain).
  Frame runAlign(const AlignRequest &Request);

  /// The watchdog thread body: periodically flags in-flight requests
  /// that blew past deadline + StuckGraceMs with FrameError::Stuck.
  void watchdogLoop();

  /// Escalation: answer every in-flight request with an Error frame now
  /// and tear down registered connections.
  void forceDrain();

  uint64_t nowMs() const;

  AlignService Service;
  ServeConfig Config;
  ThreadPool Pool;
  AdmissionGate Gate;
  MetricRegistry Metrics;
  std::atomic<bool> Stopping{false};
  std::atomic<int> ListenFd{-1};

  // balign-sentinel drain/watchdog state.
  std::atomic<int> DrainSignals{0};
  std::atomic<bool> Draining{false};
  std::atomic<bool> ForcedDrain{false};
  std::atomic<uint64_t> NextRequestId{1};
  std::atomic<size_t> ActiveConnections{0};
  mutable std::mutex InFlightMutex;
  std::vector<InFlightRequest> InFlight;
  std::mutex ConnMutex;
  std::vector<int> ConnFds;
  std::thread Watchdog;
  std::mutex WatchdogMutex;
  std::condition_variable WatchdogCv;
  bool WatchdogStop = false;
  std::thread SignalWatcher;
};

} // namespace balign

#endif // BALIGN_SERVE_SERVER_H
