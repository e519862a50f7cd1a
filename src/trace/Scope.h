//===- trace/Scope.h - balign-scope structured tracing & metrics ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// balign-scope: a zero-overhead-when-off tracing and metrics layer for
/// the whole alignment pipeline. One TraceSession, when installed as the
/// process-active session, collects
///
///  - spans: begin/end intervals with monotonic timestamps, the
///    recording thread, and a *track* (the procedure index being
///    aligned, or -1 for program-scope work), recorded by RAII
///    ScopedSpan probes at every stage boundary — profile parse, the
///    DTSP reduction, the STSP transform, each 3-Opt run, the HK/AP
///    bounds, the greedy aligner, cache load/lookup/store/flush, verify
///    passes, and per-procedure task execution;
///
///  - metrics: named counters and gauges published by the subsystems
///    (cache hits/misses/salvages, shield retries/faults/rungs, pool
///    tasks/queue depth, solver iterations/kicks).
///
/// Determinism contract (the same discipline as the verify hook and
/// FailureReports): spans are *drained in program order* — sorted by
/// (track, per-track begin sequence) — so the drained span list, with
/// timestamps and thread ids masked out, is identical at every thread
/// count. Everything published as a *counter* must likewise be a pure
/// function of the inputs (sums of per-procedure work, never scheduling
/// artifacts); scheduling-dependent quantities (queue depths, retry
/// totals under real transients) go into *gauges*, which make no
/// cross-thread-count promise. CI diffs the counter map between
/// Threads=1 and Threads=8 runs to enforce the split.
///
/// Zero overhead when off: every probe starts with one relaxed atomic
/// load of the active-session pointer and does nothing else when no
/// session is installed. bench/trace_overhead.cpp measures the probe
/// and asserts the a-priori bound stays below run-to-run noise.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_TRACE_SCOPE_H
#define BALIGN_TRACE_SCOPE_H

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace balign {

/// Span categories; exported as the Chrome trace_event "cat" field so
/// viewers can filter by pipeline layer.
enum class SpanCat : uint8_t {
  Pipeline, ///< Whole-program driver work (align, drain).
  Stage,    ///< One per-procedure pipeline stage.
  Solver,   ///< Inside the TSP solver (transform, 3-Opt runs, bounds).
  Cache,    ///< balign-cache store operations.
  Verify,   ///< balign-verify passes.
  Io,       ///< Input parsing and other file I/O.
  Lint,     ///< balign-lint static CFG/profile analysis.
};

/// Returns the stable printable category name, e.g. "stage".
const char *spanCatName(SpanCat Cat);

/// The track every span not inside a per-procedure scope lands on.
inline constexpr int64_t ProgramTrack = -1;

/// One completed span. StartNs/EndNs are monotonic nanoseconds relative
/// to the session's construction; Seq is the span's begin order within
/// its track; Depth is the count of enclosing traced spans on the
/// recording thread at begin time.
struct TraceSpan {
  const char *Name = "";
  SpanCat Cat = SpanCat::Pipeline;
  int64_t Track = ProgramTrack;
  uint64_t Seq = 0;
  uint32_t Depth = 0;
  uint32_t ThreadId = 0;
  uint64_t StartNs = 0;
  uint64_t EndNs = 0;
};

/// Named counters and gauges. Counters are add-only (monotone within a
/// session) and must be thread-count-deterministic; gauges accept both
/// add and max aggregation and carry no determinism promise. All
/// methods are thread-safe.
class MetricRegistry {
public:
  /// Adds \p Delta to counter \p Name (creating it at zero).
  void counterAdd(const std::string &Name, uint64_t Delta);

  /// Adds \p Delta to gauge \p Name (creating it at zero).
  void gaugeAdd(const std::string &Name, uint64_t Delta);

  /// Raises gauge \p Name to at least \p Value.
  void gaugeMax(const std::string &Name, uint64_t Value);

  /// Current value of a counter / gauge; 0 when never published.
  uint64_t counter(const std::string &Name) const;
  uint64_t gauge(const std::string &Name) const;

  /// Snapshots, sorted by name (std::map), for export and diffing.
  std::map<std::string, uint64_t> counters() const;
  std::map<std::string, uint64_t> gauges() const;

private:
  mutable std::mutex Mutex;
  std::map<std::string, uint64_t> Counters;
  std::map<std::string, uint64_t> Gauges;
};

/// One tracing session. Construct, install() to make it the
/// process-active session (probes everywhere start recording into it),
/// run the pipeline, then export. The destructor uninstalls.
///
/// Only one session may be installed at a time; sessions are intended
/// to bracket whole runs, not nest.
class TraceSession {
public:
  TraceSession();
  ~TraceSession();
  TraceSession(const TraceSession &) = delete;
  TraceSession &operator=(const TraceSession &) = delete;

  /// Makes this the process-active session. Aborts (assert) if another
  /// session is already installed.
  void install();

  /// Uninstalls this session if it is the active one. Idempotent.
  void uninstall();

  /// The process-active session, or nullptr when tracing is off. One
  /// relaxed atomic load: this is the whole cost of a probe when off.
  static TraceSession *active() {
    return ActiveSession.load(std::memory_order_relaxed);
  }

  MetricRegistry &metrics() { return Metrics; }
  const MetricRegistry &metrics() const { return Metrics; }

  /// Begin-side state a ScopedSpan carries between begin and end.
  struct SpanToken {
    uint64_t StartNs = 0;
    uint64_t Seq = 0;
    int64_t Track = ProgramTrack;
    uint32_t Depth = 0;
    uint32_t ThreadId = 0;
  };

  /// Records the begin side of a span on the calling thread's current
  /// track. Paired with endSpan via ScopedSpan.
  SpanToken beginSpan();

  /// Records the completed span. \p Name must outlive the session
  /// (ScopedSpan passes string literals).
  void endSpan(const SpanToken &Token, const char *Name, SpanCat Cat);

  /// Number of completed spans recorded so far.
  size_t numSpans() const;

  /// The program-order drain: all completed spans sorted by
  /// (Track, Seq), ProgramTrack first. With timestamps and thread ids
  /// masked, this list is identical at every thread count.
  std::vector<TraceSpan> drainSpans() const;

  /// Chrome trace_event JSON (one complete "X" event per drained span),
  /// loadable in chrome://tracing or Perfetto.
  std::string chromeTraceJson() const;

  /// Machine-readable metrics dump: {"counters":{...},"gauges":{...},
  /// "spans":N}, keys sorted.
  std::string metricsJson() const;

  /// Human-readable metrics summary for stderr: one "name = value" line
  /// per metric under greppable "scope:" headers.
  std::string metricsSummary() const;

  /// Nanoseconds since session construction (monotonic clock).
  uint64_t nowNs() const;

  /// Session-local id of the calling thread (assigned on first use).
  uint32_t threadId();

private:
  static std::atomic<TraceSession *> ActiveSession;

  /// Distinguishes sessions for the thread-local id cache even when a
  /// later session reuses a dead one's address.
  uint64_t Epoch;

  std::chrono::steady_clock::time_point Start;
  MetricRegistry Metrics;

  mutable std::mutex Mutex;
  std::vector<TraceSpan> Spans;
  std::map<int64_t, uint64_t> NextSeq;
  uint32_t NextThreadId = 0;
};

/// RAII span probe. When no session is installed, construction is one
/// relaxed atomic load and destruction a null check. The name must be a
/// string literal (or otherwise outlive the session).
class ScopedSpan {
public:
  ScopedSpan(const char *Name, SpanCat Cat)
      : Session(TraceSession::active()), Name(Name), Cat(Cat) {
    if (Session)
      Token = Session->beginSpan();
  }
  ~ScopedSpan() {
    if (Session)
      Session->endSpan(Token, Name, Cat);
  }
  ScopedSpan(const ScopedSpan &) = delete;
  ScopedSpan &operator=(const ScopedSpan &) = delete;

private:
  TraceSession *Session;
  const char *Name;
  SpanCat Cat;
  TraceSession::SpanToken Token;
};

/// RAII track binding: spans recorded on this thread while the scope is
/// alive land on \p Track (the pipeline binds the procedure index
/// around each per-procedure task and around its drain step). Restores
/// the previous binding on exit; always cheap, session or not.
class TrackScope {
public:
  explicit TrackScope(int64_t Track);
  ~TrackScope();
  TrackScope(const TrackScope &) = delete;
  TrackScope &operator=(const TrackScope &) = delete;

private:
  int64_t Saved;
};

/// Renders a counter/gauge snapshot in the exact `--metrics-json` shape
/// ({"counters":{...},"gauges":{...},"spans":N}, keys sorted, trailing
/// newline). TraceSession::metricsJson delegates here; balign-serve uses
/// it directly over its own MetricRegistry, so the live metrics endpoint
/// and the CLI dump can never drift apart.
std::string renderMetricsJson(const std::map<std::string, uint64_t> &Counters,
                              const std::map<std::string, uint64_t> &Gauges,
                              size_t NumSpans);

/// Counter/gauge probes for instrumented subsystems: one relaxed atomic
/// load when tracing is off.
inline void scopeCounterAdd(const char *Name, uint64_t Delta = 1) {
  if (TraceSession *S = TraceSession::active())
    S->metrics().counterAdd(Name, Delta);
}

inline void scopeGaugeAdd(const char *Name, uint64_t Delta = 1) {
  if (TraceSession *S = TraceSession::active())
    S->metrics().gaugeAdd(Name, Delta);
}

inline void scopeGaugeMax(const char *Name, uint64_t Value) {
  if (TraceSession *S = TraceSession::active())
    S->metrics().gaugeMax(Name, Value);
}

} // namespace balign

#endif // BALIGN_TRACE_SCOPE_H
