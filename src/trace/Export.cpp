//===- trace/Export.cpp - balign-scope exporters --------------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The three TraceSession exporters:
///
///  - chromeTraceJson: the Chrome trace_event format (one complete "X"
///    event per span, microsecond timestamps), loadable in
///    chrome://tracing and Perfetto. Events appear in drain order and
///    carry track/seq/depth in "args", so a checker can validate the
///    deterministic drain without touching timestamps.
///  - metricsJson: a machine-readable counter/gauge dump consumed by
///    bench/trace_overhead.cpp and the CI round-trip step.
///  - metricsSummary: the human text form behind `align_tool --metrics`.
///
//===--------------------------------------------------------------------===//

#include "trace/Scope.h"

#include "support/Format.h"

#include <cstdio>
#include <sstream>

using namespace balign;

namespace {

void appendMetricMap(std::string &Out,
                     const std::map<std::string, uint64_t> &Metrics) {
  bool First = true;
  Out += '{';
  for (const auto &[Name, Value] : Metrics) {
    if (!First)
      Out += ',';
    First = false;
    Out += '"';
    Out += jsonEscaped(Name);
    Out += "\":";
    Out += std::to_string(Value);
  }
  Out += '}';
}

} // namespace

std::string TraceSession::chromeTraceJson() const {
  std::vector<TraceSpan> Drained = drainSpans();
  std::string Out;
  Out.reserve(128 + Drained.size() * 160);
  Out += "{\"traceEvents\":[\n";
  char Buffer[256];
  for (size_t I = 0; I != Drained.size(); ++I) {
    const TraceSpan &Span = Drained[I];
    Out += "{\"name\":\"";
    Out += jsonEscaped(Span.Name);
    Out += "\",\"cat\":\"";
    Out += spanCatName(Span.Cat);
    // trace_event wants microseconds; keep nanosecond precision in the
    // fraction so adjacent spans never collapse to one timestamp.
    std::snprintf(Buffer, sizeof(Buffer),
                  "\",\"ph\":\"X\",\"ts\":%llu.%03u,\"dur\":%llu.%03u,"
                  "\"pid\":1,\"tid\":%u,\"args\":{\"track\":%lld,"
                  "\"seq\":%llu,\"depth\":%u}}",
                  static_cast<unsigned long long>(Span.StartNs / 1000),
                  static_cast<unsigned>(Span.StartNs % 1000),
                  static_cast<unsigned long long>(
                      (Span.EndNs - Span.StartNs) / 1000),
                  static_cast<unsigned>((Span.EndNs - Span.StartNs) % 1000),
                  Span.ThreadId, static_cast<long long>(Span.Track),
                  static_cast<unsigned long long>(Span.Seq), Span.Depth);
    Out += Buffer;
    if (I + 1 != Drained.size())
      Out += ',';
    Out += '\n';
  }
  Out += "],\"displayTimeUnit\":\"ms\",\"otherData\":"
         "{\"tool\":\"balign-scope\"}}\n";
  return Out;
}

std::string balign::renderMetricsJson(
    const std::map<std::string, uint64_t> &Counters,
    const std::map<std::string, uint64_t> &Gauges, size_t NumSpans) {
  std::string Out = "{\"counters\":";
  appendMetricMap(Out, Counters);
  Out += ",\"gauges\":";
  appendMetricMap(Out, Gauges);
  Out += ",\"spans\":";
  Out += std::to_string(NumSpans);
  Out += "}\n";
  return Out;
}

std::string TraceSession::metricsJson() const {
  return renderMetricsJson(Metrics.counters(), Metrics.gauges(), numSpans());
}

std::string TraceSession::metricsSummary() const {
  std::map<std::string, uint64_t> Counters = Metrics.counters();
  std::map<std::string, uint64_t> Gauges = Metrics.gauges();
  std::ostringstream Out;
  Out << "scope: counters (deterministic at every thread count)\n";
  for (const auto &[Name, Value] : Counters)
    Out << "  " << Name << " = " << Value << "\n";
  if (Counters.empty())
    Out << "  (none)\n";
  Out << "scope: gauges (scheduling-dependent)\n";
  for (const auto &[Name, Value] : Gauges)
    Out << "  " << Name << " = " << Value << "\n";
  if (Gauges.empty())
    Out << "  (none)\n";
  Out << "scope: spans = " << numSpans() << "\n";
  return Out.str();
}
