//===- tests/trace_test.cpp - balign-scope tracing & metrics tests ----------===//
//
// Tests for the balign-scope observability layer: session lifecycle and
// zero-overhead-off behavior, span recording with tracks/sequences/
// depths, the program-order drain determinism contract (same
// (name, track, seq) stream and same counter map at every thread
// count), the MetricRegistry counter/gauge split, the TraceCheck verify
// pass on synthetic corruption, and the exporters.
//
//===--------------------------------------------------------------------===//

#include "align/Pipeline.h"
#include "analysis/Verifier.h"
#include "ir/CFGBuilder.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "trace/Scope.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

using namespace balign;

namespace {

Program smallProgram(uint64_t Seed, size_t NumProcs = 3) {
  Program Prog("traced");
  for (size_t P = 0; P != NumProcs; ++P) {
    Rng R(Seed + P);
    GenParams Params;
    Params.TargetBranchSites = 5;
    Prog.addProcedure(
        generateProcedure("p" + std::to_string(P), Params, R).Proc);
  }
  return Prog;
}

ProgramProfile profileAll(const Program &Prog, uint64_t Seed) {
  ProgramProfile Train;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    Rng TraceRng(Seed + P);
    Train.Procs.push_back(walkProfile(Prog.proc(P),
                                      BranchBehavior::uniform(Prog.proc(P)),
                                      TraceRng, 300));
  }
  return Train;
}

/// The thread-count-invariant projection of a drained span stream.
std::vector<std::tuple<std::string, int64_t, uint64_t>>
spanKeys(const TraceSession &Session) {
  std::vector<std::tuple<std::string, int64_t, uint64_t>> Keys;
  for (const TraceSpan &S : Session.drainSpans())
    Keys.emplace_back(S.Name, S.Track, S.Seq);
  return Keys;
}

} // namespace

//===--------------------------------------------------------------------===//
// MetricRegistry
//===--------------------------------------------------------------------===//

TEST(MetricRegistryTest, CountersAccumulate) {
  MetricRegistry M;
  EXPECT_EQ(M.counter("cache.hits"), 0u);
  M.counterAdd("cache.hits", 1);
  M.counterAdd("cache.hits", 2);
  M.counterAdd("cache.misses", 5);
  EXPECT_EQ(M.counter("cache.hits"), 3u);
  EXPECT_EQ(M.counter("cache.misses"), 5u);
  auto Snapshot = M.counters();
  ASSERT_EQ(Snapshot.size(), 2u);
  EXPECT_EQ(Snapshot.begin()->first, "cache.hits"); // Sorted by name.
}

TEST(MetricRegistryTest, GaugesAddAndMax) {
  MetricRegistry M;
  M.gaugeAdd("pool.steals", 4);
  M.gaugeMax("pool.queue-depth", 7);
  M.gaugeMax("pool.queue-depth", 3); // Lower value must not shrink it.
  EXPECT_EQ(M.gauge("pool.steals"), 4u);
  EXPECT_EQ(M.gauge("pool.queue-depth"), 7u);
  EXPECT_TRUE(M.counters().empty()); // Gauges never leak into counters.
}

//===--------------------------------------------------------------------===//
// Session lifecycle and span recording
//===--------------------------------------------------------------------===//

TEST(TraceSessionTest, ProbesAreInertWithoutSession) {
  ASSERT_EQ(TraceSession::active(), nullptr);
  {
    ScopedSpan Span("orphan", SpanCat::Stage);
    TrackScope Track(7);
    scopeCounterAdd("nobody.home");
  } // Must not crash, allocate into a session, or leave state behind.
  EXPECT_EQ(TraceSession::active(), nullptr);
}

TEST(TraceSessionTest, InstallUninstallBracketsRecording) {
  TraceSession Session;
  EXPECT_EQ(TraceSession::active(), nullptr);
  Session.install();
  EXPECT_EQ(TraceSession::active(), &Session);
  { ScopedSpan Span("while-on", SpanCat::Pipeline); }
  Session.uninstall();
  EXPECT_EQ(TraceSession::active(), nullptr);
  { ScopedSpan Span("while-off", SpanCat::Pipeline); }
  EXPECT_EQ(Session.numSpans(), 1u);
  EXPECT_STREQ(Session.drainSpans()[0].Name, "while-on");
}

TEST(TraceSessionTest, SpansCarryTrackSeqAndDepth) {
  TraceSession Session;
  Session.install();
  {
    ScopedSpan Outer("outer", SpanCat::Pipeline); // Program track, seq 0.
    TrackScope Track(2);
    ScopedSpan Inner("inner", SpanCat::Stage); // Track 2, seq 0, depth 1.
    ScopedSpan Nested("nested", SpanCat::Solver); // Track 2, seq 1, depth 2.
  }
  Session.uninstall();

  std::vector<TraceSpan> Spans = Session.drainSpans();
  ASSERT_EQ(Spans.size(), 3u);
  // Drain order is (Track, Seq): program track first, then track 2.
  EXPECT_STREQ(Spans[0].Name, "outer");
  EXPECT_EQ(Spans[0].Track, ProgramTrack);
  EXPECT_EQ(Spans[0].Seq, 0u);
  EXPECT_EQ(Spans[0].Depth, 0u);
  EXPECT_STREQ(Spans[1].Name, "inner");
  EXPECT_EQ(Spans[1].Track, 2);
  EXPECT_EQ(Spans[1].Seq, 0u);
  EXPECT_EQ(Spans[1].Depth, 1u);
  EXPECT_STREQ(Spans[2].Name, "nested");
  EXPECT_EQ(Spans[2].Track, 2);
  EXPECT_EQ(Spans[2].Seq, 1u);
  EXPECT_EQ(Spans[2].Depth, 2u);
  for (const TraceSpan &S : Spans)
    EXPECT_GE(S.EndNs, S.StartNs);
}

//===--------------------------------------------------------------------===//
// Pipeline integration: the determinism contract
//===--------------------------------------------------------------------===//

TEST(TraceSessionTest, PipelineDrainIsThreadCountInvariant) {
  Program Prog = smallProgram(11, 4);
  ProgramProfile Train = profileAll(Prog, 17);

  auto traced = [&](unsigned Threads) {
    auto Session = std::make_unique<TraceSession>();
    Session->install();
    AlignmentOptions Options;
    Options.ComputeBounds = true;
    Options.Threads = Threads;
    alignProgram(Prog, Train, Options);
    Session->uninstall();
    return Session;
  };

  auto S1 = traced(1);
  auto S4 = traced(4);
  EXPECT_GT(S1->numSpans(), 0u);

  // The (name, track, seq) stream and the counter map are pure
  // functions of the inputs; gauges (pool.*) are explicitly exempt.
  EXPECT_EQ(spanKeys(*S1), spanKeys(*S4));
  EXPECT_EQ(S1->metrics().counters(), S4->metrics().counters());

  // Both sessions satisfy the TraceCheck verify pass.
  DiagnosticEngine Diags;
  EXPECT_EQ(checkTrace(*S1, Diags), 0u) << Diags.renderAll();
  EXPECT_EQ(checkTrace(*S4, Diags), 0u) << Diags.renderAll();

  // And tracing never perturbs the computation it observes: a traced
  // and an untraced run produce identical alignments.
  AlignmentOptions Options;
  Options.ComputeBounds = true;
  Options.Threads = 1;
  ProgramAlignment Plain = alignProgram(Prog, Train, Options);
  TraceSession Session;
  Session.install();
  ProgramAlignment Traced = alignProgram(Prog, Train, Options);
  Session.uninstall();
  ASSERT_EQ(Plain.Procs.size(), Traced.Procs.size());
  for (size_t I = 0; I != Plain.Procs.size(); ++I) {
    EXPECT_EQ(Plain.Procs[I].TspLayout.Order, Traced.Procs[I].TspLayout.Order);
    EXPECT_EQ(Plain.Procs[I].TspPenalty, Traced.Procs[I].TspPenalty);
  }
}

//===--------------------------------------------------------------------===//
// TraceCheck: the balign-verify pass over span streams
//===--------------------------------------------------------------------===//

namespace {

TraceSpan makeSpan(const char *Name, int64_t Track, uint64_t Seq,
                   uint32_t Depth, uint32_t ThreadId, uint64_t StartNs,
                   uint64_t EndNs) {
  TraceSpan S;
  S.Name = Name;
  S.Track = Track;
  S.Seq = Seq;
  S.Depth = Depth;
  S.ThreadId = ThreadId;
  S.StartNs = StartNs;
  S.EndNs = EndNs;
  return S;
}

} // namespace

TEST(TraceCheckTest, CleanStreamPasses) {
  std::vector<TraceSpan> Spans{
      makeSpan("align", ProgramTrack, 0, 0, 0, 0, 100),
      makeSpan("task", 0, 0, 1, 0, 10, 50),
      makeSpan("task", 1, 0, 1, 0, 55, 90),
  };
  DiagnosticEngine Diags;
  EXPECT_EQ(checkTraceSpans(Spans, Diags), 0u) << Diags.renderAll();
}

TEST(TraceCheckTest, FlagsNegativeDuration) {
  std::vector<TraceSpan> Spans{
      makeSpan("bad", ProgramTrack, 0, 0, 0, 100, 40),
  };
  DiagnosticEngine Diags;
  EXPECT_GT(checkTraceSpans(Spans, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::TraceNegativeDuration));
}

TEST(TraceCheckTest, FlagsBadNesting) {
  // The depth-1 span pokes outside its depth-0 parent's window.
  std::vector<TraceSpan> Spans{
      makeSpan("outer", ProgramTrack, 0, 0, 0, 0, 50),
      makeSpan("inner", ProgramTrack, 1, 1, 0, 10, 80),
  };
  DiagnosticEngine Diags;
  EXPECT_GT(checkTraceSpans(Spans, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::TraceBadNesting));
}

TEST(TraceCheckTest, FlagsSeqGap) {
  // Track 3 jumps from seq 0 to seq 2: the drain order would not be
  // reproducible, so the stream is rejected.
  std::vector<TraceSpan> Spans{
      makeSpan("a", 3, 0, 0, 0, 0, 10),
      makeSpan("b", 3, 2, 0, 0, 20, 30),
  };
  DiagnosticEngine Diags;
  EXPECT_GT(checkTraceSpans(Spans, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::TraceSeqGap));
}

TEST(TraceCheckTest, CounterMonotonicity) {
  std::map<std::string, uint64_t> Before{{"cache.hits", 5},
                                         {"solver.runs", 10}};
  std::map<std::string, uint64_t> Same = Before;
  std::map<std::string, uint64_t> Grown{{"cache.hits", 9},
                                        {"solver.runs", 10}};
  std::map<std::string, uint64_t> Regressed{{"cache.hits", 4},
                                            {"solver.runs", 10}};
  std::map<std::string, uint64_t> Vanished{{"solver.runs", 10}};
  DiagnosticEngine Diags;
  EXPECT_EQ(checkCounterMonotonic(Before, Same, Diags), 0u);
  EXPECT_EQ(checkCounterMonotonic(Before, Grown, Diags), 0u);
  EXPECT_GT(checkCounterMonotonic(Before, Regressed, Diags), 0u);
  EXPECT_GT(checkCounterMonotonic(Before, Vanished, Diags), 0u);
  EXPECT_TRUE(Diags.has(CheckId::TraceCounterRegressed));
}

//===--------------------------------------------------------------------===//
// Exporters
//===--------------------------------------------------------------------===//

TEST(TraceExportTest, ChromeTraceJsonShape) {
  TraceSession Session;
  Session.install();
  {
    ScopedSpan Outer("outer", SpanCat::Pipeline);
    ScopedSpan Inner("inner", SpanCat::Stage);
  }
  Session.uninstall();
  std::string Json = Session.chromeTraceJson();
  EXPECT_EQ(Json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_EQ(Json.back(), '\n');
  EXPECT_NE(Json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(Json.find("\"outer\""), std::string::npos);
  EXPECT_NE(Json.find("\"cat\":\"stage\""), std::string::npos);
}

TEST(TraceExportTest, MetricsJsonAndSummary) {
  TraceSession Session;
  Session.install();
  scopeCounterAdd("cache.hits", 3);
  scopeGaugeAdd("pool.steals", 2);
  { ScopedSpan Span("one", SpanCat::Cache); }
  Session.uninstall();

  std::string Json = Session.metricsJson();
  EXPECT_NE(Json.find("\"counters\""), std::string::npos);
  EXPECT_NE(Json.find("\"cache.hits\":3"), std::string::npos);
  EXPECT_NE(Json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(Json.find("\"pool.steals\":2"), std::string::npos);
  EXPECT_NE(Json.find("\"spans\":1"), std::string::npos);

  std::string Text = Session.metricsSummary();
  EXPECT_NE(Text.find("scope:"), std::string::npos);
  EXPECT_NE(Text.find("cache.hits"), std::string::npos);
}
