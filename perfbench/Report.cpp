//===- perfbench/Report.cpp - Metric catalogue, statistics, digests --------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <sys/resource.h>

namespace balign::perfbench {

void RunResult::mismatch(const std::string &What) {
  Correct = false;
  ++Failed;
  std::fprintf(stderr, "perfbench: CORRECTNESS GATE FAILED: %s\n",
               What.c_str());
}

const std::vector<MetricSpec> &endToEndMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"setup_s", "s"},
      {"align_wall_s", "s"},
      {"peak_rss_mb", "MiB"},
      {"penalty_vs_original", "ratio"},
      {"xval_cycles_ratio", "ratio"},
      {"hk_gap_pct", "%"},
      {"serve_p50_ms", "ms"},
      {"serve_p99_ms", "ms"},
      {"serve_rps", "req/s"},
      {"ok_frac", "ratio"},
  };
  return Specs;
}

const std::vector<MetricSpec> &perLayerMetrics() {
  static const std::vector<MetricSpec> Specs = {
      {"workloads.build_s", "s"},
      {"align.greedy_s", "s"},
      {"align.reduction_s", "s"},
      {"tsp.transform_s", "s"},
      {"tsp.solve_s", "s"},
      {"tsp.solver_runs", "count"},
      {"tsp.runs_tied_frac", "ratio"},
      {"tsp.cities", "count"},
      {"tsp.matrix_bytes", "bytes"},
      {"align.bounds_s", "s"},
      {"tsp.heldkarp_s", "s"},
      {"align.chain_s", "s"},
      {"analysis.verify_s", "s"},
      {"objective.materialize_s", "s"},
      {"objective.displace_s", "s"},
      {"objective.displace_rounds", "count"},
      {"objective.long_branches", "count"},
      {"objective.evaluate_s", "s"},
      {"cache.fingerprint_s", "s"},
      {"cache.lookup_s", "s"},
      {"cache.hits", "count"},
      {"cache.misses", "count"},
      {"cache.hit_ratio", "ratio"},
      {"cache.store_s", "s"},
      {"cache.flush_s", "s"},
      {"cache.flushes", "count"},
      {"cache.flush_bytes_per_store", "bytes"},
      {"ir.parse_s", "s"},
      {"serve.decode_s", "s"},
      {"serve.encode_s", "s"},
      {"serve.synth_profile_s", "s"},
      {"serve.report_s", "s"},
      {"serve.handle_s", "s"},
      {"serve.wait_s", "s"},
      {"trace.replay_wall_s", "s"},
      {"trace.coverage", "ratio"},
      {"trace.overhead_pct", "%"},
      {"span.stage.greedy_s", "s"},
      {"span.stage.matrix_s", "s"},
      {"span.stage.solve_s", "s"},
      {"span.stage.chain_s", "s"},
      {"span.stage.bounds_s", "s"},
      {"span.bounds.held-karp_s", "s"},
      {"span.bounds.assignment_s", "s"},
      {"span.cache.lookup_s", "s"},
      {"span.cache.store_s", "s"},
      {"span.cache.flush_s", "s"},
      {"xcheck.align.greedy_s", "s"},
      {"xcheck.align.reduction_s", "s"},
      {"xcheck.tsp.solve_s", "s"},
      {"xcheck.align.chain_s", "s"},
      {"xcheck.align.bounds_s", "s"},
      {"xcheck.tsp.heldkarp_s", "s"},
      {"xcheck.cache.lookup_s", "s"},
      {"xcheck.cache.store_s", "s"},
      {"xcheck.cache.flush_s", "s"},
  };
  return Specs;
}

double LayerClock::seconds(const std::string &Layer) const {
  auto It = Seconds.find(Layer);
  return It == Seconds.end() ? 0.0 : It->second;
}

double LayerClock::counted(const std::string &Name) const {
  auto It = Counts.find(Name);
  return It == Counts.end() ? 0.0 : It->second;
}

double LayerClock::total(const std::vector<std::string> &Except) const {
  double Sum = 0.0;
  for (const auto &[Layer, S] : Seconds)
    if (std::find(Except.begin(), Except.end(), Layer) == Except.end())
      Sum += S;
  return Sum;
}

double LayerClock::sum(const std::vector<std::string> &Layers) const {
  double Sum = 0.0;
  for (const std::string &Layer : Layers)
    Sum += seconds(Layer);
  return Sum;
}

const std::vector<std::string> &probeLayers() {
  static const std::vector<std::string> Layers = {
      "tsp.transform_s", "objective.materialize_s", "objective.displace_s"};
  return Layers;
}

std::map<std::string, double> spanSeconds(const TraceSession &Session) {
  std::map<std::string, double> Totals;
  for (const TraceSpan &S : Session.drainSpans())
    Totals[S.Name] += static_cast<double>(S.EndNs - S.StartNs) * 1e-9;
  return Totals;
}

void addSpanCrossCheck(RunResult &R, const LayerClock &Clock,
                       const std::map<std::string, double> &Spans) {
  auto Span = [&](const char *Name) {
    auto It = Spans.find(Name);
    return It == Spans.end() ? 0.0 : It->second;
  };
  for (const char *Name :
       {"stage.greedy", "stage.matrix", "stage.solve", "stage.chain",
        "stage.bounds", "bounds.held-karp", "bounds.assignment",
        "cache.lookup", "cache.store", "cache.flush"})
    R.add(std::string("span.") + Name + "_s", Span(Name), "s");
  // Outside timing of a public call versus the span the program records
  // around the same work (spans summed over every thread that ran it).
  struct Pair {
    const char *Layer;
    const char *Span;
  };
  for (const Pair &P : {Pair{"align.greedy_s", "stage.greedy"},
                        Pair{"align.reduction_s", "stage.matrix"},
                        Pair{"tsp.solve_s", "stage.solve"},
                        Pair{"align.chain_s", "stage.chain"},
                        Pair{"align.bounds_s", "stage.bounds"},
                        Pair{"tsp.heldkarp_s", "bounds.held-karp"},
                        Pair{"cache.lookup_s", "cache.lookup"},
                        Pair{"cache.store_s", "cache.store"},
                        Pair{"cache.flush_s", "cache.flush"}})
    R.add(std::string("xcheck.") + P.Layer,
          Clock.seconds(P.Layer) - Span(P.Span), "s");
}

double peakRssMiB() {
  rusage Usage;
  std::memset(&Usage, 0, sizeof(Usage));
  getrusage(RUSAGE_SELF, &Usage);
  return static_cast<double>(Usage.ru_maxrss) / 1024.0; // KiB on Linux.
}

void Digest::layout(const Layout &L) {
  H.u64(L.Order.size());
  for (BlockId B : L.Order)
    H.u32(B);
}

void Digest::alignment(const ProcedureAlignment &PA) {
  layout(PA.OriginalLayout);
  layout(PA.GreedyLayout);
  layout(PA.TspLayout);
  H.u64(PA.OriginalPenalty);
  H.u64(PA.GreedyPenalty);
  H.u64(PA.TspPenalty);
  H.f64(PA.Bounds.HeldKarp);
  H.i64(PA.Bounds.Assignment);
  H.u64(PA.Bounds.AssignmentCycles);
  H.u8(static_cast<uint8_t>(PA.Rung));
}

void Digest::program(const ProgramAlignment &A) {
  H.u64(A.Procs.size());
  for (const ProcedureAlignment &PA : A.Procs)
    alignment(PA);
}

std::string committedDigest(const std::string &File,
                            const std::string &Workload, uint64_t Seed) {
  std::ifstream In(File);
  std::string Line;
  while (std::getline(In, Line)) {
    if (Line.empty() || Line[0] == '#')
      continue;
    std::istringstream Fields(Line);
    std::string W, Hex;
    uint64_t S = 0;
    if (Fields >> W >> S >> Hex && W == Workload && S == Seed)
      return Hex;
  }
  return {};
}

std::string jsonString(const std::string &S) {
  std::string Out = "\"";
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) < 0x20)
      continue;
    Out += C;
  }
  return Out + "\"";
}

std::string jsonNumbers(const std::vector<double> &Values) {
  std::string Out;
  for (double V : Values)
    Out += (Out.empty() ? "" : ", ") + std::to_string(V);
  return "[" + Out + "]";
}

} // namespace balign::perfbench
