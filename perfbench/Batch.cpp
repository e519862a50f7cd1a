//===- perfbench/Batch.cpp - The three batch (compile) workloads ----------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// suite-tsp and bounds-audit: each is a list of
// compiles (one alignProgram call per data set) repeated in passes for
// the measured window. The measured pass runs with tracing off on a
// pool of every hardware thread; the gate, the quality metrics and the
// traced run's serial replay all happen outside the timed region.
//
//===--------------------------------------------------------------------===//

#include "Bench.h"

#include "align/Aligners.h"
#include "align/Bounds.h"
#include "align/Reduction.h"
#include "analysis/PipelineVerifier.h"
#include "objective/Displace.h"
#include "objective/Penalty.h"
#include "sim/Simulator.h"
#include "static/EffortPolicy.h"
#include "support/Random.h"
#include "support/ThreadPool.h"
#include "tsp/Assignment.h"
#include "tsp/HeldKarp.h"
#include "tsp/IteratedOpt.h"
#include "tsp/Transform.h"
#include "workloads/Workloads.h"

#include <algorithm>
#include <memory>

namespace balign::perfbench {

ProcedureAlignment replayProcedure(const Procedure &Proc,
                                   const ProcedureProfile &Train,
                                   const AlignmentOptions &Options,
                                   size_t ProcIndex, LayerClock &Clock) {
  const MachineModel &Model = Options.Model;
  auto Evaluate = [&](const Layout &L) {
    return Clock.time("objective.evaluate_s", [&] {
      return evaluateLayout(Proc, L, Model, Train, Train);
    });
  };
  ProcedureAlignment PA;
  PA.OriginalLayout = Layout::original(Proc);
  PA.OriginalPenalty = Evaluate(PA.OriginalLayout);
  if (Train.executedBranches(Proc) == 0) {
    PA.GreedyLayout = PA.OriginalLayout;
    PA.TspLayout = PA.OriginalLayout;
    return PA;
  }

  PA.GreedyLayout = Clock.time("align.greedy_s", [&] {
    return GreedyAligner().align(Proc, Train, Model);
  });
  PA.GreedyPenalty = Evaluate(PA.GreedyLayout);
  EffortDecision Effort =
      decideEffort(Proc, Train, Options.Solver, Options.Effort);
  if (Effort.GreedyOnly) {
    PA.TspLayout = PA.GreedyLayout;
    PA.TspPenalty = PA.GreedyPenalty;
    return PA;
  }

  if (Options.Primary == PrimaryAligner::ExtTsp) {
    PA.TspLayout = Clock.time("align.chain_s", [&] {
      return ExtTspAligner(Options.Objective).align(Proc, Train, Model);
    });
    PA.TspPenalty = Evaluate(PA.TspLayout);
  } else {
    AlignmentTsp Atsp = Clock.time("align.reduction_s", [&] {
      return buildAlignmentTsp(Proc, Train, Model);
    });
    double Cities = static_cast<double>(Atsp.Tsp.numCities());
    Clock.count("tsp.cities", Cities);
    // The symmetric transform's 2N x 2N matrix of 8-byte costs.
    Clock.count("tsp.matrix_bytes", 4 * Cities * Cities * sizeof(int64_t));
    // A probe: solveDirectedTsp runs this transform again inside
    // tsp.solve_s.
    Clock.time("tsp.transform_s",
               [&] { return transformToSymmetric(Atsp.Tsp); });
    IteratedOptOptions SolverOptions = Effort.Solver;
    SolverOptions.Seed = derivedSolverSeed(Options.Solver.Seed, ProcIndex);
    DtspSolution Solution = Clock.time("tsp.solve_s", [&] {
      return solveDirectedTsp(Atsp.Tsp, SolverOptions);
    });
    Clock.count("tsp.solver_runs", Solution.NumRuns);
    Clock.count("tsp.runs_tied", Solution.RunsFindingBest);
    PA.TspLayout = layoutFromTour(Proc, Atsp, Solution.Tour);
    PA.TspPenalty = Evaluate(PA.TspLayout);
    PA.SolverRuns = Solution.NumRuns;
    PA.RunsFindingBest = Solution.RunsFindingBest;
    Clock.time("tsp.solve_s", [&] {
      return refineLayoutForEncoding(Proc, Train, Model, Atsp, SolverOptions,
                                     PA.TspLayout, PA.TspPenalty);
    });
  }

  if (Options.ComputeBounds) {
    // computePenaltyBounds, call by call, so the Held-Karp share shows.
    Clock.time("align.bounds_s", [&] {
      AlignmentTsp Atsp = buildAlignmentTsp(Proc, Train, Model);
      double Upper = static_cast<double>(PA.TspPenalty);
      double Hk = Clock.time("tsp.heldkarp_s", [&] {
        return heldKarpBoundDirected(
            Atsp.Tsp, static_cast<int64_t>(PA.TspPenalty), Options.HeldKarp);
      });
      PA.Bounds.HeldKarp = std::clamp(Hk, 0.0, Upper);
      AssignmentResult Ap = assignmentBound(Atsp.Tsp);
      PA.Bounds.Assignment = std::clamp<int64_t>(
          Ap.Cost, 0, static_cast<int64_t>(PA.TspPenalty));
      PA.Bounds.AssignmentCycles = Ap.NumCycles;
      return 0;
    });
  }

  return PA;
}

namespace {

/// One compile: a suite data set aligned on its (possibly masked)
/// training counts. Cross-validation replays the benchmark's other data
/// set, as in the paper's Figure 3.
struct Cell {
  const WorkloadInstance *W = nullptr;
  size_t Ds = 0;
  ProgramProfile Train;

  std::string label() const { return W->dataSetLabel(Ds); }
  const WorkloadDataSet &testSet() const { return W->DataSets[1 - Ds]; }
};

/// A serial run's digest of one procedure of one compile: the
/// reference of the parallel-equals-serial gate.
struct SerialRef {
  size_t Cell = 0;
  size_t Proc = 0;
  Fingerprint Want;
};

struct BatchSetup {
  std::vector<std::unique_ptr<WorkloadInstance>> Suite;
  std::vector<Cell> Cells;
  std::vector<SerialRef> SerialRefs;
  std::string SelectionJson;
  double BuildSeconds = 0.0;
};

/// What distinguishes the three batch workloads.
struct BatchPlan {
  const char *Name = "";
  AlignmentOptions Options;
  bool Verify = false;
  /// Procedures of at most this many blocks keep their profile; larger
  /// ones are masked to unprofiled (0 = no mask).
  size_t MaskAboveBlocks = 0;
  /// Held-Karp quality audit outside the timed region on procedures with
  /// fewer blocks than this (0 = bounds are computed by the run itself).
  size_t AuditBelowBlocks = 0;
  /// Procedures per compile solved serially for the gate's references.
  size_t SerialSample = 2;
};

/// The parallel-equals-serial gate's references: a fixed sample of each
/// compile's profiled procedures solved serially, the rest masked to
/// unprofiled so every sampled procedure keeps its index and its derived
/// solver seed. Each compile runs serially (Threads = 1) on its own pool
/// worker, so the set-up spreads over every core rather than timing one.
std::vector<SerialRef> serialReferences(const BatchPlan &Plan,
                                        const std::vector<Cell> &Cells,
                                        const AlignmentOptions &Options) {
  AlignmentOptions Serial = Options;
  Serial.Threads = 1;
  Rng Pick(17);
  std::vector<std::vector<size_t>> Procs(Cells.size());
  for (size_t I = 0; I != Cells.size(); ++I) {
    const Cell &C = Cells[I];
    const Program &Prog = C.W->Prog;
    for (size_t P = 0; P != Prog.numProcedures(); ++P)
      if (C.Train.Procs[P].executedBranches(Prog.proc(P)) != 0)
        Procs[I].push_back(P);
    Pick.shuffle(Procs[I]);
    Procs[I].resize(std::min(Procs[I].size(), Plan.SerialSample));
  }

  std::vector<ProgramAlignment> Results(Cells.size());
  ThreadPool Pool(Options.Threads);
  parallelFor(Pool, 0, Cells.size(), [&](size_t I) {
    const Cell &C = Cells[I];
    ProgramProfile Masked;
    for (const Procedure &Proc : C.W->Prog.procedures())
      Masked.Procs.push_back(ProcedureProfile::zeroed(Proc));
    for (size_t P : Procs[I])
      Masked.Procs[P] = C.Train.Procs[P];
    Results[I] = alignProgram(C.W->Prog, Masked, Serial);
  });

  std::vector<SerialRef> Refs;
  for (size_t I = 0; I != Cells.size(); ++I) {
    for (size_t P : Procs[I]) {
      Digest D;
      D.alignment(Results[I].Procs[P]);
      Refs.push_back({I, P, D.value()});
    }
  }
  return Refs;
}

/// Builds the suite, masks the training profiles, and computes the
/// gate's serial references.
BatchSetup setUp(const BatchPlan &Plan, const RunConfig &Config,
                 const AlignmentOptions &Options) {
  // The inputs are the fixed suite; the seed reaches the solver only.
  BatchSetup S;
  double Start = nowSeconds();
  for (const WorkloadSpec &Spec : benchmarkSuite()) {
    if (Config.Smoke && Spec.Benchmark != "com")
      continue;
    S.Suite.push_back(std::make_unique<WorkloadInstance>(buildWorkload(Spec)));
  }
  S.BuildSeconds = nowSeconds() - Start;

  S.SelectionJson = "[";
  for (const auto &W : S.Suite)
    for (size_t Ds = 0; Ds != W->DataSets.size(); ++Ds) {
      Cell C;
      C.W = W.get();
      C.Ds = Ds;
      C.Train = W->DataSets[Ds].Profile;
      if (Plan.MaskAboveBlocks)
        for (size_t P = 0; P != W->Prog.numProcedures(); ++P)
          if (W->Prog.proc(P).numBlocks() > Plan.MaskAboveBlocks)
            C.Train.Procs[P] = ProcedureProfile::zeroed(W->Prog.proc(P));
      S.SelectionJson += (S.Cells.empty() ? "" : ",") + jsonString(C.label());
      S.Cells.push_back(std::move(C));
    }
  S.SelectionJson += "]";
  S.SerialRefs = serialReferences(Plan, S.Cells, Options);
  return S;
}

/// One compile as the workload times it.
ProgramAlignment compile(const BatchPlan &Plan, const Cell &C,
                         const AlignmentOptions &Options, RunResult &R) {
  if (!Plan.Verify)
    return alignProgram(C.W->Prog, C.Train, Options);
  DiagnosticEngine Diags;
  VerifyOptions Verify;
  Verify.Level = VerifyLevel::Full;
  ProgramAlignment A =
      alignProgramVerified(C.W->Prog, C.Train, Options, Diags, Verify);
  if (Diags.hasErrors())
    R.mismatch(C.label() + ": verify reported " + Diags.summary());
  return A;
}

struct PassResult {
  std::vector<ProgramAlignment> Results; ///< One per cell.
  std::vector<double> CellSeconds;
  double Wall = 0.0; ///< Sum of the compile walls.
  std::string Digest;
};

PassResult runPass(const BatchPlan &Plan, const BatchSetup &S,
                   const AlignmentOptions &Options, RunResult &R) {
  PassResult P;
  Digest D;
  for (const Cell &C : S.Cells) {
    double Start = nowSeconds();
    ProgramAlignment A = compile(Plan, C, Options, R);
    double Seconds = nowSeconds() - Start;
    ++R.Attempted;
    if (!A.Failures.Failures.empty())
      R.mismatch(C.label() + ": " +
                 std::to_string(A.Failures.Failures.size()) +
                 " procedures degraded by the shield");
    P.CellSeconds.push_back(Seconds);
    P.Wall += Seconds;
    D.program(A);
    P.Results.push_back(std::move(A));
  }
  P.Digest = D.hex();
  return P;
}

/// Parallel-equals-serial gate: the first pass against the serial
/// references set-up computed.
void checkSerial(const BatchSetup &S, const PassResult &First,
                 RunResult &R) {
  for (const SerialRef &Ref : S.SerialRefs) {
    Digest Got;
    Got.alignment(First.Results[Ref.Cell].Procs[Ref.Proc]);
    if (Got.value() != Ref.Want)
      R.mismatch(S.Cells[Ref.Cell].label() + ": procedure " +
                 S.Cells[Ref.Cell].W->Prog.proc(Ref.Proc).getName() +
                 " differs between the serial and the parallel run");
  }
}

/// Figure 3: primary vs original layouts trained on the compile's data
/// set, simulated on the other data set's traces.
double xvalCyclesRatio(const BatchSetup &S, const PassResult &First,
                       const MachineModel &Model) {
  double Primary = 0.0, Original = 0.0;
  SimConfig Sim;
  Sim.Model = Model;
  for (size_t I = 0; I != S.Cells.size(); ++I) {
    const Cell &C = S.Cells[I];
    std::vector<MaterializedLayout> Tsp, Orig;
    for (size_t P = 0; P != C.W->Prog.numProcedures(); ++P) {
      const ProcedureAlignment &PA = First.Results[I].Procs[P];
      Tsp.push_back(materializeLayout(C.W->Prog.proc(P), PA.TspLayout,
                                      C.Train.Procs[P], Model));
      Orig.push_back(materializeLayout(C.W->Prog.proc(P), PA.OriginalLayout,
                                       C.Train.Procs[P], Model));
    }
    Primary += static_cast<double>(
        simulateProgram(C.W->Prog, Tsp, C.testSet().Traces, Sim).Cycles);
    Original += static_cast<double>(
        simulateProgram(C.W->Prog, Orig, C.testSet().Traces, Sim).Cycles);
  }
  return Original > 0 ? Primary / Original : 0.0;
}

/// (sum of primary penalties - sum of Held-Karp bounds) / sum of bounds,
/// in percent. Runs without bounds audit the procedures under
/// AuditBelowBlocks blocks here, outside the timed region.
double hkGapPct(const BatchPlan &Plan, const BatchSetup &S,
                const PassResult &First, const AlignmentOptions &Options) {
  double Penalty = 0.0, Bound = 0.0;
  if (!Plan.AuditBelowBlocks) {
    for (const ProgramAlignment &A : First.Results) {
      Penalty += static_cast<double>(A.totalTspPenalty());
      Bound += A.totalHeldKarpBound();
    }
    return Bound > 0 ? 100.0 * (Penalty - Bound) / Bound : 0.0;
  }
  struct Job {
    size_t Cell, Proc;
  };
  std::vector<Job> Jobs;
  for (size_t I = 0; I != S.Cells.size(); ++I) {
    const Cell &C = S.Cells[I];
    for (size_t P = 0; P != C.W->Prog.numProcedures(); ++P)
      if (C.W->Prog.proc(P).numBlocks() < Plan.AuditBelowBlocks &&
          C.Train.Procs[P].executedBranches(C.W->Prog.proc(P)) != 0)
        Jobs.push_back({I, P});
  }
  std::vector<double> Bounds(Jobs.size());
  ThreadPool Pool(Options.Threads);
  parallelFor(Pool, 0, Jobs.size(), [&](size_t J) {
    const Cell &C = S.Cells[Jobs[J].Cell];
    size_t P = Jobs[J].Proc;
    Bounds[J] = computePenaltyBounds(
                    C.W->Prog.proc(P), C.Train.Procs[P], Options.Model,
                    First.Results[Jobs[J].Cell].Procs[P].TspPenalty,
                    Options.HeldKarp)
                    .HeldKarp;
  });
  for (size_t J = 0; J != Jobs.size(); ++J) {
    Penalty += static_cast<double>(
        First.Results[Jobs[J].Cell].Procs[Jobs[J].Proc].TspPenalty);
    Bound += Bounds[J];
  }
  return Bound > 0 ? 100.0 * (Penalty - Bound) / Bound : 0.0;
}

/// The materialization and displacement fixpoint the verify passes run
/// on each procedure's original, greedy and primary layouts, timed
/// through the public calls; rounds and long branches count the primary
/// layouts, the code a compile emits. A probe: the same work is inside
/// analysis.verify_s.
void probeMaterialize(const BatchSetup &S, const PassResult &Untraced,
                      const MachineModel &Model, LayerClock &Clock) {
  for (size_t I = 0; I != S.Cells.size(); ++I) {
    const Cell &C = S.Cells[I];
    for (size_t P = 0; P != C.W->Prog.numProcedures(); ++P) {
      const Procedure &Proc = C.W->Prog.proc(P);
      const ProcedureAlignment &PA = Untraced.Results[I].Procs[P];
      for (const Layout *L :
           {&PA.OriginalLayout, &PA.GreedyLayout, &PA.TspLayout}) {
        MaterializedLayout Mat = Clock.time("objective.materialize_s", [&] {
          return materializeLayout(Proc, *L, C.Train.Procs[P], Model);
        });
        DisplaceStats Displace = Clock.time("objective.displace_s", [&] {
          return solveDisplacement(Proc, Mat, Model);
        });
        if (L != &PA.TspLayout)
          continue;
        Clock.count("objective.displace_rounds",
                    static_cast<double>(Displace.Iterations));
        Clock.count("objective.long_branches",
                    static_cast<double>(Displace.NumLongBranches));
      }
    }
  }
}

/// The traced run: one untraced pass, one pass with the program's own
/// TraceSession installed, and a serial replay of every compile through
/// public calls with outside timers.
void tracedRun(const BatchPlan &Plan, const BatchSetup &S,
               const AlignmentOptions &Options, const PassResult &Untraced,
               RunResult &R) {
  TraceSession Session;
  Session.install();
  PassResult Traced = runPass(Plan, S, Options, R);
  Session.uninstall();
  if (Traced.Digest != Untraced.Digest)
    R.mismatch("traced pass differs from the untraced pass");

  LayerClock Clock;
  double ReplayStart = nowSeconds();
  for (size_t I = 0; I != S.Cells.size(); ++I) {
    const Cell &C = S.Cells[I];
    for (size_t P = 0; P != C.W->Prog.numProcedures(); ++P) {
      ProcedureAlignment PA = replayProcedure(
          C.W->Prog.proc(P), C.Train.Procs[P], Options, P, Clock);
      Digest Want, Got;
      Want.alignment(Untraced.Results[I].Procs[P]);
      Got.alignment(PA);
      if (Want.value() != Got.value())
        R.mismatch(C.label() + ": serial replay of procedure " +
                   C.W->Prog.proc(P).getName() +
                   " differs from the parallel run");
    }
  }
  double ReplayWall = nowSeconds() - ReplayStart - Clock.sum(probeLayers());

  if (Plan.Verify) {
    // The verifier's passes over each compile's inputs and result, timed
    // directly: the difference of a verified and a plain compile is
    // smaller than their run-to-run noise here.
    for (size_t I = 0; I != S.Cells.size(); ++I) {
      const Cell &C = S.Cells[I];
      DiagnosticEngine Diags;
      PipelineVerifier Verifier(Diags);
      Clock.time("analysis.verify_s", [&] {
        Verifier.verifyInputs(C.W->Prog, C.Train);
        return Verifier.verifyAlignment(C.W->Prog, C.Train, Options.Model,
                                        Untraced.Results[I]);
      });
      if (Diags.hasErrors())
        R.mismatch(C.label() + ": verify reported " + Diags.summary());
    }
    probeMaterialize(S, Untraced, Options.Model, Clock);
  }

  R.add("workloads.build_s", S.BuildSeconds, "s");
  for (const char *Layer :
       {"align.greedy_s", "align.reduction_s", "tsp.transform_s",
        "tsp.solve_s", "align.bounds_s", "tsp.heldkarp_s", "align.chain_s",
        "analysis.verify_s", "objective.materialize_s",
        "objective.displace_s", "objective.evaluate_s"})
    R.add(Layer, Clock.seconds(Layer), "s");
  double Runs = Clock.counted("tsp.solver_runs");
  R.add("tsp.solver_runs", Runs, "count");
  R.add("tsp.runs_tied_frac",
        Runs > 0 ? Clock.counted("tsp.runs_tied") / Runs : 0.0, "ratio");
  R.add("tsp.cities", Clock.counted("tsp.cities"), "count");
  R.add("tsp.matrix_bytes", Clock.counted("tsp.matrix_bytes"), "bytes");
  R.add("objective.displace_rounds",
        Clock.counted("objective.displace_rounds"), "count");
  R.add("objective.long_branches", Clock.counted("objective.long_branches"),
        "count");
  R.add("trace.replay_wall_s", ReplayWall, "s");
  std::vector<std::string> Outside = probeLayers();
  Outside.insert(Outside.end(), {"tsp.heldkarp_s", "analysis.verify_s"});
  R.add("trace.coverage", Clock.total(Outside) / ReplayWall, "ratio");
  R.add("trace.overhead_pct", 100.0 * (Traced.Wall / Untraced.Wall - 1.0),
        "%");
  addSpanCrossCheck(R, Clock, spanSeconds(Session));
}

RunResult runBatch(const BatchPlan &Plan, const RunConfig &Config) {
  RunResult R;
  AlignmentOptions Options = Plan.Options;
  Options.Threads = Config.Threads;
  Options.Solver.Seed = Config.Seed;

  // Set-up is repeated and its median reported, so work moved into it
  // shows; the last set-up is the one measured.
  std::vector<double> SetupTimes;
  BatchSetup S;
  for (int I = 0; I != 5; ++I) {
    double Start = nowSeconds();
    S = setUp(Plan, Config, Options);
    SetupTimes.push_back(nowSeconds() - Start);
  }
  R.note("selection", S.SelectionJson);
  R.note("setup_walls_s", jsonNumbers(SetupTimes));

  // Whole passes until the window is used up; the figures are medians
  // over passes, so the pass count itself does not matter.
  std::vector<PassResult> Passes;
  double Timed = 0.0;
  do {
    Passes.push_back(runPass(Plan, S, Options, R));
    Timed += Passes.back().Wall;
    if (Passes.back().Digest != Passes.front().Digest)
      R.mismatch("pass " + std::to_string(Passes.size()) +
                 " differs from the first pass");
  } while (!Config.Trace && Timed < Config.Seconds);
  const PassResult &First = Passes.front();
  double PeakRss = peakRssMiB();

  // Correctness gate, outside the timed region.
  std::string Want = committedDigest(Config.DigestFile, Plan.Name, Config.Seed);
  if (!Want.empty() && Want != First.Digest)
    R.mismatch("output digest " + First.Digest +
               " differs from the committed " + Want);
  R.note("digest", jsonString(First.Digest));
  R.note("digest_check", jsonString(Want.empty() ? "no-committed-digest"
                                                 : "committed"));
  std::vector<double> PassWalls;
  for (const PassResult &P : Passes)
    PassWalls.push_back(P.Wall);
  R.note("pass_walls_s", jsonNumbers(PassWalls));

  if (Config.Trace) {
    tracedRun(Plan, S, Options, First, R);
  } else {
    checkSerial(S, First, R);

    // A batch "request" is one compile; its latency is the median over
    // passes, and p50/p99 run over the compiles of the list.
    std::vector<double> Walls, CellMs;
    double Total = 0.0;
    for (const PassResult &P : Passes) {
      Walls.push_back(P.Wall);
      Total += P.Wall;
    }
    for (size_t I = 0; I != S.Cells.size(); ++I) {
      std::vector<double> Ms;
      for (const PassResult &P : Passes)
        Ms.push_back(P.CellSeconds[I] * 1e3);
      CellMs.push_back(median(Ms));
    }
    double Penalty = 0.0, Original = 0.0;
    for (const ProgramAlignment &A : First.Results) {
      Penalty += static_cast<double>(A.totalTspPenalty());
      Original += static_cast<double>(A.totalOriginalPenalty());
    }
    R.add("setup_s", median(SetupTimes), "s");
    R.add("align_wall_s", median(Walls), "s");
    R.add("peak_rss_mb", PeakRss, "MiB");
    R.add("penalty_vs_original", Penalty / Original, "ratio");
    R.add("xval_cycles_ratio", xvalCyclesRatio(S, First, Options.Model),
          "ratio");
    R.add("hk_gap_pct", hkGapPct(Plan, S, First, Options), "%");
    R.add("serve_p50_ms", median(CellMs), "ms");
    R.add("serve_p99_ms", percentile(CellMs, 99.0), "ms");
    R.add("serve_rps",
          static_cast<double>(S.Cells.size() * Passes.size()) / Total,
          "req/s");
    R.add("ok_frac",
          static_cast<double>(R.Attempted - std::min(R.Failed, R.Attempted)) /
              static_cast<double>(R.Attempted),
          "ratio");
  }
  return R;
}

} // namespace

RunResult runSuiteTsp(const RunConfig &Config) {
  BatchPlan Plan;
  Plan.Name = "suite-tsp";
  Plan.Options.ComputeBounds = false;
  Plan.AuditBelowBlocks = 20;
  Plan.SerialSample = Config.Smoke ? 1 : 2;
  return runBatch(Plan, Config);
}

RunResult runBoundsAudit(const RunConfig &Config) {
  BatchPlan Plan;
  Plan.Name = "bounds-audit";
  Plan.Options.ComputeBounds = true;
  Plan.Options.Primary = PrimaryAligner::ExtTsp;
  // The twelve data sets, bounded on procedures of at most 29 blocks:
  // Held-Karp is then ~95% of the run and one pass takes seconds instead
  // of the minutes a full-suite --bounds run takes. A seeded subset of
  // data sets moved hk_gap_pct by 20% between seeds, so the set is fixed.
  Plan.MaskAboveBlocks = 29;
  // The run also verifies (--verify=full) under the short-long encoding,
  // so the verify passes, materialization and displacement fixpoint are
  // measured here too. A short-form reach of 256 bytes (64 instructions,
  // the span of a Thumb conditional branch) sends about a third of the
  // suite's branches long, so the fixpoint does real work.
  Plan.Options.Model.Encoding = BranchEncoding::ShortLong;
  Plan.Options.Model.ShortBranchRange = 256;
  Plan.Verify = true;
  Plan.SerialSample = Config.Smoke ? 1 : 2;
  return runBatch(Plan, Config);
}

} // namespace balign::perfbench
