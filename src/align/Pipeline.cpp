//===- align/Pipeline.cpp -----------------------------------------------------===//

#include "align/Pipeline.h"

#include "analysis/Diagnostics.h"
#include "objective/Displace.h"
#include "objective/Penalty.h"
#include "robust/CrashInjector.h"
#include "robust/FaultInjector.h"
#include "support/Bytes.h"
#include "support/ThreadPool.h"
#include "trace/Scope.h"

#include <algorithm>
#include <bit>
#include <optional>

using namespace balign;

AlignmentAborted::AlignmentAborted(ProcedureFailure F)
    : std::runtime_error(F.cause()), Failure(std::move(F)) {}

const char *balign::primaryAlignerName(PrimaryAligner Primary) {
  switch (Primary) {
  case PrimaryAligner::Tsp:
    return "tsp";
  case PrimaryAligner::ExtTsp:
    return "exttsp";
  }
  return "unknown";
}

std::array<char, 26> balign::objectiveBlockBytes(const ObjectiveBlock &Block) {
  std::array<char, 26> Out;
  Out[0] = static_cast<char>(Block.Primary);
  Out[1] = static_cast<char>(Block.Kind);
  storeLittleEndian(&Out[2], Block.ExtTspForwardWindow);
  storeLittleEndian(&Out[6], Block.ExtTspBackwardWindow);
  storeLittleEndian(&Out[10],
                    std::bit_cast<uint64_t>(Block.ExtTspForwardWeight));
  storeLittleEndian(&Out[18],
                    std::bit_cast<uint64_t>(Block.ExtTspBackwardWeight));
  return Out;
}

std::array<char, 17>
balign::encodingBlockBytes(const BranchEncodingParams &Block) {
  std::array<char, 17> Out;
  Out[0] = static_cast<char>(Block.Encoding);
  storeLittleEndian(&Out[1], Block.ShortBranchRange);
  storeLittleEndian(&Out[9], Block.LongBranchExtraInstrs);
  storeLittleEndian(&Out[13], Block.LongBranchPenalty);
  return Out;
}

// Arity mismatches between a program and its profiles are caller bugs
// that would otherwise surface as silent out-of-bounds reads; fail
// loudly in every build mode through the diagnostics core instead of a
// bare assert that release builds would have stripped in a conventional
// NDEBUG setup.
static void fatalArityMismatch(CheckId Check, const char *What, size_t Got,
                               size_t Want) {
  reportFatal(Diagnostic{Severity::Error, Check, "pipeline",
                         DiagLocation::program(),
                         std::string(What) + " has " + std::to_string(Got) +
                             " entries for a program with " +
                             std::to_string(Want) + " procedures"});
}

uint64_t ProgramAlignment::totalOriginalPenalty() const {
  uint64_t Sum = 0;
  for (const ProcedureAlignment &P : Procs)
    Sum += P.OriginalPenalty;
  return Sum;
}

uint64_t ProgramAlignment::totalGreedyPenalty() const {
  uint64_t Sum = 0;
  for (const ProcedureAlignment &P : Procs)
    Sum += P.GreedyPenalty;
  return Sum;
}

uint64_t ProgramAlignment::totalTspPenalty() const {
  uint64_t Sum = 0;
  for (const ProcedureAlignment &P : Procs)
    Sum += P.TspPenalty;
  return Sum;
}

double ProgramAlignment::totalHeldKarpBound() const {
  double Sum = 0.0;
  for (const ProcedureAlignment &P : Procs)
    Sum += P.Bounds.HeldKarp;
  return Sum;
}

std::vector<Layout> ProgramAlignment::originalLayouts() const {
  std::vector<Layout> Result;
  Result.reserve(Procs.size());
  for (const ProcedureAlignment &P : Procs)
    Result.push_back(P.OriginalLayout);
  return Result;
}

std::vector<Layout> ProgramAlignment::greedyLayouts() const {
  std::vector<Layout> Result;
  Result.reserve(Procs.size());
  for (const ProcedureAlignment &P : Procs)
    Result.push_back(P.GreedyLayout);
  return Result;
}

std::vector<Layout> ProgramAlignment::tspLayouts() const {
  std::vector<Layout> Result;
  Result.reserve(Procs.size());
  for (const ProcedureAlignment &P : Procs)
    Result.push_back(P.TspLayout);
  return Result;
}

namespace {

/// Everything one procedure's alignment produces, including the solve
/// artifacts the hook observes. Kept per-procedure (not accumulated into
/// shared state) so parallel workers never write to the same location
/// and the drain loop can call the hook in program order.
struct ProcedureTask {
  ProcedureAlignment PA;

  /// Set only when AfterProcedure is installed and the tsp path solved
  /// the procedure.
  std::optional<SolveArtifacts> Artifacts;

  /// Failure this procedure's isolation caught, if any (balign-shield);
  /// the drain loop appends these to the report in program order, or
  /// throws the first one under OnErrorPolicy::Abort.
  std::optional<ProcedureFailure> Failure;
};

/// The full alignment path (greedy + DTSP solve + bounds) for a profiled
/// procedure. Pure function of its arguments: reads only
/// shared-immutable inputs, writes only \p Task (and talks to the
/// internally synchronized cache, when one is attached), so any number
/// of calls may run concurrently. \p KeepArtifacts retains the solve
/// artifacts for the hook drain — and disables cache *lookups*, because
/// a hit has no artifacts for the hook to observe; computed results are
/// still offered to the cache. Throws on injected faults, deadline
/// expiry, or any stage failure; the shielded wrapper below catches at
/// the procedure boundary.
void alignFullPath(const Procedure &Proc, const ProcedureProfile &Profile,
                   const AlignmentOptions &Options, size_t I,
                   bool KeepArtifacts, const Deadline *Budget,
                   ProcedureTask &Task) {
  ProcedureAlignment &PA = Task.PA;
  ProcedureResultCache *Cache = Options.CacheImpl;
  if (Cache && !KeepArtifacts && Cache->lookup(Proc, Profile, Options, I, PA))
    return; // Validated hit; no stage runs, so no stage span is recorded.

  {
    ScopedSpan GreedySpan("stage.greedy", SpanCat::Stage);
    PA.GreedyLayout = GreedyAligner().align(Proc, Profile, Options.Model);
    PA.GreedyPenalty = evaluateLayout(Proc, PA.GreedyLayout, Options.Model,
                                      Profile, Profile);
  }

  // Profile-guided effort (balign-lint): one pure decision, shared with
  // the cache fingerprint, picks this procedure's solver options. The
  // cold fast-path ships the greedy layout without ever building the
  // DTSP instance; such results are still cached — GreedyOnly is part
  // of the fingerprint, so they can never be confused with full solves.
  EffortDecision Effort =
      decideEffort(Proc, Profile, Options.Solver, Options.Effort);
  if (Effort.GreedyOnly) {
    PA.TspLayout = PA.GreedyLayout;
    PA.TspPenalty = PA.GreedyPenalty;
    scopeCounterAdd("effort.greedy-only");
    if (Cache)
      Cache->store(Proc, Profile, Options, I, PA);
    return;
  }

  // The Ext-TSP primary path: chain merging needs no DTSP instance, so
  // the matrix/solve stages (and their artifacts) are skipped; the
  // merger runs under its own stage.chain span. Bounds are still
  // meaningful — Held-Karp lower-bounds *every* layout's penalty,
  // including this one.
  if (Options.Primary == PrimaryAligner::ExtTsp) {
    {
      ScopedSpan ChainSpan("stage.chain", SpanCat::Stage);
      PA.TspLayout =
          ExtTspAligner(Options.Objective).align(Proc, Profile, Options.Model);
    }
    PA.TspPenalty = evaluateLayout(Proc, PA.TspLayout, Options.Model, Profile,
                                   Profile);
    if (Options.ComputeBounds) {
      ScopedSpan BoundsSpan("stage.bounds", SpanCat::Stage);
      PA.Bounds = computePenaltyBounds(Proc, Profile, Options.Model,
                                       PA.TspPenalty, Options.HeldKarp);
    }
    if (Cache)
      Cache->store(Proc, Profile, Options, I, PA);
    return;
  }

  AlignmentTsp Atsp;
  {
    ScopedSpan MatrixSpan("stage.matrix", SpanCat::Stage);
    Atsp = buildAlignmentTsp(Proc, Profile, Options.Model);
  }

  // Give each procedure a solver stream derived from the root seed so
  // results do not depend on procedure processing order — this is what
  // makes parallel and serial runs bit-identical.
  IteratedOptOptions SolverOptions = Effort.Solver;
  SolverOptions.Seed = derivedSolverSeed(Options.Solver.Seed, I);
  SolverOptions.Budget = Budget;
  DtspSolution Solution;
  {
    ScopedSpan SolveSpan("stage.solve", SpanCat::Stage);
    Solution = solveDirectedTsp(Atsp.Tsp, SolverOptions);
  }

  PA.TspLayout = layoutFromTour(Proc, Atsp, Solution.Tour);
  PA.TspPenalty = evaluateLayout(Proc, PA.TspLayout, Options.Model, Profile,
                                 Profile);
  PA.SolverRuns = Solution.NumRuns;
  PA.RunsFindingBest = Solution.RunsFindingBest;

  // balign-displace: the matrix above priced every branch short-form;
  // one refinement round re-solves with the observed long branches
  // surcharged and keeps the better layout, under its own stage span.
  if (Options.Model.Encoding != BranchEncoding::Fixed) {
    ScopedSpan DisplaceSpan("stage.displace", SpanCat::Stage);
    if (refineLayoutForEncoding(Proc, Profile, Options.Model, Atsp,
                                SolverOptions, PA.TspLayout, PA.TspPenalty))
      scopeCounterAdd("displace.refit-wins");
    scopeCounterAdd("displace.refits");
  }

  if (Options.ComputeBounds) {
    ScopedSpan BoundsSpan("stage.bounds", SpanCat::Stage);
    PA.Bounds = computePenaltyBounds(Proc, Profile, Options.Model,
                                     PA.TspPenalty, Options.HeldKarp);
  }

  // Only full-path results are cached: a degraded result is not what
  // recomputation of this fingerprint would produce, so the fallback
  // wrapper never reaches this store.
  if (Cache)
    Cache->store(Proc, Profile, Options, I, PA);

  if (KeepArtifacts) {
    // The budget points at the worker's stack frame; the drain loop
    // calls the hook long after it is gone, and a replayed solve must
    // not re-observe (or dangle on) the original run's deadline.
    SolverOptions.Budget = nullptr;
    Task.Artifacts = SolveArtifacts{std::move(Atsp), std::move(Solution),
                                    SolverOptions};
  }
}

/// The degradation ladder (balign-shield): called after the full path
/// failed with \p Failure, under OnErrorPolicy::Fallback or Skip. Resets
/// any partial full-path state, then ships the greedy layout (retrying
/// the greedy aligner — it may itself be the failing stage) or, failing
/// that, the original order, which is always available. Under Skip the
/// ladder is not walked and the original ships.
void fallbackProcedure(const Procedure &Proc, const ProcedureProfile &Profile,
                       const AlignmentOptions &Options, ProcedureTask &Task,
                       ProcedureFailure Failure) {
  ProcedureAlignment &PA = Task.PA;
  PA.Bounds = PenaltyBounds();
  PA.SolverRuns = 0;
  PA.RunsFindingBest = 0;

  bool TryGreedy = Options.OnError != OnErrorPolicy::Skip;
  Failure.Skipped = Options.OnError == OnErrorPolicy::Skip;
  if (TryGreedy) {
    try {
      PA.GreedyLayout = GreedyAligner().align(Proc, Profile, Options.Model);
      PA.GreedyPenalty = evaluateLayout(Proc, PA.GreedyLayout, Options.Model,
                                        Profile, Profile);
      PA.TspLayout = PA.GreedyLayout;
      PA.TspPenalty = PA.GreedyPenalty;
      PA.Rung = LadderRung::Greedy;
      Failure.Rung = LadderRung::Greedy;
      Task.Failure = std::move(Failure);
      return;
    } catch (const std::exception &) {
      // Fall through to the bottom rung.
    }
  }
  PA.GreedyLayout = PA.OriginalLayout;
  PA.GreedyPenalty = PA.OriginalPenalty;
  PA.TspLayout = PA.OriginalLayout;
  PA.TspPenalty = PA.OriginalPenalty;
  PA.Rung = LadderRung::Original;
  Failure.Rung = LadderRung::Original;
  Task.Failure = std::move(Failure);
}

ProcedureTask alignOneProcedure(const Procedure &Proc,
                                const ProcedureProfile &Profile,
                                const AlignmentOptions &Options, size_t I,
                                bool KeepArtifacts) {
  ProcedureTask Task;
  ProcedureAlignment &PA = Task.PA;

  PA.OriginalLayout = Layout::original(Proc);
  PA.OriginalPenalty = evaluateLayout(Proc, PA.OriginalLayout, Options.Model,
                                      Profile, Profile);

  // Unprofiled procedures are left alone, as a profile-guided compiler
  // leaves untouched code in place; rearranging on a zero-cost matrix
  // would pick an arbitrary (and, under a different input, possibly
  // terrible) permutation. They also bypass the cache and the shield:
  // keeping the original layout is the designed behavior, never a
  // failure, so no fault site fires for them.
  if (Profile.executedBranches(Proc) == 0) {
    PA.GreedyLayout = PA.OriginalLayout;
    PA.TspLayout = PA.OriginalLayout;
    scopeCounterAdd("pipeline.unprofiled");
    return Task;
  }

  FailureKind Kind;
  std::string What;
  try {
    // balign-shield fault site: the coarsest probe, standing in for any
    // failure of the per-procedure task itself. Placed inside the
    // isolation boundary (not in the thread pool, which knows nothing
    // of procedures) so a firing task degrades like any other failure.
    FaultInjector::instance().throwIfFault(FaultSite::PoolTask);
    // balign-sentinel crash site: die inside a per-procedure task — the
    // chaos harness proves a kill mid-batch loses only unjournaled
    // programs, never the cache or checkpoint already persisted.
    CrashInjector::instance().crashPoint(CrashSite::PoolTask);
    if (Options.RunDeadline)
      Options.RunDeadline->check("whole-run alignment");
    Deadline ProcBudget(Options.ProcBudgetMs, Options.Clock,
                        Options.RunDeadline);
    const Deadline *Budget =
        (Options.ProcBudgetMs || Options.RunDeadline) ? &ProcBudget : nullptr;
    alignFullPath(Proc, Profile, Options, I, KeepArtifacts, Budget, Task);
    return Task;
  } catch (const FaultInjectedError &E) {
    Kind = FailureKind::Fault;
    What = E.what();
  } catch (const DeadlineExceeded &E) {
    Kind = FailureKind::Deadline;
    What = E.what();
  } catch (const ResourceCapError &E) {
    Kind = FailureKind::ResourceCap;
    What = E.what();
  } catch (const std::exception &E) {
    Kind = FailureKind::Exception;
    What = E.what();
  }

  ProcedureFailure Failure;
  Failure.ProcIndex = I;
  Failure.ProcName = Proc.getName();
  Failure.Kind = Kind;
  Failure.What = std::move(What);
  // Under Abort the drain throws the first failure and no layout ships,
  // so the ladder is not walked.
  if (Options.OnError == OnErrorPolicy::Abort) {
    Task.Failure = std::move(Failure);
    return Task;
  }
  fallbackProcedure(Proc, Profile, Options, Task, std::move(Failure));
  return Task;
}

} // namespace

ProgramAlignment balign::alignProgram(const Program &Prog,
                                      const ProgramProfile &Train,
                                      const AlignmentOptions &Options) {
  if (Train.Procs.size() != Prog.numProcedures())
    fatalArityMismatch(CheckId::PipelineProfileArity, "training profile",
                       Train.Procs.size(), Prog.numProcedures());
  if (Options.Cache != CacheMode::Off && !Options.CacheImpl)
    reportFatal(Diagnostic{
        Severity::Error, CheckId::PipelineCacheNotAttached, "pipeline",
        DiagLocation::program(),
        "AlignmentOptions::Cache is enabled but no implementation is "
        "attached (construct a cache::CacheSession over these options)"});
  size_t NumProcs = Prog.numProcedures();
  // Shape-check every procedure up front (and on the calling thread, so
  // the fatal diagnostic never races a worker). Block *and* edge-count
  // shapes: penalty evaluation and cache fingerprinting both walk
  // EdgeCounts parallel to the successor lists.
  for (size_t I = 0; I != NumProcs; ++I) {
    const Procedure &Proc = Prog.proc(I);
    const ProcedureProfile &Profile = Train.Procs[I];
    if (!Profile.shapeMatches(Proc))
      reportFatal(Diagnostic{
          Severity::Error, CheckId::PipelineProfileShape, "pipeline",
          DiagLocation::procedure(Proc.getName()),
          "profile covers " + std::to_string(Profile.BlockCounts.size()) +
              " blocks / " + std::to_string(Profile.EdgeCounts.size()) +
              " edge lists but the procedure has " +
              std::to_string(Proc.numBlocks()) + " blocks"});
  }

  bool KeepArtifacts = static_cast<bool>(Options.AfterProcedure);
  std::vector<ProcedureTask> Tasks(NumProcs);

  ScopedSpan AlignSpan("pipeline.align", SpanCat::Pipeline);
  scopeCounterAdd("pipeline.procs", NumProcs);

  // Each per-procedure task runs under a TrackScope binding its spans
  // (the balign-scope drain key) to the procedure index, so the drained
  // trace is identical whether the task ran inline or on a pool worker.
  auto RunOne = [&](size_t I) {
    TrackScope Track(static_cast<int64_t>(I));
    ScopedSpan TaskSpan("proc.task", SpanCat::Pipeline);
    Tasks[I] = alignOneProcedure(Prog.proc(I), Train.Procs[I], Options, I,
                                 KeepArtifacts);
  };
  // More workers than procedures would only idle.
  size_t Threads = std::min<size_t>(
      Options.Threads == 0 ? ThreadPool::hardwareThreads() : Options.Threads,
      NumProcs);
  if (Threads <= 1) {
    for (size_t I = 0; I != NumProcs; ++I)
      RunOne(I);
  } else {
    ThreadPool Pool(static_cast<unsigned>(Threads));
    parallelFor(Pool, 0, NumProcs, RunOne);
  }

  // Drain in program order on the calling thread: collect failures and
  // call the hook exactly as the serial pipeline would.
  ProgramAlignment Result;
  Result.Procs.reserve(NumProcs);
  ScopedSpan DrainSpan("pipeline.drain", SpanCat::Pipeline);
  for (size_t I = 0; I != NumProcs; ++I) {
    ProcedureTask &Task = Tasks[I];
    // The hook's spans belong to this procedure's track, right after the
    // spans its worker recorded.
    TrackScope Track(static_cast<int64_t>(I));
    // Shield policy first: under Abort the first failure in program
    // order throws — deterministic at any thread count, because workers
    // record failures privately and this loop runs in program order.
    if (Task.Failure && Options.OnError == OnErrorPolicy::Abort)
      throw AlignmentAborted(std::move(*Task.Failure));
    if (Task.Failure) {
      scopeCounterAdd(Task.Failure->Skipped ? "shield.skipped"
                                            : "shield.fallbacks");
      scopeCounterAdd(Task.Failure->Rung == LadderRung::Original
                          ? "shield.rung.original"
                          : "shield.rung.greedy");
      Result.Failures.Failures.push_back(std::move(*Task.Failure));
    }
    // Copied, not moved, so the result is allocated on the calling
    // thread: one a pool thread allocated would pin that exited thread's
    // malloc arena for as long as the caller keeps it, and later pools'
    // threads reuse those arenas around it.
    Result.Procs.push_back(Task.PA);
    if (Options.AfterProcedure)
      Options.AfterProcedure(I, Prog.proc(I), Train.Procs[I],
                             Result.Procs.back(),
                             Task.Artifacts ? &*Task.Artifacts : nullptr);
  }
  return Result;
}

bool balign::refineLayoutForEncoding(const Procedure &Proc,
                                     const ProcedureProfile &Train,
                                     const MachineModel &Model,
                                     const AlignmentTsp &Atsp,
                                     const IteratedOptOptions &SolverOptions,
                                     Layout &L, uint64_t &Penalty) {
  if (Model.Encoding != BranchEncoding::ShortLong)
    return false;
  MaterializedLayout Mat = materializeLayout(Proc, L, Train, Model);
  if (Mat.NumLongBranches == 0)
    return false; // All-short is exact: the matrix priced it correctly.
  uint64_t FirstTotal =
      Penalty + longBranchExtraPenalty(Proc, Mat, Train, Model);

  // Blocks owning a long branch; a long fixup jump charges the
  // conditional it belongs to (the preceding block item).
  std::vector<bool> LongBlock(Proc.numBlocks(), false);
  BlockId Owner = InvalidBlock;
  for (const LayoutItem &Item : Mat.Items) {
    if (!Item.isFixup())
      Owner = Item.Block;
    if (Item.LongForm)
      LongBlock[Owner] = true;
  }

  AlignmentTsp Refined = Atsp;
  City NumCities = static_cast<City>(Refined.Tsp.numCities());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    if (!LongBlock[B])
      continue;
    for (City To = 0; To != NumCities; ++To) {
      if (To == B)
        continue;
      BlockId LayoutSucc =
          To == Refined.DummyCity ? InvalidBlock : static_cast<BlockId>(To);
      uint64_t Surcharge =
          longBranchEdgeSurcharge(Proc, Model, Train, Train, B, LayoutSucc);
      if (Surcharge != 0)
        Refined.Tsp.setCost(B, To,
                            Refined.Tsp.cost(B, To) +
                                static_cast<int64_t>(Surcharge));
    }
  }

  IteratedOptOptions RefitOptions = SolverOptions;
  RefitOptions.Seed = derivedSolverSeed(SolverOptions.Seed, 1);
  DtspSolution Refit = solveDirectedTsp(Refined.Tsp, RefitOptions);
  Layout RefitLayout = layoutFromTour(Proc, Refined, Refit.Tour);
  uint64_t RefitPenalty =
      evaluateLayout(Proc, RefitLayout, Model, Train, Train);
  MaterializedLayout RefitMat =
      materializeLayout(Proc, RefitLayout, Train, Model);
  uint64_t RefitTotal =
      RefitPenalty + longBranchExtraPenalty(Proc, RefitMat, Train, Model);
  if (RefitTotal >= FirstTotal)
    return false; // Ties keep round 1, whose matrix was not perturbed.
  L = std::move(RefitLayout);
  Penalty = RefitPenalty;
  return true;
}

uint64_t balign::evaluateProgramPenalty(const Program &Prog,
                                        const std::vector<Layout> &Layouts,
                                        const MachineModel &Model,
                                        const ProgramProfile &Predict,
                                        const ProgramProfile &Charge) {
  if (Layouts.size() != Prog.numProcedures())
    fatalArityMismatch(CheckId::PipelineLayoutArity, "layout list",
                       Layouts.size(), Prog.numProcedures());
  if (Predict.Procs.size() != Prog.numProcedures())
    fatalArityMismatch(CheckId::PipelineProfileArity, "prediction profile",
                       Predict.Procs.size(), Prog.numProcedures());
  if (Charge.Procs.size() != Prog.numProcedures())
    fatalArityMismatch(CheckId::PipelineProfileArity, "charge profile",
                       Charge.Procs.size(), Prog.numProcedures());
  uint64_t Sum = 0;
  for (size_t I = 0; I != Prog.numProcedures(); ++I)
    Sum += evaluateLayout(Prog.proc(I), Layouts[I], Model, Predict.Procs[I],
                          Charge.Procs[I]);
  return Sum;
}
