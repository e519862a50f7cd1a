//===- align/Pipeline.h - Whole-program alignment driver -------------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Drives the full toolchain over a program: for every procedure, builds
/// the original/greedy/TSP layouts, evaluates their control penalties on
/// the training profile, and (optionally) computes the Held-Karp and
/// Assignment lower bounds. Procedures are independent, so the driver
/// can farm them out to a thread pool (AlignmentOptions::Threads) with
/// bit-identical results. Each stage
/// runs under a `stage.*` trace span (trace/Scope.h); the Table 2
/// harness sums those spans to report the compile-time cost of each
/// phase the way the paper does.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_ALIGN_PIPELINE_H
#define BALIGN_ALIGN_PIPELINE_H

#include "align/Aligners.h"
#include "align/Bounds.h"
#include "ir/CFG.h"
#include "machine/MachineModel.h"
#include "objective/Layout.h"
#include "profile/Profile.h"
#include "robust/Deadline.h"
#include "robust/FailureReport.h"
#include "static/EffortPolicy.h"
#include "tsp/HeldKarp.h"
#include "tsp/IteratedOpt.h"

#include <array>
#include <functional>
#include <stdexcept>
#include <vector>

namespace balign {

struct ProcedureAlignment;

/// What the tsp path's solve of one procedure produced, exactly as the
/// pipeline used it: the DTSP instance, the solver's answer, and the
/// solver options with the derived per-procedure seed (and no budget,
/// so a replay observes no deadline).
struct SolveArtifacts {
  AlignmentTsp Atsp;
  DtspSolution Solution;
  IteratedOptOptions SolverOptions;
};

/// The pipeline's one observation point for verification
/// instrumentation (the -verify-each idea): called once per procedure
/// with its finished alignment record and, when the tsp path solved the
/// procedure, its SolveArtifacts (null for unprofiled, greedy-only,
/// Ext-TSP and degraded procedures). The pipeline never inspects what
/// the hook does, so instrumentation cannot change results —
/// analysis/PipelineVerifier.h installs the balign-verify passes here
/// without the align library depending on them.
///
/// Serialization contract: the hook always runs on the thread that
/// called alignProgram, never concurrently, in program order. Under
/// AlignmentOptions::Threads > 1 each procedure's artifacts wait in its
/// result slot until the parallel region completes, so a hook written
/// for the serial pipeline works unchanged at any thread count.
using ProcedureHook = std::function<void(
    size_t ProcIndex, const Procedure &Proc, const ProcedureProfile &Train,
    const ProcedureAlignment &Result, const SolveArtifacts *Artifacts)>;

struct AlignmentOptions;

/// Where alignProgram keeps per-procedure results between runs.
enum class CacheMode : uint8_t {
  Off,    ///< Every procedure is recomputed (the default).
  Memory, ///< Results cached in-process; dies with the cache object.
  Disk,   ///< Results persisted under AlignmentOptions::CachePath.
};

/// The pipeline's view of a result cache. The align library deliberately
/// knows nothing about fingerprints or storage: it hands the cache the
/// raw per-procedure inputs plus the procedure index (whose derived
/// solver seed is part of the key) and receives a validated
/// ProcedureAlignment back, or computes and offers the fresh result for
/// storage. The concrete implementation lives in cache/Store.h, which
/// may link the analysis library for hit validation — a dependency the
/// align library itself must not take.
///
/// Thread-safety contract: lookup and store may be called concurrently
/// from pipeline workers (AlignmentOptions::Threads > 1); the
/// implementation must synchronize internally.
class ProcedureResultCache {
public:
  virtual ~ProcedureResultCache() = default;

  /// On a validated hit, fills \p Out and returns true. A hit must be
  /// byte-identical to what recomputation would produce; anything the
  /// implementation cannot fully validate must be a miss.
  virtual bool lookup(const Procedure &Proc, const ProcedureProfile &Train,
                      const AlignmentOptions &Options, size_t ProcIndex,
                      ProcedureAlignment &Out) = 0;

  /// Offers a freshly computed result for caching.
  virtual void store(const Procedure &Proc, const ProcedureProfile &Train,
                     const AlignmentOptions &Options, size_t ProcIndex,
                     const ProcedureAlignment &Result) = 0;
};

/// What alignProgram does when a procedure's alignment fails — an
/// exception escapes a stage, a deadline expires, a resource cap trips
/// (balign-shield failure isolation).
enum class OnErrorPolicy : uint8_t {
  /// Propagate the first failure (program order) out of alignProgram as
  /// AlignmentAborted. The default: failures stay loud unless the
  /// caller opts into degradation. No ladder is walked, since nothing
  /// ships; every procedure still runs, so an aborted run's counters,
  /// spans and cache stores do not depend on the thread count.
  Abort,
  /// Walk the degradation ladder: retry with the greedy aligner, then
  /// fall back to the original layout. The run completes; every
  /// degraded procedure is recorded in ProgramAlignment::Failures.
  Fallback,
  /// Keep the failing procedure's original layout without retrying the
  /// ladder (recorded with Skipped set).
  Skip,
};

/// Thrown by alignProgram under OnErrorPolicy::Abort: carries the first
/// per-procedure failure in program order (deterministic at any thread
/// count); its what() is the failure's cause(), with no rung.
class AlignmentAborted : public std::runtime_error {
public:
  explicit AlignmentAborted(ProcedureFailure F);

  const ProcedureFailure &failure() const { return Failure; }

private:
  ProcedureFailure Failure;
};

/// The solver-seed stream of procedure \p ProcIndex, derived from the
/// root seed so results do not depend on procedure processing order.
/// Shared between the pipeline (which solves with it) and the cache
/// fingerprint (which keys on it); the two must never disagree.
inline uint64_t derivedSolverSeed(uint64_t RootSeed, size_t ProcIndex) {
  return RootSeed + 0x9e3779b9u * (static_cast<uint64_t>(ProcIndex) + 1);
}

/// balign-displace: one bounded-error refinement round for a variable
/// branch encoding. The DTSP matrix prices every branch as short-form;
/// under BranchEncoding::ShortLong the solved layout may widen some
/// branches, whose long-form execution cost the solve never saw. This
/// routine materializes \p L, runs the displacement fixpoint, and — when
/// any branch went long — re-solves a copy of \p Atsp whose rows for the
/// long-observed blocks carry longBranchEdgeSurcharge, with a seed
/// derived from \p SolverOptions.Seed, then keeps whichever layout is
/// cheaper under the encoding-aware total (evaluateLayout plus
/// longBranchExtraPenalty). One round only: which branches go long is a
/// property of the whole layout, so the surcharge can overprice blocks
/// the re-solve brings back into short range, but the error is bounded
/// by the total surcharge added (DESIGN.md section 17). Replayed
/// verbatim by the determinism verify pass; must stay a pure function
/// of its arguments. Returns true when the refit layout replaced \p L
/// (updating \p Penalty, which excludes the long-branch surcharge, like
/// every reported penalty). A no-op under BranchEncoding::Fixed.
bool refineLayoutForEncoding(const Procedure &Proc,
                             const ProcedureProfile &Train,
                             const MachineModel &Model,
                             const AlignmentTsp &Atsp,
                             const IteratedOptOptions &SolverOptions,
                             Layout &L, uint64_t &Penalty);

/// Which algorithm produces the pipeline's primary layout
/// (ProcedureAlignment::TspLayout — the name is historical; greedy and
/// original are always computed alongside as baselines).
enum class PrimaryAligner : uint8_t {
  Tsp = 0,    ///< The paper's DTSP + iterated 3-Opt (the default).
  ExtTsp = 1, ///< ObjectiveFn-driven chain merging (ExtTspAligner).
};

/// Stable flag spelling ("tsp" / "exttsp").
const char *primaryAlignerName(PrimaryAligner Primary);

/// The objective option block: the primary aligner and, for
/// PrimaryAligner::ExtTsp, the objective it maximizes and the model's
/// Ext-TSP parameters (the base, so they read as on MachineModel).
struct ObjectiveBlock : ExtTspParams {
  PrimaryAligner Primary = PrimaryAligner::Tsp;
  ObjectiveKind Kind = ObjectiveKind::ExtTsp;
  bool operator==(const ObjectiveBlock &) const = default;
};

/// The option blocks' bytes: the one serialization that the serve wire
/// carries and the cache key absorbs. Fixed-width, little-endian:
///
///   objective: [u8 primary][u8 objective][u32 fwd window][u32 bwd window]
///              [u64 fwd weight IEEE-754 bits][u64 bwd weight IEEE-754 bits]
///   encoding:  [u8 encoding][u64 short range][u32 long extra instrs]
///              [u32 long penalty]
std::array<char, 26> objectiveBlockBytes(const ObjectiveBlock &Block);
std::array<char, 17> encodingBlockBytes(const BranchEncodingParams &Block);

/// Configuration for alignProgram.
struct AlignmentOptions {
  MachineModel Model = MachineModel::alpha21164();
  IteratedOptOptions Solver;
  HeldKarpOptions HeldKarp;
  bool ComputeBounds = true;

  /// The algorithm behind the primary layout. ExtTsp skips the DTSP
  /// matrix/solve stages entirely (AfterProcedure gets no artifacts —
  /// there are none to observe) and runs the chain merger under a
  /// stage.chain span instead. Result-affecting, so the cache
  /// fingerprint keys on it.
  PrimaryAligner Primary = PrimaryAligner::Tsp;

  /// The objective the ExtTsp chain merger maximizes (ignored under
  /// PrimaryAligner::Tsp). ObjectiveKind::ExtTsp reads the windows and
  /// weights from Model; ObjectiveKind::Fallthrough chain-merges on the
  /// paper's penalty instead (a useful ablation). Result-affecting under
  /// ExtTsp, so the fingerprint keys on it and on the Model's Ext-TSP
  /// parameters.
  ObjectiveKind Objective = ObjectiveKind::ExtTsp;

  /// How solver effort is spread across procedures (balign-lint's
  /// profile-guided effort): Uniform runs Solver as-is everywhere;
  /// Scaled adjusts kicks per run by loop nesting and hotness;
  /// ScaledColdGreedy additionally ships the greedy layout for cold
  /// procedures without solving. decideEffort (static/EffortPolicy.h)
  /// is the single decision point, shared with the cache fingerprint —
  /// results stay bit-identical at any thread count for any policy.
  EffortPolicy Effort = EffortPolicy::Uniform;

  /// Result caching across runs. Off computes everything; Memory and
  /// Disk require a cache::CacheSession (or any ProcedureResultCache)
  /// attached via CacheImpl — enabling a mode without an implementation
  /// is a fatal usage error. Cached hits are bit-identical to
  /// recomputation at every thread count.
  CacheMode Cache = CacheMode::Off;

  /// Store directory for CacheMode::Disk (created on first flush).
  std::string CachePath;

  /// The cache implementation; installed by cache::CacheSession. Not
  /// owned. Lookups are skipped while AfterProcedure is set
  /// (verification wants to observe real solves), but freshly computed
  /// results are still stored, so `--verify --cache` warms a fully
  /// verified cache.
  ProcedureResultCache *CacheImpl = nullptr;

  /// Worker threads for the per-procedure stages (greedy, matrix build,
  /// DTSP solve, bounds): 1 runs everything on the calling thread, 0
  /// uses one worker per hardware thread, any other value that many
  /// workers, never more than the program has procedures. Results are
  /// bit-identical for every setting — each procedure's solver stream
  /// is derived from the root seed, not from scheduling — and
  /// AfterProcedure always runs on the calling thread, in program order
  /// (see ProcedureHook).
  unsigned Threads = 1;

  /// Verification instrumentation; empty (and free) by default.
  ProcedureHook AfterProcedure;

  //===--- balign-shield failure isolation --------------------------------===//

  /// What to do when a procedure's alignment fails (see OnErrorPolicy).
  /// With no armed faults, no budgets, and no profile hot enough to
  /// overflow the DTSP entry pin nothing ever fails, and every policy
  /// produces bit-identical results to the others.
  OnErrorPolicy OnError = OnErrorPolicy::Abort;

  /// Per-procedure wall-clock budget in milliseconds (0 = unlimited),
  /// polled cooperatively inside the iterated 3-Opt solver. A trip is a
  /// FailureKind::Deadline failure handled per OnError. Budget-tripped
  /// procedures are never cached.
  uint64_t ProcBudgetMs = 0;

  /// Whole-run deadline (not owned, may be null). Chained as the parent
  /// of every per-procedure budget and checked at procedure entry, so
  /// once it expires every remaining procedure degrades per OnError.
  const Deadline *RunDeadline = nullptr;

  /// Clock for per-procedure budgets; empty = steadyClockMs. Tests
  /// inject a ManualClock to drive deadline trips deterministically.
  ClockFn Clock;
};

/// Per-procedure outcome.
struct ProcedureAlignment {
  Layout OriginalLayout;
  Layout GreedyLayout;
  Layout TspLayout;

  uint64_t OriginalPenalty = 0;
  uint64_t GreedyPenalty = 0;
  uint64_t TspPenalty = 0;

  PenaltyBounds Bounds;
  unsigned SolverRuns = 0;
  unsigned RunsFindingBest = 0;

  /// Which degradation-ladder rung produced TspLayout: LadderRung::Tsp
  /// unless balign-shield isolated a failure and degraded this
  /// procedure (unprofiled keep-original procedures also stay at Tsp —
  /// keeping their layout is the designed behavior, not degradation).
  /// Not serialized by the cache: only full-path results are stored, so
  /// a decoded hit's default is always correct.
  LadderRung Rung = LadderRung::Tsp;
};

/// Whole-program outcome.
struct ProgramAlignment {
  std::vector<ProcedureAlignment> Procs;

  /// Every per-procedure failure balign-shield isolated, in program
  /// order. Empty under OnErrorPolicy::Abort (the first failure throws
  /// instead) and whenever nothing failed.
  FailureReport Failures;

  uint64_t totalOriginalPenalty() const;
  uint64_t totalGreedyPenalty() const;
  uint64_t totalTspPenalty() const;
  double totalHeldKarpBound() const;

  /// Extracts one layout list (program order) for the simulator.
  std::vector<Layout> originalLayouts() const;
  std::vector<Layout> greedyLayouts() const;
  std::vector<Layout> tspLayouts() const;
};

/// Aligns every procedure of \p Prog with the greedy and TSP methods.
ProgramAlignment alignProgram(const Program &Prog,
                              const ProgramProfile &Train,
                              const AlignmentOptions &Options);

/// Sums evaluateLayout over all procedures: predictions/orientations come
/// from \p Predict, cycle charges from \p Charge (pass the same profile
/// twice for same-data-set evaluation).
uint64_t evaluateProgramPenalty(const Program &Prog,
                                const std::vector<Layout> &Layouts,
                                const MachineModel &Model,
                                const ProgramProfile &Predict,
                                const ProgramProfile &Charge);

} // namespace balign

#endif // BALIGN_ALIGN_PIPELINE_H
