//===- workloads/Workloads.h - The synthetic SPEC92-like suite -------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The six-benchmark, twelve-data-set suite standing in for the paper's
/// SPEC92 subset (Table 1). Each benchmark is a deterministic synthetic
/// program whose shape parameters (procedure count, branch sites, loop /
/// multiway mix, block sizes) mimic the original's personality, and each
/// carries two "data sets": branch-behavior models plus a branch budget
/// scaled to 1/1000 of Table 1's executed branch instructions.
///
/// The two data sets of a benchmark share most branch biases (drawn from
/// a benchmark-common stream) but differ in bias magnitude, occasional
/// direction flips, trip counts, and which procedures are hot — giving
/// the realistic train/test divergence the Figure 3 cross-validation
/// study needs.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_WORKLOADS_WORKLOADS_H
#define BALIGN_WORKLOADS_WORKLOADS_H

#include "ir/CFG.h"
#include "profile/Profile.h"
#include "profile/Trace.h"
#include "workloads/Generator.h"

#include <string>
#include <vector>

namespace balign {

/// Parameters of one data set (one "input" to the benchmark).
struct DataSetSpec {
  std::string Name;      ///< e.g. "in", "st".
  uint64_t Seed = 1;     ///< Data-set-specific random stream.
  uint64_t BranchBudget = 10000; ///< Executed branches (Table 1 / 1000).
  /// How strongly this data set's biases may deviate from the
  /// benchmark-common biases (0 = identical twins, 1 = independent).
  double Divergence = 0.25;
};

/// Parameters of one benchmark.
struct WorkloadSpec {
  std::string Benchmark;   ///< e.g. "com".
  std::string Description; ///< Table 1's description column.
  uint64_t StructureSeed = 1;

  unsigned NumProcs = 10;
  unsigned TotalBranchSites = 100; ///< Static sites across all procedures.
  GenParams Shape;

  /// Probability that a non-loop conditional is biased toward its
  /// source-order-adjacent successor; high values model code whose
  /// original layout is already branch-friendly (su2cor), low values
  /// model code with lots of taken branches to fix (doduc).
  double LayoutFriendliness = 0.5;

  /// Typical loop trip-count range (uniform draw per loop header).
  double TripCountMin = 4.0;
  double TripCountMax = 48.0;

  /// Bias range for non-loop conditionals (probability of the favored
  /// successor). Real branch profiles are heavily skewed; benchmarks
  /// with near-deterministic checks (doduc's convergence tests) push
  /// this toward 1, which raises the removable share of their penalty.
  double CondBiasMin = 0.76;
  double CondBiasMax = 0.98;

  /// Zipf exponent controlling how skewed the per-procedure execution
  /// budget distribution is (0 = uniform).
  double ProcSkew = 1.1;

  std::vector<DataSetSpec> DataSets; ///< Exactly two.
};

/// One fully-built data set: behaviors, traces, and collected profiles.
struct WorkloadDataSet {
  std::string Name;
  std::vector<BranchBehavior> Behaviors; ///< Per procedure.
  std::vector<ExecutionTrace> Traces;    ///< Per procedure.
  ProgramProfile Profile;                ///< Counted by the walks that
                                         ///< recorded Traces.
  uint64_t BranchBudget = 0;
};

/// A built benchmark: the program plus both data sets.
struct WorkloadInstance {
  WorkloadSpec Spec;
  Program Prog;
  std::vector<GeneratedProcedure> Generated; ///< Structural tags.
  std::vector<WorkloadDataSet> DataSets;

  /// Qualified name "bench.dataset" as used in the paper's figures.
  std::string dataSetLabel(size_t Index) const {
    return Spec.Benchmark + "." + DataSets[Index].Name;
  }
};

/// The six benchmark specs (com, dod, eqn, esp, su2, xli) with the
/// Table 1 data-set pairs.
const std::vector<WorkloadSpec> &benchmarkSuite();

/// Builds a benchmark: generates the program and both data sets.
/// Deterministic in the spec's seeds.
WorkloadInstance buildWorkload(const WorkloadSpec &Spec);

/// Convenience: finds a suite spec by benchmark name and builds it.
/// Asserts the name exists.
WorkloadInstance buildWorkloadByName(const std::string &Benchmark);

} // namespace balign

#endif // BALIGN_WORKLOADS_WORKLOADS_H
