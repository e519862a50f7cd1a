//===- workloads/Workloads.cpp ---------------------------------------------------===//

#include "workloads/Workloads.h"

#include "analysis/Verifier.h"

#include <algorithm>
#include <cassert>
#include <cmath>

using namespace balign;

/// Mixes a root seed with a salt and stream index into a fresh seed.
static uint64_t mixSeed(uint64_t Root, uint64_t Salt, uint64_t Index) {
  uint64_t State = Root ^ (Salt * 0x9e3779b97f4a7c15ULL) ^
                   ((Index + 1) * 0xbf58476d1ce4e5b9ULL);
  return splitMix64(State);
}

namespace {

/// Benchmark-common branch personality of one block, drawn once per
/// procedure from the structure-seeded stream and then perturbed per
/// data set.
struct CommonBlockBias {
  double CondBias = 0.8;     ///< P(favored successor) for conditionals.
  size_t FavoredIndex = 0;   ///< Which successor is favored.
  double TripCount = 10.0;   ///< Loop headers only.
  std::vector<double> MultiwayWeights; ///< Multiway blocks only.
};

} // namespace

/// Draws the benchmark-common biases for every block of \p Gen.
static std::vector<CommonBlockBias>
drawCommonBiases(const WorkloadSpec &Spec, const GeneratedProcedure &Gen,
                 Rng &Common) {
  const Procedure &Proc = Gen.Proc;
  std::vector<CommonBlockBias> Biases(Proc.numBlocks());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    CommonBlockBias &Bias = Biases[B];
    switch (Proc.block(B).Kind) {
    case TerminatorKind::Return:
    case TerminatorKind::Unconditional:
      break;
    case TerminatorKind::Conditional:
      if (Gen.LoopStayIndex[B] >= 0) {
        Bias.TripCount = Spec.TripCountMin +
                         Common.nextDouble() *
                             (Spec.TripCountMax - Spec.TripCountMin);
        Bias.FavoredIndex = static_cast<size_t>(Gen.LoopStayIndex[B]);
        Bias.CondBias = Bias.TripCount / (Bias.TripCount + 1.0);
      } else {
        Bias.CondBias = Spec.CondBiasMin +
                        (Spec.CondBiasMax - Spec.CondBiasMin) *
                            Common.nextDouble();
        // Friendly code favors the source-order-adjacent successor
        // (index 0 by generator construction).
        Bias.FavoredIndex =
            Common.nextBool(Spec.LayoutFriendliness) ? 0 : 1;
      }
      break;
    case TerminatorKind::Multiway: {
      Bias.MultiwayWeights.resize(Succs.size());
      for (double &W : Bias.MultiwayWeights)
        W = 0.05 - std::log(1.0 - Common.nextDouble());
      Bias.FavoredIndex = Common.nextIndex(Succs.size());
      Bias.MultiwayWeights[Bias.FavoredIndex] *= 4.0;
      break;
    }
    }
  }
  return Biases;
}

/// Perturbs common biases into one data set's concrete behavior.
static BranchBehavior
makeBehavior(const GeneratedProcedure &Gen,
             const std::vector<CommonBlockBias> &Common, double Divergence,
             Rng &Ds) {
  const Procedure &Proc = Gen.Proc;
  BranchBehavior Behavior;
  Behavior.Probs.resize(Proc.numBlocks());
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    const std::vector<BlockId> &Succs = Proc.successors(B);
    if (Succs.empty())
      continue;
    std::vector<double> &Probs = Behavior.Probs[B];
    Probs.assign(Succs.size(), 0.0);
    const CommonBlockBias &Bias = Common[B];
    switch (Proc.block(B).Kind) {
    case TerminatorKind::Return:
      break;
    case TerminatorKind::Unconditional:
      Probs[0] = 1.0;
      break;
    case TerminatorKind::Conditional: {
      double P;
      size_t Favored = Bias.FavoredIndex;
      if (Gen.LoopStayIndex[B] >= 0) {
        double Trip = Bias.TripCount *
                      (1.0 + Divergence * (Ds.nextDouble() * 2.0 - 1.0) * 0.3);
        Trip = std::max(1.5, Trip);
        P = Trip / (Trip + 1.0);
      } else {
        P = Bias.CondBias +
            Divergence * (Ds.nextDouble() * 2.0 - 1.0) * 0.2;
        P = std::clamp(P, 0.52, 0.99);
        // Only weakly-biased branches flip direction between inputs;
        // strongly-biased ones encode algorithmic invariants that hold
        // for every data set.
        if (Bias.CondBias < 0.82 && Ds.nextBool(Divergence * 0.12))
          Favored = 1 - Favored;
      }
      Probs[Favored] = P;
      Probs[1 - Favored] = 1.0 - P;
      break;
    }
    case TerminatorKind::Multiway: {
      double Sum = 0.0;
      for (size_t S = 0; S != Succs.size(); ++S) {
        double W = Bias.MultiwayWeights[S] *
                   (1.0 + Divergence * (Ds.nextDouble() * 2.0 - 1.0) * 0.3);
        Probs[S] = std::max(W, 1e-4);
        Sum += Probs[S];
      }
      for (double &P : Probs)
        P /= Sum;
      break;
    }
    }
  }
  assert(Behavior.isValid(Proc) && "generated behavior invalid");
  return Behavior;
}

/// Splits a data set's branch budget over procedures with a Zipf-like
/// skew; the hot-procedure ranking is benchmark-common with per-data-set
/// transpositions so the two data sets mostly (not entirely) agree on
/// what is hot.
static std::vector<uint64_t> splitBudget(const WorkloadSpec &Spec,
                                         uint64_t Budget, double Divergence,
                                         Rng &Common, Rng &Ds) {
  size_t N = Spec.NumProcs;
  std::vector<size_t> Rank(N);
  for (size_t I = 0; I != N; ++I)
    Rank[I] = I;
  Common.shuffle(Rank);
  size_t Swaps = static_cast<size_t>(Divergence * 0.15 * static_cast<double>(N));
  for (size_t S = 0; S != Swaps; ++S)
    std::swap(Rank[Ds.nextIndex(N)], Rank[Ds.nextIndex(N)]);

  std::vector<double> Weight(N);
  double Sum = 0.0;
  for (size_t I = 0; I != N; ++I) {
    Weight[I] =
        1.0 / std::pow(static_cast<double>(Rank[I]) + 1.0, Spec.ProcSkew);
    Sum += Weight[I];
  }
  // Every procedure gets a small floor (when the budget allows) so cold
  // procedures are exercised a little, as linked-in library code is in
  // real profiles; the Zipf head still dominates.
  uint64_t Floor = Budget / (20 * N);
  std::vector<uint64_t> Result(N);
  for (size_t I = 0; I != N; ++I)
    Result[I] = std::max(Floor,
                         static_cast<uint64_t>(static_cast<double>(Budget) *
                                               Weight[I] / Sum));
  return Result;
}

WorkloadInstance balign::buildWorkload(const WorkloadSpec &Spec) {
  assert(Spec.DataSets.size() == 2 && "benchmarks carry two data sets");
  WorkloadInstance Instance;
  Instance.Spec = Spec;
  Instance.Prog = Program(Spec.Benchmark);

  // Structure: per-procedure branch-site targets jittered around the
  // mean so procedures differ in size.
  Rng Structure(mixSeed(Spec.StructureSeed, /*Salt=*/1, 0));
  double MeanSites = static_cast<double>(Spec.TotalBranchSites) /
                     static_cast<double>(Spec.NumProcs);
  for (unsigned P = 0; P != Spec.NumProcs; ++P) {
    GenParams Shape = Spec.Shape;
    double Jitter = 0.5 + Structure.nextDouble(); // [0.5, 1.5)
    Shape.TargetBranchSites = std::max(
        1u, static_cast<unsigned>(std::llround(MeanSites * Jitter)));
    Rng ProcRng(mixSeed(Spec.StructureSeed, /*Salt=*/2, P));
    Instance.Generated.push_back(generateProcedure(
        Spec.Benchmark + "_p" + std::to_string(P), Shape, ProcRng));
    Instance.Prog.addProcedure(Instance.Generated.back().Proc);
  }

  // Benchmark-common biases (shared by both data sets).
  std::vector<std::vector<CommonBlockBias>> Common;
  for (unsigned P = 0; P != Spec.NumProcs; ++P) {
    Rng CommonRng(mixSeed(Spec.StructureSeed, /*Salt=*/3, P));
    Common.push_back(
        drawCommonBiases(Spec, Instance.Generated[P], CommonRng));
  }

  for (const DataSetSpec &DsSpec : Spec.DataSets) {
    WorkloadDataSet Ds;
    Ds.Name = DsSpec.Name;
    Ds.BranchBudget = DsSpec.BranchBudget;

    Rng CommonBudget(mixSeed(Spec.StructureSeed, /*Salt=*/4, 0));
    Rng DsBudget(mixSeed(DsSpec.Seed, /*Salt=*/5, 0));
    std::vector<uint64_t> Budgets = splitBudget(
        Spec, DsSpec.BranchBudget, DsSpec.Divergence, CommonBudget, DsBudget);

    for (unsigned P = 0; P != Spec.NumProcs; ++P) {
      Rng BehaviorRng(mixSeed(DsSpec.Seed, /*Salt=*/6, P));
      Ds.Behaviors.push_back(makeBehavior(Instance.Generated[P], Common[P],
                                          DsSpec.Divergence, BehaviorRng));
      Rng TraceRng(mixSeed(DsSpec.Seed, /*Salt=*/7, P));
      ExecutionTrace Trace;
      Ds.Profile.Procs.push_back(walkProfile(Instance.Prog.proc(P),
                                             Ds.Behaviors.back(), TraceRng,
                                             Budgets[P], &Trace));
      Ds.Traces.push_back(std::move(Trace));
    }
    Instance.DataSets.push_back(std::move(Ds));
  }

  // Self-check through balign-verify: a generated program and its
  // profiles must satisfy the same invariants the verifier enforces on
  // external inputs. A generator bug aborts here, at the source, rather
  // than surfacing as a mysterious downstream alignment failure.
  DiagnosticEngine Diags;
  checkCfg(Instance.Prog, Diags);
  for (const WorkloadDataSet &Ds : Instance.DataSets)
    checkProfileFlow(Instance.Prog, Ds.Profile, Diags);
  std::string What = "workload generator self-check (" + Spec.Benchmark + ")";
  reportFatalIfErrors(Diags, What.c_str());
  return Instance;
}

const std::vector<WorkloadSpec> &balign::benchmarkSuite() {
  static const std::vector<WorkloadSpec> Suite = [] {
    std::vector<WorkloadSpec> S;

    { // 026.compress: Lempel-Ziv compressor; tight hashing loops.
      WorkloadSpec W;
      W.Benchmark = "com";
      W.Description = "Lempel-Ziv compressor";
      W.StructureSeed = 0xC0117e55ULL;
      W.NumProcs = 6;
      W.TotalBranchSites = 70;
      W.Shape.MultiwayFraction = 0.02;
      W.Shape.LoopFraction = 0.45;
      W.Shape.BlockSizeMin = 3;
      W.Shape.BlockSizeMax = 10;
      W.LayoutFriendliness = 0.3;
      W.Shape.TopTestedLoopFraction = 0.2;
      W.TripCountMin = 8;
      W.TripCountMax = 100;
      W.ProcSkew = 1.2;
      W.DataSets = {{"in", 0xD5071ULL, 11800, 0.3},
                    {"st", 0xD5072ULL, 135400, 0.3}};
      S.push_back(std::move(W));
    }

    { // 015.doduc: nuclear reactor thermohydraulics; deep FP nests.
      WorkloadSpec W;
      W.Benchmark = "dod";
      W.Description = "nuclear reactor thermohydraulic simulation";
      W.StructureSeed = 0xD0D0CULL;
      W.NumProcs = 42;
      W.TotalBranchSites = 700;
      W.Shape.MultiwayFraction = 0.01;
      W.Shape.LoopFraction = 0.18;
      W.Shape.MaxDepth = 7;
      W.Shape.ElseFraction = 0.75;
      W.Shape.BlockSizeMin = 6;
      W.Shape.BlockSizeMax = 20;
      W.LayoutFriendliness = 0.08;
      W.Shape.TopTestedLoopFraction = 0.35;
      W.CondBiasMin = 0.90;
      W.CondBiasMax = 0.99;
      W.TripCountMin = 4;
      W.TripCountMax = 12;
      W.ProcSkew = 1.1;
      W.DataSets = {{"re", 0xD0D1ULL, 77600, 0.15},
                    {"sm", 0xD0D2ULL, 13400, 0.15}};
      S.push_back(std::move(W));
    }

    { // 023.eqntott: boolean equations to truth tables; dominant loops.
      WorkloadSpec W;
      W.Benchmark = "eqn";
      W.Description = "translates boolean equations to truth tables";
      W.StructureSeed = 0xE1707ULL;
      W.NumProcs = 14;
      W.TotalBranchSites = 330;
      W.Shape.MultiwayFraction = 0.02;
      W.Shape.LoopFraction = 0.4;
      W.Shape.BlockSizeMin = 3;
      W.Shape.BlockSizeMax = 9;
      W.LayoutFriendliness = 0.25;
      W.Shape.TopTestedLoopFraction = 0.0;
      W.CondBiasMin = 0.80;
      W.CondBiasMax = 0.98;
      W.TripCountMin = 16;
      W.TripCountMax = 128;
      W.ProcSkew = 1.6;
      W.DataSets = {{"fx", 0xE1701ULL, 46500, 0.3},
                    {"ip", 0xE1702ULL, 335800, 0.3}};
      S.push_back(std::move(W));
    }

    { // 008.espresso: boolean function minimizer; many small procedures.
      WorkloadSpec W;
      W.Benchmark = "esp";
      W.Description = "boolean function minimizer";
      W.StructureSeed = 0xE59e550ULL;
      W.NumProcs = 179;
      W.TotalBranchSites = 1550;
      W.Shape.MultiwayFraction = 0.04;
      W.Shape.LoopFraction = 0.3;
      W.Shape.BlockSizeMin = 3;
      W.Shape.BlockSizeMax = 12;
      W.LayoutFriendliness = 0.3;
      W.Shape.TopTestedLoopFraction = 0.25;
      W.TripCountMin = 4;
      W.TripCountMax = 40;
      W.ProcSkew = 0.9;
      W.DataSets = {{"ti", 0xE5901ULL, 87000, 0.25},
                    {"tl", 0xE5902ULL, 157200, 0.25}};
      S.push_back(std::move(W));
    }

    { // 089.su2cor: statistical mechanics; huge predictable FP loops.
      WorkloadSpec W;
      W.Benchmark = "su2";
      W.Description = "statistical mechanics calculation";
      W.StructureSeed = 0x52C08ULL;
      W.NumProcs = 20;
      W.TotalBranchSites = 340;
      W.Shape.MultiwayFraction = 0.01;
      W.Shape.LoopFraction = 0.55;
      W.Shape.ElseFraction = 0.2;
      W.Shape.BlockSizeMin = 10;
      W.Shape.BlockSizeMax = 40;
      W.LayoutFriendliness = 0.85;
      W.Shape.TopTestedLoopFraction = 0.02;
      W.TripCountMin = 24;
      W.TripCountMax = 200;
      W.ProcSkew = 1.3;
      W.DataSets = {{"re", 0x52C01ULL, 168300, 0.2},
                    {"sh", 0x52C02ULL, 13100, 0.2}};
      S.push_back(std::move(W));
    }

    { // 022.li: Lisp interpreter; multiway dispatch everywhere.
      WorkloadSpec W;
      W.Benchmark = "xli";
      W.Description = "Lisp interpreter";
      W.StructureSeed = 0x115BULL;
      W.NumProcs = 26;
      W.TotalBranchSites = 400;
      W.Shape.MultiwayFraction = 0.12;
      W.Shape.MultiwayArmsMin = 6;
      W.Shape.MultiwayArmsMax = 24;
      W.Shape.LoopFraction = 0.3;
      W.Shape.BlockSizeMin = 3;
      W.Shape.BlockSizeMax = 10;
      W.LayoutFriendliness = 0.3;
      W.Shape.TopTestedLoopFraction = 0.25;
      W.TripCountMin = 4;
      W.TripCountMax = 32;
      W.ProcSkew = 1.0;
      W.DataSets = {{"ne", 0x115B1ULL, 100, 0.2},
                    {"q7", 0x115B2ULL, 42000, 0.2}};
      S.push_back(std::move(W));
    }
    return S;
  }();
  return Suite;
}

WorkloadInstance balign::buildWorkloadByName(const std::string &Benchmark) {
  for (const WorkloadSpec &Spec : benchmarkSuite())
    if (Spec.Benchmark == Benchmark)
      return buildWorkload(Spec);
  assert(false && "unknown benchmark name");
  return WorkloadInstance();
}
