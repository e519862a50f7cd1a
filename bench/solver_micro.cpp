//===- bench/solver_micro.cpp - google-benchmark solver microbenchmarks -----===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
// Microbenchmarks for the combinatorial kernels backing Section 3.2's
// compile-time discussion: tour construction, local search, the full
// iterated 3-Opt protocol, the Held-Karp bound, and the Hungarian
// assignment bound, across instance sizes typical of branch-alignment
// DTSPs (tens to hundreds of basic blocks).
//
//===--------------------------------------------------------------------===//

#include "support/Random.h"
#include "tsp/Assignment.h"
#include "tsp/Construct.h"
#include "tsp/HeldKarp.h"
#include "tsp/Instance.h"
#include "tsp/IteratedOpt.h"
#include "tsp/LocalSearch.h"

#include <benchmark/benchmark.h>

using namespace balign;

namespace {

/// Alignment-like random instance: every city has a couple of cheap
/// arcs (hot CFG edges) over an expensive background.
DirectedTsp alignmentLikeInstance(size_t N, uint64_t Seed) {
  Rng R(Seed);
  DirectedTsp D(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        D.setCost(I, J, 200 + static_cast<int64_t>(R.nextBelow(800)));
  for (City I = 0; I != N; ++I) {
    for (int Hot = 0; Hot != 2; ++Hot) {
      City J = static_cast<City>(R.nextIndex(N));
      if (J != I)
        D.setCost(I, J, static_cast<int64_t>(R.nextBelow(40)));
    }
  }
  return D;
}

void BM_GreedyConstruction(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DirectedTsp D = alignmentLikeInstance(N, 42);
  Rng R(7);
  for (auto _ : State)
    benchmark::DoNotOptimize(greedyEdgeTour(D, R));
}
BENCHMARK(BM_GreedyConstruction)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_NearestNeighborConstruction(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DirectedTsp D = alignmentLikeInstance(N, 42);
  Rng R(7);
  for (auto _ : State)
    benchmark::DoNotOptimize(nearestNeighborTour(D, R));
}
BENCHMARK(BM_NearestNeighborConstruction)->Arg(16)->Arg(64)->Arg(256);

void BM_LocalSearch(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DirectedTsp D = alignmentLikeInstance(N, 42);
  PredecessorLists Candidates(D, 12);
  Rng R(3);
  for (auto _ : State) {
    State.PauseTiming();
    std::vector<City> Dir = canonicalTour(N);
    R.shuffle(Dir);
    State.ResumeTiming();
    benchmark::DoNotOptimize(LocalSearch(D, Candidates).run(Dir));
  }
}
BENCHMARK(BM_LocalSearch)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

void BM_IteratedThreeOptFull(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DirectedTsp D = alignmentLikeInstance(N, 42);
  IteratedOptOptions Options;
  for (auto _ : State)
    benchmark::DoNotOptimize(solveDirectedTsp(D, Options));
}
BENCHMARK(BM_IteratedThreeOptFull)
    ->Arg(16)
    ->Arg(32)
    ->Arg(64)
    ->Unit(benchmark::kMillisecond);

void BM_HeldKarpBound(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DirectedTsp D = alignmentLikeInstance(N, 42);
  IteratedOptOptions Options;
  Options.GreedyStarts = 1;
  Options.NearestNeighborStarts = 0;
  Options.CanonicalStart = false;
  Options.IterationsFactor = 0.25;
  int64_t Ub = solveDirectedTsp(D, Options).Cost;
  for (auto _ : State)
    benchmark::DoNotOptimize(heldKarpBoundDirected(D, Ub));
}
BENCHMARK(BM_HeldKarpBound)
    ->Arg(16)
    ->Arg(64)
    ->Arg(128)
    ->Unit(benchmark::kMillisecond);

void BM_AssignmentBound(benchmark::State &State) {
  size_t N = static_cast<size_t>(State.range(0));
  DirectedTsp D = alignmentLikeInstance(N, 42);
  for (auto _ : State)
    benchmark::DoNotOptimize(assignmentBound(D));
}
BENCHMARK(BM_AssignmentBound)->Arg(16)->Arg(64)->Arg(128)->Arg(256);

} // namespace

BENCHMARK_MAIN();
