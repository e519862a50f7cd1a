//===- tsp/IteratedOpt.cpp ---------------------------------------------------===//

#include "tsp/IteratedOpt.h"

#include "robust/FaultInjector.h"
#include "tsp/Construct.h"
#include "tsp/LocalSearch.h"
#include "trace/Scope.h"

#include <algorithm>
#include <cassert>

using namespace balign;

void balign::doubleBridge(std::vector<City> &Tour, Rng &Rng,
                          std::vector<City> *Touched) {
  size_t N = Tour.size();
  if (N < 4)
    return;
  // Three distinct interior cut points 0 < P1 < P2 < P3 < N.
  size_t Cuts[3];
  Cuts[0] = 1 + Rng.nextIndex(N - 3);
  Cuts[1] = 1 + Rng.nextIndex(N - 3);
  Cuts[2] = 1 + Rng.nextIndex(N - 3);
  std::sort(std::begin(Cuts), std::end(Cuts));
  size_t P1 = Cuts[0], P2 = Cuts[1] + 1, P3 = Cuts[2] + 2;
  assert(P1 < P2 && P2 < P3 && P3 < N && "bad double-bridge cuts");

  // A B C D -> A C B D, with B = [P1, P2) and C = [P2, P3).
  std::rotate(Tour.begin() + P1, Tour.begin() + P2, Tour.begin() + P3);
  if (Touched) {
    Touched->clear();
    for (size_t Pos : {size_t(0), P1 - 1, P1, P2 - 1, P2, P3 - 1, P3, N - 1})
      Touched->push_back(Tour[std::min(Pos, N - 1)]);
  }
}

namespace {

/// Builds the candidate predecessor lists. They stand in for the
/// symmetric instance (LocalSearch.h), so they carry its span and fault
/// site: any failure while preparing the O(N^2) search structures
/// surfaces as a tsp.transform fault.
PredecessorLists buildCandidates(const DirectedTsp &Dtsp, unsigned K) {
  ScopedSpan Span("tsp.transform", SpanCat::Solver);
  FaultInjector::instance().throwIfFault(FaultSite::TspTransform);
  return PredecessorLists(Dtsp, K);
}

/// Shared state for one solver invocation.
struct Solver {
  const DirectedTsp &Dtsp;
  const IteratedOptOptions &Options;
  PredecessorLists Candidates;
  LocalSearch Search;

  Solver(const DirectedTsp &Dtsp, const IteratedOptOptions &Options)
      : Dtsp(Dtsp), Options(Options),
        Candidates(buildCandidates(Dtsp, Options.NeighborListSize)),
        Search(Dtsp, Candidates) {}

  /// Batches the solver's inner-loop metrics into two counter
  /// publications per run (its destructor), so tracing costs the hot
  /// loop two additions instead of two registry locks per iteration.
  /// Flushing from a destructor also keeps budget-tripped runs counted.
  struct RunCounters {
    uint64_t Iterations = 0;
    uint64_t Kicks = 0;
    ~RunCounters() {
      if (Iterations)
        scopeCounterAdd("solver.iterations", Iterations);
      if (Kicks)
        scopeCounterAdd("solver.kicks", Kicks);
    }
  };

  /// One iterated-3-Opt run from the given start tour.
  std::pair<std::vector<City>, int64_t> run(std::vector<City> Start,
                                            Rng &Rng) {
    ScopedSpan RunSpan("solver.run", SpanCat::Solver);
    RunCounters Counters;
    // Local search returns tours rotated to start at city 0, which the
    // double-bridge cut points depend on.
    std::vector<City> Best = std::move(Start);
    int64_t BestCost = Search.run(Best);
    size_t Iterations = std::min<size_t>(
        MaxIterationsPerRun,
        std::max<size_t>(Options.MinIterationsPerRun,
                         static_cast<size_t>(
                             Options.IterationsFactor *
                             static_cast<double>(Dtsp.numCities()))));
    std::vector<City> Candidate, Touched;
    for (size_t Iter = 0; Iter != Iterations; ++Iter) {
      if (Options.Budget)
        Options.Budget->check("iterated 3-Opt");
      ++Counters.Iterations;
      Candidate = Best;
      doubleBridge(Candidate, Rng, &Touched);
      if (!Touched.empty())
        ++Counters.Kicks;
      int64_t Cost =
          Search.run(Candidate, Touched.empty() ? nullptr : &Touched);
      if (Cost < BestCost) {
        std::swap(Best, Candidate);
        BestCost = Cost;
      }
    }
    return {std::move(Best), BestCost};
  }
};

} // namespace

DtspSolution balign::solveDirectedTsp(const DirectedTsp &Dtsp,
                                      const IteratedOptOptions &Options) {
  // balign-shield fault site: any solver failure (and, via Budget below,
  // any deadline expiry) surfaces here for the pipeline to isolate.
  FaultInjector::instance().throwIfFault(FaultSite::TspSolve);
  size_t N = Dtsp.numCities();
  DtspSolution Solution;
  // Degenerate instances solve trivially and never consult the budget:
  // an empty instance has the empty tour, and for N <= 3 all (or both)
  // cyclic orders are enumerated directly.
  if (N == 0)
    return Solution;
  if (N <= 3) {
    // All cyclic orders of <= 3 cities are equivalent up to rotation for
    // a directed cycle only when N <= 2; for N == 3 compare both orders.
    std::vector<City> Tour = canonicalTour(N);
    int64_t Cost = Dtsp.tourCost(Tour);
    if (N == 3) {
      std::vector<City> Alt = {0, 2, 1};
      int64_t AltCost = Dtsp.tourCost(Alt);
      if (AltCost < Cost) {
        Tour = Alt;
        Cost = AltCost;
      }
    }
    Solution.Tour = std::move(Tour);
    Solution.Cost = Cost;
    Solution.NumRuns = 1;
    Solution.RunsFindingBest = 1;
    return Solution;
  }

  Rng Root(Options.Seed);
  Solver S(Dtsp, Options);

  std::vector<int64_t> RunCosts;
  int64_t BestCost = 0;
  std::vector<City> BestTour;

  auto doRun = [&](std::vector<City> Start) {
    Rng RunRng = Root.fork();
    auto [Tour, Cost] = S.run(std::move(Start), RunRng);
    RunCosts.push_back(Cost);
    if (BestTour.empty() || Cost < BestCost) {
      BestTour = std::move(Tour);
      BestCost = Cost;
    }
  };

  // The canonical (compiler-order) start runs first so that on
  // all-ties instances — e.g. procedures whose profile is almost empty —
  // the original order wins and the layout stays put.
  if (Options.CanonicalStart)
    doRun(canonicalTour(N));
  for (unsigned I = 0; I != Options.GreedyStarts; ++I) {
    Rng ConstructRng = Root.fork();
    doRun(greedyEdgeTour(Dtsp, ConstructRng));
  }
  for (unsigned I = 0; I != Options.NearestNeighborStarts; ++I) {
    Rng ConstructRng = Root.fork();
    doRun(nearestNeighborTour(Dtsp, ConstructRng));
  }

  assert(!RunCosts.empty() && "solver performed no runs");
  scopeCounterAdd("solver.runs", RunCosts.size());
  Solution.Tour = std::move(BestTour);
  Solution.Cost = BestCost;
  Solution.NumRuns = static_cast<unsigned>(RunCosts.size());
  for (int64_t Cost : RunCosts)
    if (Cost == BestCost)
      ++Solution.RunsFindingBest;
  return Solution;
}
