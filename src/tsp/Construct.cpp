//===- tsp/Construct.cpp ----------------------------------------------------===//

#include "tsp/Construct.h"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <tuple>

using namespace balign;

std::vector<City> balign::nearestNeighborTour(const DirectedTsp &Dtsp,
                                              Rng &Rng,
                                              unsigned CandidateWindow) {
  size_t N = Dtsp.numCities();
  assert(N >= 1 && "empty instance");
  std::vector<City> Tour;
  Tour.reserve(N);
  std::vector<City> Unvisited(N); // In index order.
  std::iota(Unvisited.begin(), Unvisited.end(), 0);

  City Current = static_cast<City>(Rng.nextIndex(N));
  Tour.push_back(Current);
  Unvisited.erase(Unvisited.begin() + Current);

  // The best `CandidateWindow` unvisited continuations as (cost, city),
  // ascending by (cost, index): scanning in index order puts a tie after
  // its equals.
  std::vector<std::pair<int64_t, City>> Best;
  while (!Unvisited.empty()) {
    size_t Window = std::min<size_t>(std::max(1u, CandidateWindow),
                                     Unvisited.size());
    Best.clear();
    for (City Next : Unvisited) {
      int64_t Cost = Dtsp.cost(Current, Next);
      if (Best.size() == Window && Cost >= Best.back().first)
        continue;
      auto At = std::upper_bound(
          Best.begin(), Best.end(), Cost,
          [](int64_t C, const std::pair<int64_t, City> &E) {
            return C < E.first;
          });
      Best.insert(At, {Cost, Next});
      if (Best.size() > Window)
        Best.pop_back();
    }
    Current = Best[Rng.nextIndex(Window)].second;
    Tour.push_back(Current);
    Unvisited.erase(
        std::lower_bound(Unvisited.begin(), Unvisited.end(), Current));
  }
  return Tour;
}

namespace {

/// An arc candidate for greedy-edge construction, ordered by cost, then
/// by a random jitter, then by its ends, so the order is total.
struct Arc {
  int64_t Cost;
  uint64_t Jitter; // Randomized tie-break.
  City From;
  City To;

  bool operator<(const Arc &Other) const {
    return std::tie(Cost, Jitter, From, To) <
           std::tie(Other.Cost, Other.Jitter, Other.From, Other.To);
  }
};

} // namespace

std::vector<City> balign::greedyEdgeTour(const DirectedTsp &Dtsp, Rng &Rng) {
  size_t N = Dtsp.numCities();
  assert(N >= 1 && "empty instance");
  if (N == 1)
    return {0};

  // Every jitter is drawn, in (From, To) order, whatever is accepted:
  // callers sharing the stream see the same state afterwards.
  std::vector<Arc> Arcs;
  Arcs.reserve(N * (N - 1));
  for (City From = 0; From != N; ++From)
    for (City To = 0; To != N; ++To)
      if (From != To)
        Arcs.push_back({Dtsp.cost(From, To), Rng.next(), From, To});

  std::vector<City> Succ(N, InvalidCity);
  std::vector<City> Pred(N, InvalidCity);
  // Fragment tracking via union-find so accepting an arc never closes a
  // premature cycle (only the final arc may close the full tour).
  std::vector<City> Leader(N);
  std::iota(Leader.begin(), Leader.end(), 0);
  auto Find = [&](City X) {
    while (Leader[X] != X) {
      Leader[X] = Leader[Leader[X]];
      X = Leader[X];
    }
    return X;
  };
  // All three conditions only ever become true, so a rejected arc stays
  // rejected.
  auto Rejected = [&](const Arc &A) {
    return Succ[A.From] != InvalidCity || Pred[A.To] != InvalidCity ||
           Find(A.From) == Find(A.To);
  };

  // Meet the arcs in order, one sorted chunk of the cheapest live arcs at
  // a time, and drop the rejected rest after each chunk: the live arcs
  // come in the order a full sort gives them, so the same are accepted.
  size_t Accepted = 0;
  auto Live = Arcs.begin(), End = Arcs.end();
  while (Accepted != N - 1) {
    assert(Live != End && "an unaccepted fragment link is always live");
    auto ChunkEnd =
        Live + std::min(static_cast<std::ptrdiff_t>(2 * N), End - Live);
    std::nth_element(Live, ChunkEnd, End);
    std::sort(Live, ChunkEnd);
    for (; Live != ChunkEnd && Accepted != N - 1; ++Live) {
      if (Rejected(*Live))
        continue;
      Succ[Live->From] = Live->To;
      Pred[Live->To] = Live->From;
      Leader[Find(Live->From)] = Find(Live->To);
      ++Accepted;
    }
    End = std::remove_if(Live, End, Rejected);
  }

  // Stitch remaining fragments: follow each path from its head; append
  // heads in index order (the arcs connecting fragments are whatever the
  // costs dictate once local search runs).
  std::vector<City> Tour;
  Tour.reserve(N);
  for (City Head = 0; Head != N; ++Head) {
    if (Pred[Head] != InvalidCity)
      continue;
    for (City Walk = Head; Walk != InvalidCity; Walk = Succ[Walk])
      Tour.push_back(Walk);
  }
  assert(isValidTour(Tour, N) && "greedy construction broke the tour");
  return Tour;
}

std::vector<City> balign::canonicalTour(size_t N) {
  std::vector<City> Tour(N);
  std::iota(Tour.begin(), Tour.end(), 0);
  return Tour;
}
