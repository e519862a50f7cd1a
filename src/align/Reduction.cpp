//===- align/Reduction.cpp ----------------------------------------------------===//

#include "align/Reduction.h"

#include "objective/Penalty.h"

#include <algorithm>
#include <cassert>

using namespace balign;

AlignmentTsp balign::buildAlignmentTsp(const Procedure &Proc,
                                       const ProcedureProfile &Train,
                                       const MachineModel &Model) {
  size_t N = Proc.numBlocks();
  AlignmentTsp Atsp;
  Atsp.DummyCity = static_cast<City>(N);
  Atsp.Tsp = DirectedTsp(N + 1);

  // Real edge costs, including block -> dummy ("B ends the layout"),
  // which shares the neither-successor-follows formula via InvalidBlock.
  for (BlockId B = 0; B != N; ++B) {
    for (BlockId X = 0; X != N; ++X) {
      if (B == X)
        continue;
      Atsp.Tsp.setCost(B, X, static_cast<int64_t>(blockLayoutPenalty(
                                 Proc, Model, Train, Train, B, X)));
    }
    Atsp.Tsp.setCost(B, Atsp.DummyCity,
                     static_cast<int64_t>(blockLayoutPenalty(
                         Proc, Model, Train, Train, B, InvalidBlock)));
  }

  // Pin the entry block first: the dummy may only be left into the
  // entry. EntryPin exceeds any real layout's total penalty (the sum of
  // every block's worst-case edge cost).
  int64_t WorstTotal = 0;
  for (BlockId B = 0; B != N; ++B) {
    int64_t Worst = 0;
    for (City X = 0; X != N + 1; ++X)
      if (X != B)
        Worst = std::max(Worst, Atsp.Tsp.cost(B, X));
    WorstTotal += Worst;
  }
  Atsp.EntryPin = WorstTotal + 1;
  for (BlockId B = 0; B != N; ++B)
    Atsp.Tsp.setCost(Atsp.DummyCity, B,
                     B == Proc.entry() ? 0 : Atsp.EntryPin);
  return Atsp;
}

Layout balign::layoutFromTour(const Procedure &Proc,
                              const AlignmentTsp &Atsp,
                              const std::vector<City> &Tour) {
  assert(isValidTour(Tour, Atsp.Tsp.numCities()) && "invalid tour");
  size_t N = Atsp.numBlocks();
  assert(N == Proc.numBlocks() && "instance does not match procedure");

  // Rotate so the dummy leads; the walk is everything after it.
  size_t DummyPos = 0;
  while (Tour[DummyPos] != Atsp.DummyCity)
    ++DummyPos;
  Layout L;
  L.Order.reserve(N);
  for (size_t I = 1; I <= N; ++I)
    L.Order.push_back(static_cast<BlockId>(Tour[(DummyPos + I) % (N + 1)]));

  // Safety net for heuristic tours that paid the pin: hoist the entry.
  if (L.Order.front() != Proc.entry()) {
    auto It = std::find(L.Order.begin(), L.Order.end(), Proc.entry());
    assert(It != L.Order.end() && "entry missing from tour");
    std::rotate(L.Order.begin(), It, It + 1);
  }
  assert(L.isValid(Proc) && "tour produced an invalid layout");
  return L;
}
