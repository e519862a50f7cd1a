//===- align/Reduction.cpp ----------------------------------------------------===//

#include "align/Reduction.h"

#include "objective/Penalty.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <string>

using namespace balign;

AlignmentTsp balign::buildPinnedTsp(
    const Procedure &Proc,
    const std::function<uint64_t(BlockId B, BlockId X)> &Penalty) {
  size_t N = Proc.numBlocks();
  AlignmentTsp Atsp;
  Atsp.DummyCity = static_cast<City>(N);
  Atsp.Tsp = DirectedTsp(N + 1);

  // Real edge costs, including block -> dummy ("B ends the layout"),
  // which shares the neither-successor-follows formula via InvalidBlock.
  // A row is stored only once the running pin sum proves every cell in
  // it fits: each cell is at most its row's maximum.
  constexpr uint64_t MaxPin = std::numeric_limits<int64_t>::max() / 3;
  std::vector<uint64_t> Row(N + 1);
  uint64_t WorstTotal = 0;
  for (BlockId B = 0; B != N; ++B) {
    uint64_t Worst = 0;
    for (BlockId X = 0; X != N + 1; ++X)
      if (X != B) {
        Row[X] = Penalty(B, X == N ? InvalidBlock : X);
        Worst = std::max(Worst, Row[X]);
      }
    if (__builtin_add_overflow(WorstTotal, Worst, &WorstTotal) ||
        WorstTotal >= MaxPin)
      throw ResourceCapError(
          "DTSP entry pin exceeds " + std::to_string(MaxPin) +
          " (a third of the int64 range); the profile counts are too large");
    for (BlockId X = 0; X != N + 1; ++X)
      if (X != B)
        Atsp.Tsp.setCost(B, X, static_cast<int64_t>(Row[X]));
  }

  // Pin the entry block first: the dummy may only be left into the
  // entry. EntryPin exceeds any real layout's total penalty (the sum of
  // every block's worst-case edge cost).
  Atsp.EntryPin = static_cast<int64_t>(WorstTotal) + 1;
  for (BlockId B = 0; B != N; ++B)
    Atsp.Tsp.setCost(Atsp.DummyCity, B,
                     B == Proc.entry() ? 0 : Atsp.EntryPin);
  return Atsp;
}

AlignmentTsp balign::buildAlignmentTsp(const Procedure &Proc,
                                       const ProcedureProfile &Train,
                                       const MachineModel &Model) {
  return buildPinnedTsp(Proc, [&](BlockId B, BlockId X) {
    return blockLayoutPenalty(Proc, Model, Train, Train, B, X);
  });
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
