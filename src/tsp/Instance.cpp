//===- tsp/Instance.cpp ----------------------------------------------------===//

#include "tsp/Instance.h"

using namespace balign;

int64_t DirectedTsp::tourCost(const std::vector<City> &Tour) const {
  assert(Tour.size() == N && "tour must visit every city");
  int64_t Sum = 0;
  for (size_t I = 0; I != Tour.size(); ++I)
    Sum += cost(Tour[I], Tour[(I + 1) % Tour.size()]);
  return Sum;
}

std::optional<int64_t> DirectedTsp::totalAbsCost() const {
  int64_t Sum = 0;
  for (City From = 0; From != N; ++From)
    for (City To = 0; To != N; ++To)
      if (From != To) {
        int64_t C = cost(From, To);
        if (C == INT64_MIN ||
            __builtin_add_overflow(Sum, C < 0 ? -C : C, &Sum))
          return std::nullopt;
      }
  return Sum;
}

BigMConstants balign::bigMConstants(const DirectedTsp &Dtsp) {
  std::optional<int64_t> Total = Dtsp.totalAbsCost();
  BigMConstants K;
  int64_t Span;
  if (!Total || __builtin_add_overflow(*Total, 1, &K.LockBonus) ||
      __builtin_mul_overflow(static_cast<int64_t>(Dtsp.numCities() + 1),
                             K.LockBonus, &Span))
    return BigMConstants();
  K.SelfLoopCost = 2 * *Total + 1;
  K.Fits = true;
  return K;
}

bool balign::isValidTour(const std::vector<City> &Tour, size_t N) {
  if (Tour.size() != N)
    return false;
  std::vector<bool> Seen(N, false);
  for (City C : Tour) {
    if (C >= N || Seen[C])
      return false;
    Seen[C] = true;
  }
  return true;
}
