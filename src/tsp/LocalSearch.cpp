//===- tsp/LocalSearch.cpp --------------------------------------------------===//

#include "tsp/LocalSearch.h"

#include <algorithm>
#include <cassert>
#include <limits>

using namespace balign;

PredecessorLists::PredecessorLists(const DirectedTsp &Dtsp, unsigned K) {
  size_t N = Dtsp.numCities();
  Width = K == 0 || N == 0 ? 0 : std::min<size_t>(K - 1, N - 1);
  Lists.resize(N * Width);
  MinOut.resize(N);
  std::vector<Entry> Others;
  Others.reserve(N);
  for (City A = 0; A != N; ++A) {
    Others.clear();
    for (City J = 0; J != N; ++J)
      if (J != A)
        Others.push_back({Dtsp.cost(J, A), J});
    std::partial_sort(Others.begin(), Others.begin() + Width, Others.end(),
                      [](const Entry &X, const Entry &Y) {
                        return X.CostToA != Y.CostToA ? X.CostToA < Y.CostToA
                                                      : X.J < Y.J;
                      });
    std::copy_n(Others.begin(), Width, Lists.begin() + A * Width);
    int64_t Min = std::numeric_limits<int64_t>::max();
    for (City X = 0; X != N; ++X)
      if (X != A)
        Min = std::min(Min, Dtsp.cost(A, X));
    MinOut[A] = Min;
  }
}

LocalSearch::LocalSearch(const DirectedTsp &Dtsp,
                         const PredecessorLists &Candidates)
    : Dtsp(Dtsp), Candidates(Candidates), Succ(Dtsp.numCities()),
      Pred(Dtsp.numCities()), SuccCost(Dtsp.numCities()),
      InQueue(Dtsp.numCities(), 0), InSegment(Dtsp.numCities(), 0),
      Terms(Candidates.width()) {
  Queue.reserve(Dtsp.numCities());
}

int64_t LocalSearch::run(std::vector<City> &Tour,
                         const std::vector<City> *Seeds) {
  assert(isValidTour(Tour, Dtsp.numCities()) && "invalid input tour");
  size_t N = Tour.size();
  for (size_t P = 0; P != N; ++P) {
    City From = Tour[P], Next = Tour[P + 1 == N ? 0 : P + 1];
    Succ[From] = Next;
    Pred[Next] = From;
    SuccCost[From] = Dtsp.cost(From, Next);
  }
  // Below three cities every insertion reproduces the same cycle.
  if (N >= 3) {
    if (Seeds) {
      for (City C : *Seeds)
        pushActive(C);
    } else {
      for (City C = 0; C != N; ++C)
        pushActive(C);
    }
    while (!Queue.empty()) {
      City C = Queue.back();
      Queue.pop_back();
      InQueue[C] = 0;
      // Retry the same city until it yields nothing; each success may
      // enable further moves around it.
      while (improveCity(C)) {
      }
    }
  }

  // Write the tour out starting at city 0; its arcs' costs are SuccCost.
  int64_t Cost = 0;
  City C = 0;
  for (City &Slot : Tour) {
    Slot = C;
    Cost += SuccCost[C];
    C = Succ[C];
  }
  assert(isValidTour(Tour, N) && "local search broke the tour");
  assert(Cost == Dtsp.tourCost(Tour) && "stale arc costs");
  return Cost;
}

void LocalSearch::pushActive(City C) {
  if (InQueue[C])
    return;
  InQueue[C] = 1;
  Queue.push_back(C);
}

/// Applies the first improving move of a segment A..S, shortest first,
/// to sit between a candidate predecessor C of A and C's successor D.
/// A length whose lower bound (LocalSearch.h) is >= 0 is skipped.
bool LocalSearch::improveCity(City A) {
  std::span<const PredecessorLists::Entry> List = Candidates.candidates(A);
  if (List.empty())
    return false;
  int64_t MinB = std::numeric_limits<int64_t>::max();
  for (size_t I = 0; I != List.size(); ++I) {
    Term &T = Terms[I];
    T.C = List[I].J;
    T.D = Succ[T.C];
    T.B = List[I].CostToA - SuccCost[T.C];
    MinB = std::min(MinB, T.B);
  }

  unsigned MaxLen = std::min<unsigned>(
      MaxSegment, static_cast<unsigned>(Succ.size() / 2));
  City P = Pred[A];
  City S = A;
  for (unsigned Len = 1; Len <= MaxLen; S = Succ[S], ++Len) {
    InSegment[S] = 1;
    City Next = Succ[S];
    int64_t PNext = Dtsp.cost(P, Next);
    int64_t Gain = SuccCost[P] + SuccCost[S] - PNext;
    // Every delta at this length is at least MinB + m_s - Gain; a bound
    // that overflows prunes nothing.
    int64_t Bound;
    if (!__builtin_add_overflow(MinB, Candidates.minOutCost(S), &Bound) &&
        !__builtin_sub_overflow(Bound, Gain, &Bound) && Bound >= 0)
      continue;
    for (size_t I = 0; I != List.size(); ++I) {
      const Term &T = Terms[I];
      if (T.C == P || InSegment[T.C])
        continue;
      int64_t SD = Dtsp.cost(S, T.D);
      if (T.B + SD - Gain >= 0)
        continue;
      unmark(A, Len);
      Succ[P] = Next;
      Pred[Next] = P;
      SuccCost[P] = PNext;
      Succ[T.C] = A;
      Pred[A] = T.C;
      SuccCost[T.C] = List[I].CostToA;
      Succ[S] = T.D;
      Pred[T.D] = S;
      SuccCost[S] = SD;
      pushActive(A);
      pushActive(Next);
      pushActive(T.D);
      return true;
    }
  }
  unmark(A, MaxLen);
  return false;
}

void LocalSearch::unmark(City A, unsigned Len) {
  for (City S = A; Len != 0; S = Succ[S], --Len)
    InSegment[S] = 0;
}
