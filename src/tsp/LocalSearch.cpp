//===- tsp/LocalSearch.cpp --------------------------------------------------===//

#include "tsp/LocalSearch.h"

#include <algorithm>
#include <cassert>

using namespace balign;

PredecessorLists::PredecessorLists(const DirectedTsp &Dtsp, unsigned K) {
  size_t N = Dtsp.numCities();
  Width = K == 0 || N == 0 ? 0 : std::min<size_t>(K - 1, N - 1);
  Lists.resize(N * Width);
  std::vector<City> Others;
  Others.reserve(N);
  for (City A = 0; A != N; ++A) {
    Others.clear();
    for (City J = 0; J != N; ++J)
      if (J != A)
        Others.push_back(J);
    std::partial_sort(Others.begin(), Others.begin() + Width, Others.end(),
                      [&](City X, City Y) {
                        int64_t CX = Dtsp.cost(X, A);
                        int64_t CY = Dtsp.cost(Y, A);
                        return CX != CY ? CX < CY : X < Y;
                      });
    std::copy_n(Others.begin(), Width, Lists.begin() + A * Width);
  }
}

namespace {

/// Doubly linked tour with a LIFO don't-look queue.
class TourState {
public:
  TourState(const DirectedTsp &Dtsp, const PredecessorLists &Candidates,
            const std::vector<City> &Tour, const std::vector<City> *Seeds)
      : Dtsp(Dtsp), Candidates(Candidates), Succ(Tour.size()),
        Pred(Tour.size()), InQueue(Tour.size(), false) {
    for (size_t P = 0; P != Tour.size(); ++P) {
      City Next = Tour[(P + 1) % Tour.size()];
      Succ[Tour[P]] = Next;
      Pred[Next] = Tour[P];
    }
    Queue.reserve(Tour.size());
    if (Seeds) {
      for (City C : *Seeds)
        pushActive(C);
    } else {
      for (City C = 0; C != Tour.size(); ++C)
        pushActive(C);
    }
  }

  /// Runs to exhaustion.
  void run() {
    while (!Queue.empty()) {
      City C = Queue.back();
      Queue.pop_back();
      InQueue[C] = false;
      // Retry the same city until it yields nothing; each success may
      // enable further moves around it.
      while (improveCity(C)) {
      }
    }
  }

  /// Writes the tour out starting at city 0.
  void writeTour(std::vector<City> &Tour) const {
    City C = 0;
    for (City &Slot : Tour) {
      Slot = C;
      C = Succ[C];
    }
  }

private:
  const DirectedTsp &Dtsp;
  const PredecessorLists &Candidates;
  std::vector<City> Succ, Pred;
  std::vector<City> Queue;
  std::vector<bool> InQueue;

  /// Longest segment moved. The symmetric search moved up to 12 cities,
  /// i.e. 6 locked pairs: runs of basic blocks that want to move as
  /// units.
  static constexpr unsigned MaxSegment = 6;

  void pushActive(City C) {
    if (InQueue[C])
      return;
    InQueue[C] = true;
    Queue.push_back(C);
  }

  /// Applies the first improving move of a segment A..S, shortest first,
  /// to sit between a candidate predecessor C of A and C's successor D.
  bool improveCity(City A) {
    City Seg[MaxSegment];
    unsigned MaxLen = std::min<unsigned>(
        MaxSegment, static_cast<unsigned>(Succ.size() / 2));
    City P = Pred[A];
    City S = A;
    for (unsigned Len = 1; Len <= MaxLen; S = Succ[S], ++Len) {
      Seg[Len - 1] = S;
      City Next = Succ[S];
      int64_t RemoveGain =
          Dtsp.cost(P, A) + Dtsp.cost(S, Next) - Dtsp.cost(P, Next);
      for (City C : Candidates.candidates(A)) {
        if (C == P || std::find(Seg, Seg + Len, C) != Seg + Len)
          continue;
        City D = Succ[C];
        int64_t Delta = Dtsp.cost(C, A) + Dtsp.cost(S, D) -
                        Dtsp.cost(C, D) - RemoveGain;
        if (Delta >= 0)
          continue;
        Succ[P] = Next;
        Pred[Next] = P;
        Succ[C] = A;
        Pred[A] = C;
        Succ[S] = D;
        Pred[D] = S;
        pushActive(A);
        pushActive(Next);
        pushActive(D);
        return true;
      }
    }
    return false;
  }
};

} // namespace

int64_t balign::localSearchDirected(const DirectedTsp &Dtsp,
                                    const PredecessorLists &Candidates,
                                    std::vector<City> &Tour,
                                    const std::vector<City> *Seeds) {
  assert(isValidTour(Tour, Dtsp.numCities()) && "invalid input tour");
  TourState State(Dtsp, Candidates, Tour, Seeds);
  // Below three cities every insertion reproduces the same cycle.
  if (Tour.size() >= 3)
    State.run();
  State.writeTour(Tour);
  assert(isValidTour(Tour, Dtsp.numCities()) && "local search broke the tour");
  return Dtsp.tourCost(Tour);
}
