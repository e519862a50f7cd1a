//===- tsp/Transform.cpp ---------------------------------------------------===//

#include "tsp/Transform.h"

#include "robust/FaultInjector.h"
#include "trace/Scope.h"

#include <cassert>

using namespace balign;

SymmetricTransform balign::transformToSymmetric(const DirectedTsp &Dtsp) {
  ScopedSpan Span("tsp.transform", SpanCat::Solver);
  // balign-shield fault site: stands in for any failure while preparing
  // the symmetric instance (e.g. allocation failure on a pathological
  // procedure).
  FaultInjector::instance().throwIfFault(FaultSite::TspTransform);
  assert(Dtsp.numCities() >= 2 && "transformation needs at least two cities");
  BigMConstants BigM = bigMConstants(Dtsp);
  assert(BigM.Fits && "the lock bonus overflows int64_t");
  SymmetricTransform Result;
  Result.Dtsp = &Dtsp;
  Result.DirectedN = Dtsp.numCities();
  Result.LockBonus = BigM.LockBonus;
  return Result;
}

int64_t SymmetricTransform::tourCost(const std::vector<City> &Tour) const {
  assert(Tour.size() == numCities() && "tour must visit every city");
  int64_t Sum = 0;
  for (size_t I = 0; I != Tour.size(); ++I)
    Sum += dist(Tour[I], Tour[(I + 1) % Tour.size()]);
  return Sum;
}

std::vector<City> SymmetricTransform::toSymmetricTour(
    const std::vector<City> &Directed) const {
  assert(isValidTour(Directed, DirectedN) && "invalid directed tour");
  std::vector<City> Sym;
  Sym.reserve(2 * Directed.size());
  for (City I : Directed) {
    Sym.push_back(I);                                    // i_in
    Sym.push_back(I + static_cast<City>(DirectedN));     // i_out
  }
  return Sym;
}

std::vector<City> SymmetricTransform::toDirectedTour(
    const std::vector<City> &Symmetric) const {
  assert(isValidTour(Symmetric, 2 * DirectedN) && "invalid symmetric tour");
  size_t N = DirectedN;
  size_t Size = Symmetric.size();
  std::vector<City> Directed;
  Directed.reserve(N);

  std::vector<size_t> Pos(Size);
  for (size_t P = 0; P != Size; ++P)
    Pos[Symmetric[P]] = P;

  // Walk the cycle in the direction where each in-city is immediately
  // followed by its own out-city; probe the orientation at city 0.
  size_t InPos = Pos[0];
  size_t OutPos = Pos[N]; // City 0's out twin.
  size_t Dir;
  if ((InPos + 1) % Size == OutPos) {
    Dir = 1;
  } else {
    assert((OutPos + 1) % Size == InPos &&
           "symmetric tour does not keep the pair edge of city 0");
    Dir = Size - 1; // Step backwards modulo Size.
  }
  size_t P = InPos;
  for (size_t Step = 0; Step != N; ++Step) {
    City InCity = Symmetric[P];
    assert(InCity < N && "expected an in-city at this parity");
    [[maybe_unused]] City OutCity = Symmetric[(P + Dir) % Size];
    assert(OutCity == InCity + N && "symmetric tour breaks a pair edge");
    Directed.push_back(InCity);
    P = (P + 2 * Dir) % Size;
  }
  assert(isValidTour(Directed, N) && "collapse produced an invalid tour");
  return Directed;
}
