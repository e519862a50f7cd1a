//===- tests/tsp_instance_test.cpp - Instance and transform tests -------------===//

#include "support/Random.h"
#include "tsp/Construct.h"
#include "tsp/Instance.h"
#include "tsp/Transform.h"

#include <gtest/gtest.h>

#include <limits>
#include <optional>

using namespace balign;

namespace {

DirectedTsp randomInstance(size_t N, uint64_t Seed, int64_t MaxCost = 100) {
  Rng R(Seed);
  DirectedTsp Dtsp(N);
  for (City I = 0; I != N; ++I)
    for (City J = 0; J != N; ++J)
      if (I != J)
        Dtsp.setCost(I, J, static_cast<int64_t>(R.nextBelow(MaxCost + 1)));
  return Dtsp;
}

} // namespace

TEST(InstanceTest, TourAndTotalAbsCosts) {
  DirectedTsp D(3);
  D.setCost(0, 1, 5);
  D.setCost(1, 2, 7);
  D.setCost(2, 0, 11);
  D.setCost(0, 2, 1);
  D.setCost(2, 1, 2);
  D.setCost(1, 0, 3);
  EXPECT_EQ(D.tourCost({0, 1, 2}), 5 + 7 + 11);
  EXPECT_EQ(D.tourCost({0, 2, 1}), 1 + 2 + 3);
  EXPECT_EQ(D.totalAbsCost().value(), 5 + 7 + 11 + 1 + 2 + 3);
}

TEST(InstanceTest, BigMConstantsAreOverflowChecked) {
  DirectedTsp D(3);
  D.setCost(0, 1, 5);
  D.setCost(1, 2, -7);
  D.setCost(2, 0, 11);
  BigMConstants K = bigMConstants(D);
  ASSERT_TRUE(K.Fits);
  EXPECT_EQ(K.LockBonus, 5 + 7 + 11 + 1);
  EXPECT_EQ(K.SelfLoopCost, 2 * (5 + 7 + 11) + 1);

  // The largest total that fits: (N + 1) * LockBonus == 4 * LockBonus.
  const int64_t Max = std::numeric_limits<int64_t>::max();
  int64_t Fits = Max / 4 - 1;
  D = DirectedTsp(3);
  D.setCost(0, 1, Fits);
  K = bigMConstants(D);
  ASSERT_TRUE(K.Fits);
  EXPECT_EQ(K.LockBonus, Fits + 1);
  EXPECT_EQ(K.SelfLoopCost, 2 * Fits + 1);
  D.setCost(0, 1, Fits + 1);
  EXPECT_FALSE(bigMConstants(D).Fits) << "4 * LockBonus overflows";

  // A total that itself overflows, and the one cost with no |cost|.
  D.setCost(0, 1, Max);
  EXPECT_EQ(D.totalAbsCost().value(), Max);
  D.setCost(1, 0, 1);
  EXPECT_FALSE(D.totalAbsCost().has_value());
  EXPECT_FALSE(bigMConstants(D).Fits);
  D = DirectedTsp(2);
  D.setCost(0, 1, std::numeric_limits<int64_t>::min());
  EXPECT_FALSE(D.totalAbsCost().has_value());
}

TEST(InstanceTest, ValidTourChecks) {
  EXPECT_TRUE(isValidTour({0, 2, 1}, 3));
  EXPECT_FALSE(isValidTour({0, 1}, 3));      // Too short.
  EXPECT_FALSE(isValidTour({0, 1, 1}, 3));   // Duplicate.
  EXPECT_FALSE(isValidTour({0, 1, 3}, 3));   // Out of range.
}

TEST(TransformTest, SymmetricCostEqualsDirectedMinusLocks) {
  DirectedTsp D = randomInstance(7, 101);
  SymmetricTransform T = transformToSymmetric(D);
  Rng R(55);
  for (int Trial = 0; Trial != 20; ++Trial) {
    std::vector<City> Tour = canonicalTour(7);
    // Random directed tour (city order shuffled).
    R.shuffle(Tour);
    std::vector<City> Sym = T.toSymmetricTour(Tour);
    EXPECT_TRUE(isValidTour(Sym, 14));
    EXPECT_EQ(T.toDirectedCost(T.tourCost(Sym)), D.tourCost(Tour));
  }
}

TEST(TransformTest, RoundTripPreservesTours) {
  DirectedTsp D = randomInstance(9, 202);
  SymmetricTransform T = transformToSymmetric(D);
  Rng R(77);
  for (int Trial = 0; Trial != 20; ++Trial) {
    std::vector<City> Tour = canonicalTour(9);
    R.shuffle(Tour);
    std::vector<City> Back = T.toDirectedTour(T.toSymmetricTour(Tour));
    // The directed tour is cyclic: rotate Back so it starts like Tour.
    size_t Offset = 0;
    while (Back[Offset] != Tour[0])
      ++Offset;
    for (size_t I = 0; I != Tour.size(); ++I)
      EXPECT_EQ(Back[(Offset + I) % Back.size()], Tour[I]);
  }
}

TEST(TransformTest, ReversedSymmetricTourStillCollapses) {
  DirectedTsp D = randomInstance(5, 33);
  SymmetricTransform T = transformToSymmetric(D);
  std::vector<City> Tour = {0, 3, 1, 4, 2};
  std::vector<City> Sym = T.toSymmetricTour(Tour);
  std::reverse(Sym.begin(), Sym.end());
  std::vector<City> Back = T.toDirectedTour(Sym);
  EXPECT_EQ(D.tourCost(Back), D.tourCost(Tour));
}

TEST(TransformTest, LockBonusDominatesRealCosts) {
  DirectedTsp D = randomInstance(6, 44);
  SymmetricTransform T = transformToSymmetric(D);
  ASSERT_EQ(T.numCities(), 12u);
  EXPECT_GT(T.LockBonus, D.totalAbsCost().value());
  // Every cell by the pair-locked rule, in both argument orders.
  for (City I = 0; I != 6; ++I) {
    for (City J = 0; J != 6; ++J) {
      City IOut = I + 6, JOut = J + 6;
      // The diagonal is unused and 0.
      if (I == J) {
        EXPECT_EQ(T.dist(I, I), 0);
        EXPECT_EQ(T.dist(IOut, IOut), 0);
        // Pair edges carry the lock bonus.
        EXPECT_EQ(T.dist(I, IOut), -T.LockBonus);
        EXPECT_EQ(T.dist(IOut, I), -T.LockBonus);
        continue;
      }
      // A real arc i -> j is the edge i_out - j_in.
      EXPECT_EQ(T.dist(IOut, J), D.cost(I, J)) << I << "->" << J;
      EXPECT_EQ(T.dist(J, IOut), D.cost(I, J)) << I << "->" << J;
      // In-in and out-out edges are forbidden.
      EXPECT_EQ(T.dist(I, J), T.LockBonus);
      EXPECT_EQ(T.dist(IOut, JOut), T.LockBonus);
    }
  }
}

TEST(ConstructTest, NearestNeighborProducesValidTours) {
  DirectedTsp D = randomInstance(20, 7);
  Rng R(8);
  for (int Trial = 0; Trial != 10; ++Trial)
    EXPECT_TRUE(isValidTour(nearestNeighborTour(D, R), 20));
}

TEST(ConstructTest, GreedyEdgeProducesValidTours) {
  DirectedTsp D = randomInstance(20, 9);
  Rng R(10);
  for (int Trial = 0; Trial != 10; ++Trial)
    EXPECT_TRUE(isValidTour(greedyEdgeTour(D, R), 20));
}

TEST(ConstructTest, HeuristicsBeatRandomOnAverage) {
  DirectedTsp D = randomInstance(30, 11);
  Rng R(12);
  std::vector<City> Random = canonicalTour(30);
  R.shuffle(Random);
  int64_t RandomCost = D.tourCost(Random);
  int64_t NnCost = D.tourCost(nearestNeighborTour(D, R, 1));
  int64_t GreedyCost = D.tourCost(greedyEdgeTour(D, R));
  EXPECT_LT(NnCost, RandomCost);
  EXPECT_LT(GreedyCost, RandomCost);
}

TEST(ConstructTest, TinyInstances) {
  DirectedTsp D = randomInstance(1, 1);
  Rng R(2);
  EXPECT_EQ(nearestNeighborTour(D, R), std::vector<City>{0});
  EXPECT_EQ(greedyEdgeTour(D, R), std::vector<City>{0});
  EXPECT_EQ(canonicalTour(3), (std::vector<City>{0, 1, 2}));
}
