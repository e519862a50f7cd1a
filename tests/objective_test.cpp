//===- tests/objective_test.cpp - ObjectiveFn oracle tests ----------------===//
//
// Brute-force validation of the objective subsystem: every layout of
// small random CFGs is scored by ExtTspObjective and compared against
// an independent naive reimplementation of the Ext-TSP definition;
// FallthroughObjective must reproduce -evaluateLayout exactly; and
// shrinking the windows to one byte must degenerate the Ext-TSP score
// to the weighted-adjacency (fall-through) count, the algebraic bridge
// between the two objectives that DESIGN.md sketches.
//
//===--------------------------------------------------------------------===//

#include "objective/Objective.h"

#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

using namespace balign;

namespace {

struct SmallCase {
  Procedure Proc{"small"};
  ProcedureProfile Profile;
};

/// Collects generated procedures with at most \p MaxBlocks blocks (so
/// full layout enumeration stays cheap), each with a seeded profile.
std::vector<SmallCase> smallCases(size_t Want, size_t MaxBlocks = 8) {
  std::vector<SmallCase> Cases;
  for (uint64_t Seed = 1; Cases.size() < Want && Seed < 500; ++Seed) {
    Rng R(Seed);
    GenParams Params;
    Params.TargetBranchSites = 2;
    Params.MaxDepth = 2;
    Procedure Proc = generateProcedure("s" + std::to_string(Seed), Params, R)
                         .Proc;
    if (Proc.numBlocks() < 3 || Proc.numBlocks() > MaxBlocks)
      continue;
    Rng TraceRng(Seed * 977);
    SmallCase C;
    C.Profile = walkProfile(Proc, BranchBehavior::uniform(Proc), TraceRng, 400);
    C.Proc = std::move(Proc);
    Cases.push_back(std::move(C));
  }
  return Cases;
}

/// Independent Ext-TSP reimplementation, structured nothing like the
/// production one: addresses are recomputed from scratch per query by
/// walking the order, and every CFG edge is visited from the edge side
/// rather than the layout side.
double naiveExtTsp(const Procedure &Proc, const ProcedureProfile &Profile,
                   const std::vector<BlockId> &Order,
                   const MachineModel &Model) {
  auto addressOf = [&](BlockId Wanted) -> int64_t {
    int64_t Addr = 0;
    for (BlockId Id : Order) {
      if (Id == Wanted)
        return Addr;
      Addr += static_cast<int64_t>(Proc.block(Id).InstrCount) *
              static_cast<int64_t>(BytesPerInstr);
    }
    return -1;
  };
  double Total = 0.0;
  for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
    int64_t Src = addressOf(B);
    if (Src < 0)
      continue;
    int64_t SrcEnd = Src + static_cast<int64_t>(Proc.block(B).InstrCount) *
                               static_cast<int64_t>(BytesPerInstr);
    const std::vector<BlockId> &Succs = Proc.successors(B);
    for (size_t S = 0; S != Succs.size(); ++S) {
      int64_t Dst = addressOf(Succs[S]);
      if (Dst < 0)
        continue;
      double Count = static_cast<double>(Profile.EdgeCounts[B][S]);
      if (Count == 0.0)
        continue;
      if (Dst == SrcEnd) {
        Total += Count;
      } else if (Dst > SrcEnd) {
        double Dist = static_cast<double>(Dst - SrcEnd);
        if (Dist < static_cast<double>(Model.ExtTspForwardWindow))
          Total += Count * Model.ExtTspForwardWeight *
                   (1.0 - Dist /
                              static_cast<double>(Model.ExtTspForwardWindow));
      } else {
        double Dist = static_cast<double>(SrcEnd - Dst);
        if (Dist <= static_cast<double>(Model.ExtTspBackwardWindow))
          Total += Count * Model.ExtTspBackwardWeight *
                   (1.0 - Dist /
                              static_cast<double>(Model.ExtTspBackwardWindow));
      }
    }
  }
  return Total;
}

/// Sum of edge counts over layout-adjacent (fall-through) pairs — what
/// the Ext-TSP score must collapse to when both windows shrink to one
/// byte (no block is shorter than BytesPerInstr, so nothing but exact
/// adjacency can ever land inside such a window).
double weightedAdjacency(const Procedure &Proc,
                         const ProcedureProfile &Profile,
                         const std::vector<BlockId> &Order) {
  double Total = 0.0;
  for (size_t P = 0; P + 1 < Order.size(); ++P) {
    const std::vector<BlockId> &Succs = Proc.successors(Order[P]);
    for (size_t S = 0; S != Succs.size(); ++S)
      if (Succs[S] == Order[P + 1])
        Total += static_cast<double>(Profile.EdgeCounts[Order[P]][S]);
  }
  return Total;
}

/// Calls \p Fn with every permutation of [0, N) that keeps block 0
/// (the entry) first.
template <typename Fn>
void forEachEntryFixedLayout(size_t N, Fn &&Body) {
  std::vector<BlockId> Order(N);
  std::iota(Order.begin(), Order.end(), 0);
  do {
    Body(Order);
  } while (std::next_permutation(Order.begin() + 1, Order.end()));
}

Layout layoutOf(const std::vector<BlockId> &Order) {
  Layout L;
  L.Order = Order;
  return L;
}

} // namespace

//===--------------------------------------------------------------------===//
// Brute-force oracle: every layout, production vs naive
//===--------------------------------------------------------------------===//

TEST(ObjectiveTest, ExtTspMatchesNaiveOracleOnAllLayouts) {
  std::vector<SmallCase> Cases = smallCases(6);
  ASSERT_GE(Cases.size(), 4u);
  MachineModel Model = MachineModel::alpha21164();
  // Small windows so both the in-window and out-of-window arms of the
  // scoring function are exercised by these tiny procedures.
  Model.ExtTspForwardWindow = 64;
  Model.ExtTspBackwardWindow = 40;
  ExtTspObjective Obj(Model);
  size_t Checked = 0;
  for (const SmallCase &C : Cases) {
    forEachEntryFixedLayout(C.Proc.numBlocks(), [&](
                                const std::vector<BlockId> &Order) {
      double Got = Obj.scoreLayout(C.Proc, C.Profile, layoutOf(Order));
      double Want = naiveExtTsp(C.Proc, C.Profile, Order, Model);
      ASSERT_DOUBLE_EQ(Got, Want) << C.Proc.getName();
      ++Checked;
    });
  }
  EXPECT_GT(Checked, 100u);
}

TEST(ObjectiveTest, ExtTspDefaultWindowsMatchNaiveOracle) {
  std::vector<SmallCase> Cases = smallCases(4);
  ASSERT_GE(Cases.size(), 3u);
  MachineModel Model = MachineModel::alpha21164();
  ExtTspObjective Obj(Model);
  for (const SmallCase &C : Cases)
    forEachEntryFixedLayout(C.Proc.numBlocks(), [&](
                                const std::vector<BlockId> &Order) {
      ASSERT_DOUBLE_EQ(Obj.scoreLayout(C.Proc, C.Profile, layoutOf(Order)),
                       naiveExtTsp(C.Proc, C.Profile, Order, Model));
    });
}

//===--------------------------------------------------------------------===//
// FallthroughObjective is exactly -evaluateLayout
//===--------------------------------------------------------------------===//

TEST(ObjectiveTest, FallthroughScoreIsNegatedPaperPenalty) {
  std::vector<SmallCase> Cases = smallCases(5);
  ASSERT_GE(Cases.size(), 4u);
  MachineModel Model = MachineModel::alpha21164();
  FallthroughObjective Obj(Model);
  for (const SmallCase &C : Cases)
    forEachEntryFixedLayout(C.Proc.numBlocks(), [&](
                                const std::vector<BlockId> &Order) {
      Layout L = layoutOf(Order);
      int64_t Penalty =
          evaluateLayout(C.Proc, L, Model, C.Profile, C.Profile);
      ASSERT_DOUBLE_EQ(Obj.scoreLayout(C.Proc, C.Profile, L),
                       -static_cast<double>(Penalty));
    });
}

//===--------------------------------------------------------------------===//
// One-byte windows degenerate Ext-TSP to weighted adjacency
//===--------------------------------------------------------------------===//

TEST(ObjectiveTest, UnitWindowDegeneratesToWeightedAdjacency) {
  std::vector<SmallCase> Cases = smallCases(5);
  ASSERT_GE(Cases.size(), 4u);
  // The degeneracy holds for *any* weights: with one-byte windows the
  // weighted terms can never fire (the nearest non-adjacent placement
  // is BytesPerInstr away), leaving only the count of fall-through
  // executions — i.e. the fall-through objective's maximization target.
  for (auto [Fwd, Bwd] : {std::pair<double, double>{1.0, 0.0},
                          std::pair<double, double>{0.1, 0.1},
                          std::pair<double, double>{7.5, 3.25}}) {
    MachineModel Model = MachineModel::alpha21164();
    Model.ExtTspForwardWindow = 1;
    Model.ExtTspBackwardWindow = 1;
    Model.ExtTspForwardWeight = Fwd;
    Model.ExtTspBackwardWeight = Bwd;
    ExtTspObjective Obj(Model);
    for (const SmallCase &C : Cases)
      forEachEntryFixedLayout(C.Proc.numBlocks(), [&](
                                  const std::vector<BlockId> &Order) {
        ASSERT_DOUBLE_EQ(Obj.scoreLayout(C.Proc, C.Profile, layoutOf(Order)),
                         weightedAdjacency(C.Proc, C.Profile, Order));
      });
  }
}

//===--------------------------------------------------------------------===//
// Partial-sequence scoring: partitions under-approximate the whole
//===--------------------------------------------------------------------===//

TEST(ObjectiveTest, ChainPartitionSumsNeverExceedFullLayoutScore) {
  std::vector<SmallCase> Cases = smallCases(5);
  ASSERT_GE(Cases.size(), 4u);
  MachineModel Model = MachineModel::alpha21164();
  ExtTspObjective Obj(Model);
  for (const SmallCase &C : Cases) {
    size_t N = C.Proc.numBlocks();
    std::vector<BlockId> Order(N);
    std::iota(Order.begin(), Order.end(), 0);
    double Full = Obj.scoreSequence(C.Proc, C.Profile, Order);
    for (size_t Cut = 1; Cut < N; ++Cut) {
      std::vector<BlockId> Head(Order.begin(), Order.begin() + Cut);
      std::vector<BlockId> Tail(Order.begin() + Cut, Order.end());
      double Split = Obj.scoreSequence(C.Proc, C.Profile, Head) +
                     Obj.scoreSequence(C.Proc, C.Profile, Tail);
      // Splitting can only drop cross-partition edge credit; each
      // chain's internal credit is positionally identical (scores
      // depend on intra-sequence distances only).
      EXPECT_LE(Split, Full + 1e-9) << C.Proc.getName() << " cut " << Cut;
    }
  }
}

//===--------------------------------------------------------------------===//
// Factory and naming
//===--------------------------------------------------------------------===//

TEST(ObjectiveTest, FactoryNamesAndParsingRoundTrip) {
  MachineModel Model = MachineModel::alpha21164();
  std::unique_ptr<ObjectiveFn> Fall =
      makeObjective(ObjectiveKind::Fallthrough, Model);
  std::unique_ptr<ObjectiveFn> Ext =
      makeObjective(ObjectiveKind::ExtTsp, Model);
  EXPECT_EQ(Fall->name(), "fallthrough");
  EXPECT_EQ(Ext->name(), "exttsp");

  ObjectiveKind Kind = ObjectiveKind::Fallthrough;
  EXPECT_TRUE(parseObjectiveKind("exttsp", Kind));
  EXPECT_EQ(Kind, ObjectiveKind::ExtTsp);
  EXPECT_TRUE(parseObjectiveKind("fallthrough", Kind));
  EXPECT_EQ(Kind, ObjectiveKind::Fallthrough);
  EXPECT_FALSE(parseObjectiveKind("tsp", Kind));
  EXPECT_FALSE(parseObjectiveKind("", Kind));
  EXPECT_EQ(Kind, ObjectiveKind::Fallthrough); // Untouched on failure.
}
