//===- tests/static_analysis_test.cpp - Oracle tests for src/static ------===//
//
// Cross-checks the production analyses (CHK dominators, natural loops,
// the ir's reachability and exit distances, flow reconstruction) against
// brute-force implementations on a few hundred generator CFGs, including
// defect-seeded ones with unreachable blocks and irreducible cycles.
//
//===--------------------------------------------------------------------===//

#include "profile/Trace.h"
#include "static/Dominators.h"
#include "static/FlowSolver.h"
#include "static/Loops.h"
#include "workloads/Generator.h"

#include "DefectSeeding.h"

#include "gtest/gtest.h"

#include <algorithm>
#include <set>
#include <vector>

using namespace balign;

namespace {

/// Forward BFS from \p Start, never entering \p Avoid. \p Start itself
/// is included (unless it equals Avoid). Avoid == InvalidBlock disables
/// the exclusion.
std::vector<bool> reachFromAvoiding(const Procedure &Proc, BlockId Start,
                                    BlockId Avoid) {
  std::vector<bool> Seen(Proc.numBlocks(), false);
  if (Start == Avoid)
    return Seen;
  std::vector<BlockId> Work{Start};
  Seen[Start] = true;
  while (!Work.empty()) {
    BlockId B = Work.back();
    Work.pop_back();
    for (BlockId S : Proc.successors(B))
      if (S != Avoid && !Seen[S]) {
        Seen[S] = true;
        Work.push_back(S);
      }
  }
  return Seen;
}

/// Brute-force dominance: D dominates W iff W is reachable from the
/// entry and every entry ->* W path passes through D (checked by
/// deleting D and re-running reachability).
class DomOracle {
public:
  explicit DomOracle(const Procedure &Proc) {
    FromEntry = reachFromAvoiding(Proc, Proc.entry(), InvalidBlock);
    Without.reserve(Proc.numBlocks());
    for (BlockId D = 0; D != Proc.numBlocks(); ++D)
      Without.push_back(D == Proc.entry()
                            ? std::vector<bool>(Proc.numBlocks(), false)
                            : reachFromAvoiding(Proc, Proc.entry(), D));
  }

  bool reachable(BlockId W) const { return FromEntry[W]; }

  bool dominates(BlockId D, BlockId W) const {
    if (!FromEntry[W])
      return false;
    return D == W || !Without[D][W];
  }

  unsigned numStrictDominators(BlockId W) const {
    unsigned N = 0;
    for (BlockId D = 0; D != Without.size(); ++D)
      if (D != W && dominates(D, W))
        ++N;
    return N;
  }

private:
  std::vector<bool> FromEntry;
  std::vector<std::vector<bool>> Without;
};

/// A deterministic corpus of generator CFGs with varied shapes; every
/// third procedure gets a structural defect seeded so the oracles also
/// cover unreachable blocks and multi-entry cycles.
std::vector<Procedure> buildCorpus(size_t Count) {
  std::vector<Procedure> Corpus;
  Rng Root(0xd0417a11ULL);
  for (size_t I = 0; I != Count; ++I) {
    GenParams Params;
    Params.TargetBranchSites = 2 + static_cast<unsigned>(I % 13);
    Params.LoopFraction = 0.15 + 0.05 * static_cast<double>(I % 10);
    Params.TopTestedLoopFraction = (I % 3) * 0.4;
    Params.MultiwayFraction = (I % 4) * 0.08;
    Params.EarlyReturnProb = (I % 5) * 0.07;
    Rng R = Root.fork();
    Procedure Proc =
        generateProcedure("oracle" + std::to_string(I), Params, R).Proc;
    if (I % 3 == 1) {
      ProcedureProfile Zero;
      Zero.BlockCounts.assign(Proc.numBlocks(), 0);
      Zero.EdgeCounts.resize(Proc.numBlocks());
      for (BlockId B = 0; B != Proc.numBlocks(); ++B)
        Zero.EdgeCounts[B].assign(Proc.successors(B).size(), 0);
      DefectKind Kind = I % 9 == 1 ? DefectKind::UnreachableHot
                        : I % 2 == 0 ? DefectKind::IrreducibleLoop
                                     : DefectKind::NoExitLoop;
      seedDefect(Kind, Proc, Zero, R);
    }
    Corpus.push_back(std::move(Proc));
  }
  return Corpus;
}

TEST(DominatorOracleTest, PairwiseDominanceMatchesBruteForce) {
  for (const Procedure &Proc : buildCorpus(120)) {
    DomOracle Oracle(Proc);
    DominatorTree Dom = DominatorTree::compute(Proc);
    for (BlockId A = 0; A != Proc.numBlocks(); ++A) {
      ASSERT_EQ(Dom.reachable(A), Oracle.reachable(A))
          << Proc.getName() << " block " << A;
      for (BlockId B = 0; B != Proc.numBlocks(); ++B)
        ASSERT_EQ(Dom.dominates(A, B), Oracle.dominates(A, B))
            << Proc.getName() << " " << A << " dom " << B;
    }
  }
}

TEST(DominatorOracleTest, TreeDepthCountsStrictDominators) {
  for (const Procedure &Proc : buildCorpus(80)) {
    DomOracle Oracle(Proc);
    DominatorTree Dom = DominatorTree::compute(Proc);
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      if (Dom.reachable(B)) {
        ASSERT_EQ(Dom.depth(B), Oracle.numStrictDominators(B))
            << Proc.getName() << " block " << B;
      }
    }
  }
}

TEST(DominatorOracleTest, ReversePostOrderCoversReachableBlocksOnce) {
  for (const Procedure &Proc : buildCorpus(80)) {
    DominatorTree Dom = DominatorTree::compute(Proc);
    const std::vector<BlockId> &Rpo = Dom.reversePostOrder();
    ASSERT_FALSE(Rpo.empty());
    EXPECT_EQ(Rpo.front(), Proc.entry());
    std::set<BlockId> Seen(Rpo.begin(), Rpo.end());
    ASSERT_EQ(Seen.size(), Rpo.size()) << "duplicate RPO entry";
    std::vector<bool> Reach =
        reachFromAvoiding(Proc, Proc.entry(), InvalidBlock);
    for (BlockId B = 0; B != Proc.numBlocks(); ++B)
      EXPECT_EQ(Seen.count(B) != 0, static_cast<bool>(Reach[B]));
    for (size_t I = 0; I != Rpo.size(); ++I)
      EXPECT_EQ(Dom.rpoIndex(Rpo[I]), I);
  }
}

/// Forward BFS from \p Start: the fewest edges from it to each block,
/// NoReturnPath where no path leads.
std::vector<uint32_t> distancesFrom(const Procedure &Proc, BlockId Start) {
  std::vector<uint32_t> Dist(Proc.numBlocks(), NoReturnPath);
  std::vector<BlockId> Queue{Start};
  Dist[Start] = 0;
  for (size_t Head = 0; Head != Queue.size(); ++Head)
    for (BlockId S : Proc.successors(Queue[Head]))
      if (Dist[S] == NoReturnPath) {
        Dist[S] = Dist[Queue[Head]] + 1;
        Queue.push_back(S);
      }
  return Dist;
}

TEST(ReachabilityOracleTest, BothDirectionsMatchBruteForce) {
  for (const Procedure &Proc : buildCorpus(120)) {
    std::vector<bool> Reached = Proc.reachableFromEntry();
    std::vector<uint32_t> ExitDist = Proc.exitDistances();
    std::vector<bool> Fwd =
        reachFromAvoiding(Proc, Proc.entry(), InvalidBlock);
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      ASSERT_EQ(Reached[B], Fwd[B]) << Proc.getName() << " fwd " << B;
      // The exit distance is the nearest return's BFS distance.
      std::vector<uint32_t> From = distancesFrom(Proc, B);
      uint32_t Nearest = NoReturnPath;
      for (BlockId T = 0; T != Proc.numBlocks(); ++T)
        if (Proc.block(T).Kind == TerminatorKind::Return)
          Nearest = std::min(Nearest, From[T]);
      ASSERT_EQ(ExitDist[B], Nearest) << Proc.getName() << " bwd " << B;
    }
  }
}

TEST(LoopOracleTest, LoopsMatchBruteForceDefinition) {
  for (const Procedure &Proc : buildCorpus(120)) {
    DomOracle Oracle(Proc);
    DominatorTree Dom = DominatorTree::compute(Proc);
    LoopInfo LI = LoopInfo::compute(Proc, Dom);

    for (const Loop &L : LI.Loops) {
      ASSERT_FALSE(L.BackEdges.empty());
      std::set<BlockId> Latches;
      for (const auto &[U, H] : L.BackEdges) {
        EXPECT_EQ(H, L.Header);
        // Back edges really are edges whose target dominates the source.
        const std::vector<BlockId> &Succs = Proc.successors(U);
        EXPECT_NE(std::find(Succs.begin(), Succs.end(), H), Succs.end());
        EXPECT_TRUE(Oracle.dominates(H, U));
        Latches.insert(U);
      }
      // Membership: B is in the natural loop iff B is the header or B
      // reaches some latch without passing through the header. Checked
      // for every block, so both inclusion and exclusion are covered.
      for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
        bool Expected = B == L.Header;
        if (!Expected && Oracle.reachable(B)) {
          std::vector<bool> From = reachFromAvoiding(Proc, B, L.Header);
          for (BlockId U : Latches)
            Expected = Expected || From[U];
        }
        ASSERT_EQ(L.contains(B), Expected)
            << Proc.getName() << " loop@" << L.Header << " block " << B;
      }
      // HasExit: recomputed from scratch.
      bool Exit = false;
      for (BlockId B : L.Blocks)
        for (BlockId S : Proc.successors(B))
          Exit = Exit || !L.contains(S);
      EXPECT_EQ(L.HasExit, Exit);
    }

    // Per-block depth is the number of loops containing the block, and
    // the innermost index points at the deepest such loop.
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      unsigned Containing = 0;
      for (const Loop &L : LI.Loops)
        if (L.contains(B))
          ++Containing;
      ASSERT_EQ(LI.LoopDepth[B], Containing) << Proc.getName() << " " << B;
      if (Containing == 0) {
        EXPECT_EQ(LI.InnermostLoop[B], -1);
      } else {
        ASSERT_GE(LI.InnermostLoop[B], 0);
        const Loop &Inner = LI.Loops[LI.InnermostLoop[B]];
        EXPECT_TRUE(Inner.contains(B));
        EXPECT_EQ(Inner.Depth, LI.LoopDepth[B]);
      }
    }

    // Loop nesting depth counts the loops containing the header.
    for (const Loop &L : LI.Loops)
      EXPECT_EQ(L.Depth, LI.LoopDepth[L.Header]);

    // Irreducible edges certify multi-entry cycles: each is a real edge
    // whose target does not dominate its source yet closes a cycle.
    for (const auto &[U, V] : LI.IrreducibleEdges) {
      const std::vector<BlockId> &Succs = Proc.successors(U);
      EXPECT_NE(std::find(Succs.begin(), Succs.end(), V), Succs.end());
      EXPECT_FALSE(Oracle.dominates(V, U));
      EXPECT_TRUE(reachFromAvoiding(Proc, V, InvalidBlock)[U])
          << "irreducible edge must close a cycle";
    }
  }
}

TEST(LoopOracleTest, StructuredGeneratorCfgsAreReducible) {
  Rng Root(0x5eedULL);
  for (unsigned I = 0; I != 40; ++I) {
    GenParams Params;
    Params.TargetBranchSites = 3 + I % 10;
    Rng R = Root.fork();
    Procedure Proc =
        generateProcedure("red" + std::to_string(I), Params, R).Proc;
    DominatorTree Dom = DominatorTree::compute(Proc);
    LoopInfo LI = LoopInfo::compute(Proc, Dom);
    EXPECT_TRUE(LI.IrreducibleEdges.empty());
  }
}

//===--------------------------------------------------------------------===//
// Flow reconstruction round-trip
//===--------------------------------------------------------------------===//

/// Generates a flow-consistent trace profile for \p Proc.
ProcedureProfile traceProfile(const Procedure &Proc, uint64_t Seed) {
  Rng R(Seed);
  return walkProfile(Proc, BranchBehavior::uniform(Proc), R, 4000);
}

TEST(FlowSolverTest, ConsistentProfileReconstructsToItself) {
  Rng Root(0xf10eULL);
  for (unsigned I = 0; I != 40; ++I) {
    GenParams Params;
    Params.TargetBranchSites = 2 + I % 11;
    Rng R = Root.fork();
    Procedure Proc =
        generateProcedure("cons" + std::to_string(I), Params, R).Proc;
    ProcedureProfile Profile = traceProfile(Proc, 100 + I);
    FlowAnalysis FA = analyzeFlow(Proc, Profile);
    EXPECT_EQ(FA.Class, ProfileClass::Consistent) << FA.Contradiction;
    EXPECT_TRUE(FA.Violations.empty());
    EXPECT_TRUE(FA.Repairs.empty());
    EXPECT_EQ(FA.Repaired.BlockCounts, Profile.BlockCounts);
    EXPECT_EQ(FA.Repaired.EdgeCounts, Profile.EdgeCounts);
  }
}

TEST(FlowSolverTest, ErasedEdgeCountsAreReconstructedExactly) {
  Rng Root(0x2e9a12ULL);
  size_t TotalErased = 0;
  for (unsigned I = 0; I != 60; ++I) {
    GenParams Params;
    Params.TargetBranchSites = 2 + I % 12;
    Params.LoopFraction = 0.1 + 0.05 * (I % 8);
    Rng R = Root.fork();
    Procedure Proc =
        generateProcedure("rt" + std::to_string(I), Params, R).Proc;
    ProcedureProfile Original = traceProfile(Proc, 500 + I);

    // Erase one out-edge count from roughly a third of the branching
    // blocks — at most one per block, so every outflow equation has at
    // most one unknown and reconstruction is fully determined.
    ProcedureProfile Damaged = Original;
    EdgeMask Known(Proc.numBlocks());
    for (BlockId B = 0; B != Proc.numBlocks(); ++B)
      Known[B].assign(Proc.successors(B).size(), true);
    for (BlockId B = 0; B != Proc.numBlocks(); ++B) {
      if (Proc.successors(B).empty() || R.nextIndex(3) != 0)
        continue;
      size_t S = R.nextIndex(Proc.successors(B).size());
      Known[B][S] = false;
      Damaged.EdgeCounts[B][S] = 0;
      ++TotalErased;
    }

    FlowAnalysis FA = analyzeFlow(Proc, Damaged, &Known);
    ASSERT_NE(FA.Class, ProfileClass::Contradictory) << FA.Contradiction;
    EXPECT_EQ(FA.Repaired.BlockCounts, Original.BlockCounts);
    ASSERT_EQ(FA.Repaired.EdgeCounts, Original.EdgeCounts)
        << "round-trip failed for " << Proc.getName();
    // Every repair record must name a masked edge and its true count.
    for (const FlowRepair &Rep : FA.Repairs) {
      EXPECT_FALSE(Known[Rep.From][Rep.SuccIndex]);
      EXPECT_EQ(Rep.Count, Original.EdgeCounts[Rep.From][Rep.SuccIndex]);
      EXPECT_EQ(Rep.To, Proc.successors(Rep.From)[Rep.SuccIndex]);
    }
  }
  // The corpus must actually have exercised the solver.
  EXPECT_GT(TotalErased, 100u);
}

TEST(FlowSolverTest, OverclaimedEdgeIsContradictory) {
  // entry -> {b1, b2} -> ret, with an edge count exceeding its source's
  // block count: no assignment of unknowns can balance that.
  Procedure Proc("contra");
  Proc.addBlock({2, TerminatorKind::Conditional, ""});
  Proc.addBlock({2, TerminatorKind::Unconditional, ""});
  Proc.addBlock({2, TerminatorKind::Unconditional, ""});
  Proc.addBlock({1, TerminatorKind::Return, ""});
  Proc.addEdge(0, 1);
  Proc.addEdge(0, 2);
  Proc.addEdge(1, 3);
  Proc.addEdge(2, 3);
  ProcedureProfile Profile;
  Profile.BlockCounts = {10, 6, 4, 10};
  Profile.EdgeCounts = {{6, 4}, {99}, {4}, {}};
  FlowAnalysis FA = analyzeFlow(Proc, Profile);
  EXPECT_EQ(FA.Class, ProfileClass::Contradictory);
  EXPECT_FALSE(FA.Contradiction.empty());
}

TEST(FlowSolverTest, ProfileClassNamesAreStable) {
  EXPECT_STREQ(profileClassName(ProfileClass::Consistent), "consistent");
  EXPECT_STREQ(profileClassName(ProfileClass::Repairable), "repairable");
  EXPECT_STREQ(profileClassName(ProfileClass::Contradictory),
               "contradictory");
}

} // namespace
