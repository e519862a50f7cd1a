//===- workloads/Generator.cpp -------------------------------------------------===//

#include "workloads/Generator.h"

#include <cassert>

using namespace balign;

namespace {

/// Recursive region builder. A region is a single-entry subgraph under
/// construction whose control flow leaves through "open" blocks that
/// still need one successor edge (unconditional blocks with no successor
/// yet, or conditional loop headers whose exit edge is pending).
class RegionBuilder {
public:
  RegionBuilder(const GenParams &Params, Rng &Rand)
      : Params(Params), Rand(Rand) {}

  /// A region: entry block plus the open blocks to wire onward.
  struct Region {
    BlockId Entry = InvalidBlock;
    std::vector<BlockId> Exits;
  };

  /// Builds a whole procedure.
  GeneratedProcedure buildProcedure(std::string Name) {
    Gen.Proc.setName(std::move(Name));
    unsigned Budget = Params.TargetBranchSites;
    // Chain top-level regions until the branch budget is consumed; every
    // top-level region with budget available spends at least one site.
    Region Body = genOne(Budget, /*Depth=*/0);
    while (Budget > 0) {
      Region NextPart = genOne(Budget, /*Depth=*/0);
      for (BlockId Open : Body.Exits)
        addPendingEdge(Open, NextPart.Entry);
      Body.Exits = std::move(NextPart.Exits);
    }
    BlockId Exit = newBlock(TerminatorKind::Return);
    for (BlockId Open : Body.Exits)
      addPendingEdge(Open, Exit);
    Gen.LoopStayIndex.resize(Gen.Proc.numBlocks(), -1);
    for (const auto &[Header, Index] : LoopHeaders)
      Gen.LoopStayIndex[Header] = Index;
    std::string Error;
    bool Ok = Gen.Proc.verify(&Error);
    (void)Ok;
    assert(Ok && "generator produced an invalid procedure");
    return std::move(Gen);
  }

private:
  const GenParams &Params;
  Rng &Rand;
  GeneratedProcedure Gen;
  std::vector<std::pair<BlockId, int8_t>> LoopHeaders;

  uint32_t pickSize() {
    return Params.BlockSizeMin +
           static_cast<uint32_t>(Rand.nextBelow(
               Params.BlockSizeMax - Params.BlockSizeMin + 1));
  }

  BlockId newBlock(TerminatorKind Kind) {
    BasicBlock Block;
    Block.Kind = Kind;
    Block.InstrCount = pickSize();
    return Gen.Proc.addBlock(std::move(Block));
  }

  /// Adds the deferred successor edge of an open block.
  void addPendingEdge(BlockId Open, BlockId Target) {
    Gen.Proc.addEdge(Open, Target);
  }

  /// A single straight-line block.
  Region genStraight() {
    BlockId B = newBlock(TerminatorKind::Unconditional);
    return {B, {B}};
  }

  /// Sequential composition of 1..MaxParts sub-regions.
  Region genSeq(unsigned &Budget, unsigned Depth, unsigned MinParts,
                unsigned MaxParts) {
    unsigned Parts =
        MinParts + static_cast<unsigned>(Rand.nextBelow(
                       MaxParts - MinParts + 1));
    Region Seq = genOne(Budget, Depth);
    for (unsigned P = 1; P < Parts; ++P) {
      Region NextPart = genOne(Budget, Depth);
      for (BlockId Open : Seq.Exits)
        addPendingEdge(Open, NextPart.Entry);
      Seq.Exits = std::move(NextPart.Exits);
    }
    return Seq;
  }

  /// Picks one region kind given the remaining branch budget.
  Region genOne(unsigned &Budget, unsigned Depth) {
    if (Budget == 0 || Depth >= Params.MaxDepth)
      return genStraight();
    double Draw = Rand.nextDouble();
    if (Draw < Params.MultiwayFraction)
      return genSwitch(Budget, Depth);
    Draw = Rand.nextDouble();
    if (Draw < Params.LoopFraction)
      return genLoop(Budget, Depth);
    return genIf(Budget, Depth);
  }

  /// if-then[-else] with a join block; the then-arm may early-return when
  /// the join stays reachable through the other edge.
  Region genIf(unsigned &Budget, unsigned Depth) {
    assert(Budget > 0 && "genIf needs budget");
    --Budget;
    BlockId Cond = newBlock(TerminatorKind::Conditional);
    // Then-arm blocks are created immediately after the conditional, so
    // successor 0 is the adjacent block in the original layout.
    Region Then = genSeq(Budget, Depth + 1, 1, 2);
    bool HasElse = Budget > 0 && Rand.nextBool(Params.ElseFraction);
    Region Else;
    if (HasElse)
      Else = genSeq(Budget, Depth + 1, 1, 2);

    Gen.Proc.addEdge(Cond, Then.Entry);
    BlockId Join = newBlock(TerminatorKind::Unconditional);
    Gen.Proc.addEdge(Cond, HasElse ? Else.Entry : Join);

    // The join is reachable via the else edge (or else-region), so the
    // then-arm may safely divert to an early return.
    if (Rand.nextBool(Params.EarlyReturnProb)) {
      BlockId Early = newBlock(TerminatorKind::Return);
      for (BlockId Open : Then.Exits)
        addPendingEdge(Open, Early);
    } else {
      for (BlockId Open : Then.Exits)
        addPendingEdge(Open, Join);
    }
    for (BlockId Open : Else.Exits)
      addPendingEdge(Open, Join);
    return {Cond, {Join}};
  }

  /// Natural loop; bottom-tested (do-while latch) by default,
  /// top-tested (while header) with probability TopTestedLoopFraction.
  Region genLoop(unsigned &Budget, unsigned Depth) {
    assert(Budget > 0 && "genLoop needs budget");
    --Budget;
    if (Rand.nextBool(Params.TopTestedLoopFraction)) {
      // while-style: conditional header, unconditional back edge.
      BlockId Header = newBlock(TerminatorKind::Conditional);
      Region Body = genSeq(Budget, Depth + 1, 1, 2);
      Gen.Proc.addEdge(Header, Body.Entry); // Successor 0: stay in loop.
      for (BlockId Open : Body.Exits)
        addPendingEdge(Open, Header); // Back edges.
      LoopHeaders.push_back({Header, 0});
      // Successor 1 (the loop exit) is this region's open edge.
      return {Header, {Header}};
    }
    // do-while-style: the body runs first; a conditional latch tests at
    // the bottom and takes the back edge while iterating. In source
    // order the back edge is a backward taken branch and the exit falls
    // through — the shape compilers emit.
    Region Body = genSeq(Budget, Depth + 1, 1, 2);
    BlockId Latch = newBlock(TerminatorKind::Conditional);
    for (BlockId Open : Body.Exits)
      addPendingEdge(Open, Latch);
    Gen.Proc.addEdge(Latch, Body.Entry); // Successor 0: back edge (hot).
    LoopHeaders.push_back({Latch, 0});
    // Successor 1 (the loop exit) is this region's open edge.
    return {Body.Entry, {Latch}};
  }

  /// Multiway dispatch over 3..K arms with a common join.
  Region genSwitch(unsigned &Budget, unsigned Depth) {
    assert(Budget > 0 && "genSwitch needs budget");
    --Budget;
    BlockId Switch = newBlock(TerminatorKind::Multiway);
    unsigned Arms =
        Params.MultiwayArmsMin +
        static_cast<unsigned>(Rand.nextBelow(
            Params.MultiwayArmsMax - Params.MultiwayArmsMin + 1));
    std::vector<Region> ArmRegions;
    ArmRegions.reserve(Arms);
    for (unsigned A = 0; A != Arms; ++A) {
      ArmRegions.push_back(genSeq(Budget, Depth + 1, 1, 1));
      Gen.Proc.addEdge(Switch, ArmRegions.back().Entry);
    }
    BlockId Join = newBlock(TerminatorKind::Unconditional);
    for (Region &Arm : ArmRegions)
      for (BlockId Open : Arm.Exits)
        addPendingEdge(Open, Join);
    return {Switch, {Join}};
  }
};

} // namespace

GeneratedProcedure balign::generateProcedure(std::string Name,
                                             const GenParams &Params,
                                             Rng &Rng) {
  RegionBuilder Builder(Params, Rng);
  return Builder.buildProcedure(std::move(Name));
}
