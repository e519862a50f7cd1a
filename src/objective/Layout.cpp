//===- objective/Layout.cpp -------------------------------------------------===//

#include "objective/Layout.h"

#include "objective/Displace.h"
#include "objective/Penalty.h"

#include <cassert>
#include <numeric>

using namespace balign;

Layout Layout::original(const Procedure &Proc) {
  Layout L;
  L.Order.resize(Proc.numBlocks());
  std::iota(L.Order.begin(), L.Order.end(), 0);
  return L;
}

bool Layout::isValid(const Procedure &Proc) const {
  if (Order.size() != Proc.numBlocks())
    return false;
  if (Order.empty() || Order.front() != Proc.entry())
    return false;
  std::vector<bool> Seen(Proc.numBlocks(), false);
  for (BlockId Id : Order) {
    if (Id >= Proc.numBlocks() || Seen[Id])
      return false;
    Seen[Id] = true;
  }
  return true;
}

MaterializedLayout balign::materializeLayout(const Procedure &Proc,
                                             const Layout &Layout,
                                             const ProcedureProfile &Train,
                                             const MachineModel &Model) {
  assert(Layout.isValid(Proc) && "materializing an invalid layout");
  MaterializedLayout Mat;
  Mat.ItemOfBlock.assign(Proc.numBlocks(), 0);
  Mat.Arrangements.assign(Proc.numBlocks(), BranchArrangement());
  Mat.MultiwayPrediction.assign(Proc.numBlocks(), 0);

  for (size_t I = 0; I != Layout.Order.size(); ++I) {
    BlockId B = Layout.Order[I];
    BlockId Next =
        I + 1 != Layout.Order.size() ? Layout.Order[I + 1] : InvalidBlock;

    LayoutItem Item;
    Item.Block = B;
    Item.SizeInstrs = Proc.block(B).InstrCount;
    Mat.ItemOfBlock[B] = Mat.Items.size();
    Mat.Items.push_back(Item);

    switch (Proc.block(B).Kind) {
    case TerminatorKind::Return:
    case TerminatorKind::Unconditional:
      // An unconditional block falls through when possible; otherwise its
      // own terminator is the jump (no extra block needed). The jump
      // stays either way, so its instruction count ignores the layout.
      break;

    case TerminatorKind::Multiway:
      Mat.MultiwayPrediction[B] = Train.hottestSuccessor(B);
      break;

    case TerminatorKind::Conditional: {
      const std::vector<BlockId> &Succs = Proc.successors(B);
      size_t P = Train.hottestSuccessor(B);
      size_t O = 1 - P;
      BranchArrangement &Arr = Mat.Arrangements[B];
      if (Next == Succs[P]) {
        // Predicted successor falls through; branch targets the other.
        Arr.TakenTarget = Succs[O];
        Arr.FallThroughTarget = Succs[P];
        Arr.PredictTaken = false;
      } else if (Next == Succs[O]) {
        Arr.TakenTarget = Succs[P];
        Arr.FallThroughTarget = Succs[O];
        Arr.PredictTaken = true;
      } else {
        // Neither successor follows: insert a fixup jump, oriented by
        // the same rule the penalty model uses.
        bool TakenToPredicted =
            fixupTakenToPredicted(Proc, Model, Train, B);
        BlockId TakenSucc = TakenToPredicted ? Succs[P] : Succs[O];
        BlockId FixupSucc = TakenToPredicted ? Succs[O] : Succs[P];
        Arr.TakenTarget = TakenSucc;
        Arr.FallThroughTarget = FixupSucc;
        Arr.PredictTaken = TakenToPredicted;
        Arr.FallThroughViaFixup = true;
        LayoutItem Fixup;
        Fixup.Block = InvalidBlock;
        Fixup.FixupTarget = FixupSucc;
        Fixup.SizeInstrs = 1;
        Mat.Items.push_back(Fixup);
        ++Mat.NumFixups;
      }
      break;
    }
    }
  }

  Mat.TotalBytes = assignItemAddresses(Mat.Items, Model);
  // Under a variable encoding the addresses above are only the starting
  // point: widening any out-of-range branch moves everything after it,
  // so the displacement fixpoint reassigns until every branch's chosen
  // form reaches its target (no-op under Fixed).
  solveDisplacement(Proc, Mat, Model);
  return Mat;
}
