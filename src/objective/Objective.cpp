//===- objective/Objective.cpp ----------------------------------------------===//

#include "objective/Objective.h"

#include "objective/Displace.h"
#include "objective/Penalty.h"

#include <cassert>
#include <limits>

using namespace balign;

ObjectiveFn::~ObjectiveFn() = default;

bool balign::parseObjectiveKind(const std::string &Name, ObjectiveKind &Out) {
  if (Name == "fallthrough") {
    Out = ObjectiveKind::Fallthrough;
    return true;
  }
  if (Name == "exttsp") {
    Out = ObjectiveKind::ExtTsp;
    return true;
  }
  return false;
}

double ObjectiveFn::scoreLayout(const Procedure &Proc,
                                const ProcedureProfile &Profile,
                                const Layout &L) const {
  assert(L.isValid(Proc) && "scoring an invalid layout");
  return scoreSequence(Proc, Profile, L.Order);
}

double FallthroughObjective::scoreSequence(
    const Procedure &Proc, const ProcedureProfile &Profile,
    const std::vector<BlockId> &Seq) const {
  uint64_t Penalty = 0;
  for (size_t I = 0; I != Seq.size(); ++I) {
    BlockId Next = I + 1 != Seq.size() ? Seq[I + 1] : InvalidBlock;
    Penalty += blockLayoutPenalty(Proc, Model, Profile, Profile, Seq[I], Next);
  }
  return -static_cast<double>(Penalty);
}

double ExtTspObjective::scoreSequence(const Procedure &Proc,
                                      const ProcedureProfile &Profile,
                                      const std::vector<BlockId> &Seq) const {
  // Byte address of each placed block; blocks outside Seq stay unplaced.
  constexpr uint64_t NotPlaced = std::numeric_limits<uint64_t>::max();
  std::vector<uint64_t> Start(Proc.numBlocks(), NotPlaced);
  uint64_t Address = 0;
  for (BlockId B : Seq) {
    assert(Start[B] == NotPlaced && "sequence repeats a block");
    Start[B] = Address;
    Address += blockBytes(Proc, B);
  }

  double Score = 0.0;
  for (BlockId B : Seq) {
    uint64_t SrcEnd = Start[B] + blockBytes(Proc, B);
    const std::vector<BlockId> &Succs = Proc.successors(B);
    for (size_t S = 0; S != Succs.size(); ++S) {
      if (Start[Succs[S]] == NotPlaced)
        continue;
      uint64_t Count = Profile.edgeCount(B, S);
      if (Count == 0)
        continue;
      uint64_t Dst = Start[Succs[S]];
      if (Dst >= SrcEnd) {
        uint64_t Dist = Dst - SrcEnd;
        if (Dist == 0)
          Score += static_cast<double>(Count);
        else if (Dist < Model.ExtTspForwardWindow)
          Score += static_cast<double>(Count) * Model.ExtTspForwardWeight *
                   (1.0 - static_cast<double>(Dist) /
                              static_cast<double>(Model.ExtTspForwardWindow));
      } else {
        uint64_t Dist = SrcEnd - Dst;
        if (Dist <= Model.ExtTspBackwardWindow)
          Score += static_cast<double>(Count) * Model.ExtTspBackwardWeight *
                   (1.0 - static_cast<double>(Dist) /
                              static_cast<double>(Model.ExtTspBackwardWindow));
      }
    }
  }
  return Score;
}

std::unique_ptr<ObjectiveFn> balign::makeObjective(ObjectiveKind Kind,
                                                   const MachineModel &Model) {
  switch (Kind) {
  case ObjectiveKind::Fallthrough:
    return std::make_unique<FallthroughObjective>(Model);
  case ObjectiveKind::ExtTsp:
    break;
  }
  return std::make_unique<ExtTspObjective>(Model);
}
