//===- ir/CFG.cpp ---------------------------------------------------------===//

#include "ir/CFG.h"

#include <cassert>

using namespace balign;

const char *balign::terminatorKindName(TerminatorKind Kind) {
  switch (Kind) {
  case TerminatorKind::Unconditional:
    return "jump";
  case TerminatorKind::Conditional:
    return "cond";
  case TerminatorKind::Multiway:
    return "multi";
  case TerminatorKind::Return:
    return "ret";
  }
  assert(false && "unknown terminator kind");
  return "?";
}

BlockId Procedure::addBlock(BasicBlock Block) {
  assert(Block.InstrCount >= 1 && "blocks contain at least one instruction");
  Blocks.push_back(std::move(Block));
  Successors.emplace_back();
  return static_cast<BlockId>(Blocks.size() - 1);
}

void Procedure::addEdge(BlockId From, BlockId To) {
  assert(From < Blocks.size() && To < Blocks.size() && "edge out of range");
  Successors[From].push_back(To);
}

std::vector<std::vector<BlockId>> Procedure::computePredecessors() const {
  std::vector<std::vector<BlockId>> Preds(Blocks.size());
  for (BlockId From = 0; From != Blocks.size(); ++From)
    for (BlockId To : Successors[From])
      Preds[To].push_back(From);
  return Preds;
}

static bool fail(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

bool Procedure::verify(std::string *Error) const {
  if (Blocks.empty())
    return fail(Error, "procedure '" + Name + "' has no blocks");

  for (BlockId Id = 0; Id != Blocks.size(); ++Id) {
    const BasicBlock &Block = Blocks[Id];
    const std::vector<BlockId> &Succs = Successors[Id];
    // Every parse verifies, so the message is built only on failure.
    auto Fail = [&](const char *What) {
      return fail(Error, "procedure '" + Name + "' block " +
                             std::to_string(Id) + ": " + What);
    };
    for (BlockId Succ : Succs)
      if (Succ >= Blocks.size())
        return Fail("successor out of range");
    if (Block.InstrCount == 0)
      return Fail("empty block");
    switch (Block.Kind) {
    case TerminatorKind::Unconditional:
      if (Succs.size() != 1)
        return Fail("jump needs exactly 1 successor");
      break;
    case TerminatorKind::Conditional:
      if (Succs.size() != 2)
        return Fail("cond needs exactly 2 successors");
      if (Succs[0] == Succs[1])
        return Fail("cond successors must differ");
      break;
    case TerminatorKind::Multiway:
      if (Succs.size() < 2)
        return Fail("multi needs >= 2 successors");
      for (size_t I = 0; I != Succs.size(); ++I)
        for (size_t J = I + 1; J != Succs.size(); ++J)
          if (Succs[I] == Succs[J])
            return Fail("duplicate multiway successor");
      break;
    case TerminatorKind::Return:
      if (!Succs.empty())
        return Fail("ret must have no successors");
      break;
    }
  }

  // Reachability from the entry block.
  std::vector<bool> Seen(Blocks.size(), false);
  std::vector<BlockId> Work = {entry()};
  Seen[entry()] = true;
  while (!Work.empty()) {
    BlockId Id = Work.back();
    Work.pop_back();
    for (BlockId Succ : Successors[Id]) {
      if (Seen[Succ])
        continue;
      Seen[Succ] = true;
      Work.push_back(Succ);
    }
  }
  for (BlockId Id = 0; Id != Blocks.size(); ++Id)
    if (!Seen[Id])
      return fail(Error, "procedure '" + Name + "' block " +
                             std::to_string(Id) + " unreachable from entry");
  return true;
}

size_t Program::addProcedure(Procedure Proc) {
  Procs.push_back(std::move(Proc));
  return Procs.size() - 1;
}

bool Program::verify(std::string *Error) const {
  for (const Procedure &Proc : Procs)
    if (!Proc.verify(Error))
      return false;
  return true;
}
