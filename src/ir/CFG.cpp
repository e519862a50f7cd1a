//===- ir/CFG.cpp ---------------------------------------------------------===//

#include "ir/CFG.h"

#include <cassert>
#include <optional>

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

std::string Procedure::blockName(BlockId Id) const {
  return Blocks[Id].Name.empty() ? "b" + std::to_string(Id) : Blocks[Id].Name;
}

void Procedure::addEdge(BlockId From, BlockId To) {
  assert(From < Blocks.size() && To < Blocks.size() && "edge out of range");
  Successors[From].push_back(To);
}

bool Procedure::arityAllows(TerminatorKind Kind, size_t NumSuccs) {
  switch (Kind) {
  case TerminatorKind::Unconditional:
    return NumSuccs == 1;
  case TerminatorKind::Conditional:
    return NumSuccs == 2;
  case TerminatorKind::Multiway:
    return NumSuccs >= 2;
  case TerminatorKind::Return:
    return NumSuccs == 0;
  }
  return false;
}

const char *balign::arityRule(TerminatorKind Kind) {
  static const char *const Rules[] = {
      "jump needs exactly 1 successor", "cond needs exactly 2 successors",
      "multi needs >= 2 successors", "ret must have no successors"};
  return Rules[static_cast<size_t>(Kind)];
}

bool Procedure::hasRepeatedSuccessor(BlockId Id) const {
  const std::vector<BlockId> &Succs = Successors[Id];
  for (size_t I = 0; I != Succs.size(); ++I)
    for (size_t J = I + 1; J != Succs.size(); ++J)
      if (Succs[I] == Succs[J])
        return true;
  return false;
}

std::vector<std::vector<BlockId>> Procedure::computePredecessors() const {
  std::vector<std::vector<BlockId>> Preds(Blocks.size());
  for (BlockId From = 0; From != Blocks.size(); ++From)
    for (BlockId To : Successors[From])
      if (To < Blocks.size())
        Preds[To].push_back(From);
  return Preds;
}

std::vector<bool> Procedure::reachableFromEntry() const {
  std::vector<bool> Seen(Blocks.size(), false);
  if (Blocks.empty())
    return Seen;
  std::vector<BlockId> Work = {entry()};
  Seen[entry()] = true;
  while (!Work.empty()) {
    BlockId Id = Work.back();
    Work.pop_back();
    for (BlockId Succ : Successors[Id])
      if (Succ < Blocks.size() && !Seen[Succ]) {
        Seen[Succ] = true;
        Work.push_back(Succ);
      }
  }
  return Seen;
}

std::vector<uint32_t> Procedure::exitDistances() const {
  // Breadth-first over reversed edges from every Return block.
  std::vector<uint32_t> Dist(Blocks.size(), NoReturnPath);
  std::vector<std::vector<BlockId>> Preds = computePredecessors();
  std::vector<BlockId> Frontier;
  for (BlockId Id = 0; Id != Blocks.size(); ++Id)
    if (Blocks[Id].Kind == TerminatorKind::Return) {
      Dist[Id] = 0;
      Frontier.push_back(Id);
    }
  for (size_t Head = 0; Head != Frontier.size(); ++Head)
    for (BlockId Pred : Preds[Frontier[Head]])
      if (Dist[Pred] == NoReturnPath) {
        Dist[Pred] = Dist[Frontier[Head]] + 1;
        Frontier.push_back(Pred);
      }
  return Dist;
}

static bool fail(std::string *Error, std::string Message) {
  if (Error)
    *Error = std::move(Message);
  return false;
}

bool Procedure::verify(std::string *Error) const {
  // Every parse verifies, so the message is built only on failure.
  std::optional<CfgViolation> First;
  forEachRuleViolation([&](const CfgViolation &V) {
    First = V;
    return false;
  });
  if (First && First->Rule == CfgRule::NoBlocks)
    return fail(Error, "procedure '" + Name + "' has no blocks");
  if (First) {
    TerminatorKind Kind = Blocks[First->Block].Kind;
    const char *What =
        First->Rule == CfgRule::SuccOutOfRange ? "successor out of range"
        : First->Rule == CfgRule::EmptyBlock   ? "empty block"
        : First->Rule == CfgRule::Arity        ? arityRule(Kind)
        : Kind == TerminatorKind::Conditional  ? "cond successors must differ"
                                               : "duplicate multiway successor";
    return fail(Error, "procedure '" + Name + "' block " +
                           std::to_string(First->Block) + ": " + What);
  }
  std::vector<bool> Seen = reachableFromEntry();
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
