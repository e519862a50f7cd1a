//===- analysis/CfgCheck.cpp - Deep CFG verification ----------------------------===//
//
// Pass 1 of balign-verify: structural CFG verification. Subsumes
// Procedure::verify (which stops at the first violation) and extends it:
// every violation is reported, duplicate edges are flagged for all
// terminator kinds, and two liveness findings are added — blocks with no
// path to any return (cfg.no-exit-path) and procedures with no return
// block at all (cfg.no-return-block). Both are warnings: an infinite
// dispatch loop is legal code, but it breaks the profile walk's
// invocation model (such a walk ends in ProfileWalkError), so the author
// should know. Both directions of reachability come from lint's
// computeReachability (static/Reachability.h).
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include "static/Reachability.h"

#include <set>

using namespace balign;

static const char PassName[] = "cfg-verify";

size_t balign::checkCfg(const Procedure &Proc, DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();

  if (Proc.numBlocks() == 0) {
    Diags.report(Severity::Error, CheckId::CfgNoBlocks, PassName,
                 DiagLocation::procedure(Name), "procedure has no blocks");
    return Diags.errorCount() - Before;
  }

  size_t NumReturns = 0;
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    const BasicBlock &Block = Proc.block(Id);
    const std::vector<BlockId> &Succs = Proc.successors(Id);
    DiagLocation Here = DiagLocation::block(Name, Id);

    if (Block.InstrCount == 0)
      Diags.report(Severity::Error, CheckId::CfgEmptyBlock, PassName, Here,
                   "block has no instructions");

    for (BlockId Succ : Succs)
      if (Succ >= Proc.numBlocks())
        Diags.report(Severity::Error, CheckId::CfgSuccOutOfRange, PassName,
                     DiagLocation::edge(Name, Id, Succ),
                     "successor " + std::to_string(Succ) +
                         " out of range (procedure has " +
                         std::to_string(Proc.numBlocks()) + " blocks)");

    // Duplicate successors are illegal for every terminator kind: a
    // conditional needs two distinct directions, a multiway's targets
    // are a set, and a jump/return cannot repeat by arity.
    std::set<BlockId> Unique(Succs.begin(), Succs.end());
    if (Unique.size() != Succs.size())
      Diags.report(Severity::Error, CheckId::CfgDuplicateEdge, PassName,
                   Here, "duplicate successor edge");

    switch (Block.Kind) {
    case TerminatorKind::Unconditional:
      if (Succs.size() != 1)
        Diags.report(Severity::Error, CheckId::CfgJumpArity, PassName, Here,
                     "jump needs exactly 1 successor, has " +
                         std::to_string(Succs.size()));
      break;
    case TerminatorKind::Conditional:
      if (Succs.size() != 2)
        Diags.report(Severity::Error, CheckId::CfgCondArity, PassName, Here,
                     "cond needs exactly 2 successors, has " +
                         std::to_string(Succs.size()));
      break;
    case TerminatorKind::Multiway:
      if (Succs.size() < 2)
        Diags.report(Severity::Error, CheckId::CfgMultiArity, PassName, Here,
                     "multi needs >= 2 successors, has " +
                         std::to_string(Succs.size()));
      break;
    case TerminatorKind::Return:
      ++NumReturns;
      if (!Succs.empty())
        Diags.report(Severity::Error, CheckId::CfgRetHasSucc, PassName, Here,
                     "ret must have no successors, has " +
                         std::to_string(Succs.size()));
      break;
    }
  }

  if (NumReturns == 0)
    Diags.report(Severity::Warning, CheckId::CfgNoReturn, PassName,
                 DiagLocation::procedure(Name),
                 "procedure has no return block; every invocation would "
                 "run forever");

  // Dead blocks, then (when a return exists at all) live blocks that
  // cannot reach one.
  Reachability Reach = computeReachability(Proc);
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
    if (!Reach.FromEntry[Id])
      Diags.report(Severity::Error, CheckId::CfgUnreachable, PassName,
                   DiagLocation::block(Name, Id),
                   "block unreachable from the entry (dead block)");
  if (NumReturns != 0)
    for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id)
      if (Reach.FromEntry[Id] && !Reach.ToExit[Id])
        Diags.report(Severity::Warning, CheckId::CfgNoExitPath, PassName,
                     DiagLocation::block(Name, Id),
                     "no path from this block to any return");

  return Diags.errorCount() - Before;
}

size_t balign::checkCfg(const Program &Prog, DiagnosticEngine &Diags) {
  size_t Errors = 0;
  for (const Procedure &Proc : Prog.procedures())
    Errors += checkCfg(Proc, Diags);
  return Errors;
}
