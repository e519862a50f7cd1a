//===- analysis/CfgCheck.cpp - Deep CFG verification ----------------------------===//
//
// Pass 1 of balign-verify: structural CFG verification. Reads the rule
// walk Procedure::verify stops at the first finding of
// (Procedure::forEachRuleViolation) and reports every finding, then adds
// the findings of the two ir traversals: dead blocks, procedures with
// no return block at all (cfg.no-return-block) and blocks with no path
// to any return (cfg.no-exit-path). The last two are warnings: an
// infinite dispatch loop is legal code, but it breaks the profile
// walk's invocation model (such a walk ends in ProfileWalkError), so
// the author should know.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"

#include <algorithm>

using namespace balign;

static const char PassName[] = "cfg-verify";

/// The check that reports a broken arity rule, per terminator kind.
static const CheckId ArityChecks[] = {
    CheckId::CfgJumpArity, CheckId::CfgCondArity, CheckId::CfgMultiArity,
    CheckId::CfgRetHasSucc};

size_t balign::checkCfg(const Procedure &Proc, DiagnosticEngine &Diags) {
  size_t Before = Diags.errorCount();
  const std::string &Name = Proc.getName();
  size_t N = Proc.numBlocks();

  Proc.forEachRuleViolation([&](const CfgViolation &V) {
    DiagLocation Here = DiagLocation::block(Name, V.Block);
    switch (V.Rule) {
    case CfgRule::NoBlocks:
      Diags.report(Severity::Error, CheckId::CfgNoBlocks, PassName,
                   DiagLocation::procedure(Name), "procedure has no blocks");
      break;
    case CfgRule::SuccOutOfRange:
      Diags.report(Severity::Error, CheckId::CfgSuccOutOfRange, PassName,
                   DiagLocation::edge(Name, V.Block, V.Succ),
                   "successor " + std::to_string(V.Succ) +
                       " out of range (procedure has " + std::to_string(N) +
                       " blocks)");
      break;
    case CfgRule::EmptyBlock:
      Diags.report(Severity::Error, CheckId::CfgEmptyBlock, PassName, Here,
                   "block has no instructions");
      break;
    case CfgRule::Arity: {
      TerminatorKind Kind = Proc.block(V.Block).Kind;
      Diags.report(Severity::Error, ArityChecks[static_cast<size_t>(Kind)],
                   PassName, Here,
                   std::string(arityRule(Kind)) + ", has " +
                       std::to_string(Proc.successors(V.Block).size()));
      break;
    }
    case CfgRule::RepeatedSucc:
      // Illegal for every terminator kind: a conditional needs two
      // distinct directions, a multiway's targets are a set, and a
      // jump/return cannot repeat by arity.
      Diags.report(Severity::Error, CheckId::CfgDuplicateEdge, PassName,
                   Here, "duplicate successor edge");
      break;
    }
    return true;
  });
  if (N == 0)
    return Diags.errorCount() - Before;

  // Return blocks are exactly the blocks at exit distance 0.
  std::vector<uint32_t> ExitDist = Proc.exitDistances();
  bool AnyReturn =
      std::find(ExitDist.begin(), ExitDist.end(), 0u) != ExitDist.end();
  if (!AnyReturn)
    Diags.report(Severity::Warning, CheckId::CfgNoReturn, PassName,
                 DiagLocation::procedure(Name),
                 "procedure has no return block; every invocation would "
                 "run forever");

  // Dead blocks, then (when a return exists at all) live blocks that
  // cannot reach one.
  std::vector<bool> Reached = Proc.reachableFromEntry();
  for (BlockId Id = 0; Id != N; ++Id)
    if (!Reached[Id])
      Diags.report(Severity::Error, CheckId::CfgUnreachable, PassName,
                   DiagLocation::block(Name, Id),
                   "block unreachable from the entry (dead block)");
  if (AnyReturn)
    for (BlockId Id = 0; Id != N; ++Id)
      if (Reached[Id] && ExitDist[Id] == NoReturnPath)
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
