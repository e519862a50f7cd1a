//===- tests/cfg_rules_pin_test.cpp - Pinned outcomes of the CFG rules ----===//
//
// Seeded structural defects applied through the public Procedure API to
// generated procedures, then run through Procedure::verify and
// cfg-verify's checkCfg. Each seed procedure's digest covers every
// mutant's verify text and its checkCfg findings (each rendered with its
// check id, severity, location and text). The findings are sorted, so
// only their order is left free. The digests were recorded from the
// build in which verify and checkCfg each wrote out the structural rules
// and ran their own traversals, so a rule walk or a reachability pass
// that finds, words or places a finding differently moves a pin.
//
//===--------------------------------------------------------------------===//

#include "analysis/Verifier.h"
#include "cache/Fingerprint.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>
#include <vector>

using namespace balign;

namespace {

constexpr uint64_t MutantsPerProcedure = 2000;

constexpr TerminatorKind Kinds[] = {
    TerminatorKind::Unconditional, TerminatorKind::Conditional,
    TerminatorKind::Multiway, TerminatorKind::Return};

/// Seed procedure \p I: a generated CFG whose shape varies with \p I.
Procedure seedProcedure(uint64_t I) {
  GenParams Params;
  Params.TargetBranchSites = 2 + static_cast<unsigned>(I % 7);
  Params.LoopFraction = 0.1 + 0.1 * static_cast<double>(I % 5);
  Params.TopTestedLoopFraction = static_cast<double>(I % 3) * 0.4;
  Params.MultiwayFraction = static_cast<double>(I % 4) * 0.1;
  Params.EarlyReturnProb = static_cast<double>(I % 5) * 0.08;
  Rng R(0xcf9c0de5ULL + I);
  return generateProcedure("pin" + std::to_string(I), Params, R).Proc;
}

/// Mutant \p Seed of \p Proc: one to three seeded defects, each an
/// InstrCount zeroed, a Kind changed, a successor repeated, an edge to
/// any block added, or a block with no incoming edge appended (with as
/// many edges to random blocks as its random kind wants).
Procedure mutant(const Procedure &Proc, uint64_t Seed) {
  Rng R(Seed);
  Procedure M = Proc;
  unsigned Edits = 1 + static_cast<unsigned>(R.nextIndex(3));
  for (unsigned E = 0; E != Edits; ++E) {
    BlockId B = static_cast<BlockId>(R.nextIndex(M.numBlocks()));
    switch (R.nextIndex(5)) {
    case 0:
      M.block(B).InstrCount = 0;
      break;
    case 1:
      M.block(B).Kind = Kinds[R.nextIndex(std::size(Kinds))];
      break;
    case 2:
      if (!M.successors(B).empty())
        M.addEdge(B, M.successors(B)[R.nextIndex(M.successors(B).size())]);
      break;
    case 3:
      M.addEdge(B, static_cast<BlockId>(R.nextIndex(M.numBlocks())));
      break;
    default: {
      TerminatorKind Kind = Kinds[R.nextIndex(std::size(Kinds))];
      BlockId New = M.addBlock(
          {1 + static_cast<uint32_t>(R.nextIndex(8)), Kind, ""});
      size_t Edges = Kind == TerminatorKind::Return          ? 0
                     : Kind == TerminatorKind::Unconditional ? 1
                     : Kind == TerminatorKind::Conditional   ? 2
                                                             : 3;
      for (size_t S = 0; S != Edges; ++S)
        M.addEdge(New, static_cast<BlockId>(R.nextIndex(M.numBlocks())));
      break;
    }
    }
  }
  return M;
}

/// Hashes what verify and checkCfg say about \p Proc into \p H, and adds
/// every cfg check that fired to \p Seen. Returns whether verify passed.
bool hashOutcome(Hasher &H, const Procedure &Proc, std::set<CheckId> &Seen) {
  std::string Error;
  bool Ok = Proc.verify(&Error);
  H.u8(Ok);
  H.str(Error);
  DiagnosticEngine Diags;
  H.u64(checkCfg(Proc, Diags));
  std::vector<std::string> Findings;
  for (const Diagnostic &D : Diags.diagnostics()) {
    Findings.push_back(D.render());
    Seen.insert(D.Check);
  }
  std::sort(Findings.begin(), Findings.end());
  H.u64(Findings.size());
  for (const std::string &F : Findings)
    H.str(F);
  return Ok;
}

struct Pin {
  const char *Digest;
  uint64_t Accepted;
};

} // namespace

TEST(CfgRulesPinTest, SeededDefectsKeepVerifyAndCfgCheckFindings) {
  static const Pin Pins[] = {
      {"9303bb5bda8f45fe:d010af9d02e7a8de", 73},
      {"5c29ac6e9a643bc5:bc2f6e402165ce3b", 76},
      {"7e5249321682e60e:2031f0e62ce44baa", 61},
      {"a2afa05f5379b9a2:f39bba9dcfd0da1c", 70},
      {"c7b1c19bc3726556:b6d2382f85e07a23", 76},
      {"2c1db0050dabc02d:5210ad8fb7c09b17", 81},
      {"3ae6fd6c4eb2f837:6c8ef6c5b384906f", 71},
      {"62a0294475dafd55:a49403e9c93a84c6", 76},
      {"64361d34b6d2d013:0381533e701735fb", 67},
      {"25475206abdccbaf:a83ec1a2efa13d7a", 67},
      {"5e28189c3c9c9e38:e5ceacbaa2b7ab09", 62},
      {"9492b960c18fcfe5:5ac4929a28191796", 67},
  };
  std::set<CheckId> Seen;
  for (uint64_t I = 0; I != std::size(Pins); ++I) {
    SCOPED_TRACE("seed procedure " + std::to_string(I));
    Procedure Base = seedProcedure(I);
    ASSERT_TRUE(Base.verify());
    Hasher H;
    uint64_t Accepted = 0;
    for (uint64_t M = 0; M != MutantsPerProcedure; ++M)
      Accepted += hashOutcome(
          H, mutant(Base, I * MutantsPerProcedure + M), Seen);
    EXPECT_EQ(Pins[I].Digest, H.digest().str());
    EXPECT_EQ(Pins[I].Accepted, Accepted);
  }
  // The mutants reach every cfg check the public API can provoke (an
  // out-of-range successor cannot be added; a procedure with no blocks
  // is pinned below).
  const std::set<CheckId> Reachable = {
      CheckId::CfgEmptyBlock,  CheckId::CfgDuplicateEdge,
      CheckId::CfgJumpArity,   CheckId::CfgCondArity,
      CheckId::CfgMultiArity,  CheckId::CfgRetHasSucc,
      CheckId::CfgNoReturn,    CheckId::CfgUnreachable,
      CheckId::CfgNoExitPath};
  EXPECT_EQ(Seen, Reachable);
}

TEST(CfgRulesPinTest, ProcedureWithNoBlocks) {
  Procedure Empty("empty");
  std::string Error;
  EXPECT_FALSE(Empty.verify(&Error));
  EXPECT_EQ(Error, "procedure 'empty' has no blocks");
  DiagnosticEngine Diags;
  EXPECT_EQ(checkCfg(Empty, Diags), 1u);
  ASSERT_EQ(Diags.diagnostics().size(), 1u);
  EXPECT_EQ(Diags.diagnostics()[0].render(),
            "error: [cfg.no-blocks] cfg-verify: proc 'empty': procedure "
            "has no blocks");
}
