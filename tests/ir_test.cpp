//===- tests/ir_test.cpp - IR substrate tests --------------------------------===//

#include "ir/CFG.h"
#include "ir/CFGBuilder.h"
#include "ir/Dot.h"
#include "ir/TextFormat.h"

#include "ProfileOracles.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

/// entry -> cond -> {then, else} -> join -> ret, a classic diamond.
Procedure makeDiamond() {
  CFGBuilder B("diamond");
  BlockId Entry = B.jump(2, "entry");
  BlockId Cond = B.cond(3, "cond");
  BlockId Then = B.jump(4, "then");
  BlockId Else = B.jump(5, "else");
  BlockId Join = B.jump(2, "join");
  BlockId Exit = B.ret(1, "exit");
  B.edge(Entry, Cond);
  B.branches(Cond, Then, Else);
  B.edge(Then, Join).edge(Else, Join).edge(Join, Exit);
  return B.take();
}

} // namespace

TEST(CFGTest, DiamondShape) {
  Procedure P = makeDiamond();
  EXPECT_EQ(P.numBlocks(), 6u);
  EXPECT_EQ(P.entry(), 0u);
  EXPECT_EQ(numBranchSites(P), 1u);
  EXPECT_TRUE(P.verify());
}

TEST(CFGTest, PredecessorsComputed) {
  Procedure P = makeDiamond();
  auto Preds = P.computePredecessors();
  EXPECT_TRUE(Preds[0].empty());
  ASSERT_EQ(Preds[4].size(), 2u); // join has then + else.
  EXPECT_EQ(Preds[1].size(), 1u);
}

TEST(CFGVerifyTest, RejectsEmptyProcedure) {
  Procedure P("empty");
  std::string Error;
  EXPECT_FALSE(P.verify(&Error));
  EXPECT_NE(Error.find("no blocks"), std::string::npos);
}

TEST(CFGVerifyTest, RejectsWrongSuccessorCounts) {
  {
    Procedure P("badjump");
    BasicBlock B;
    B.Kind = TerminatorKind::Unconditional;
    P.addBlock(B); // Jump with zero successors.
    std::string Error;
    EXPECT_FALSE(P.verify(&Error));
    EXPECT_NE(Error.find("jump"), std::string::npos);
  }
  {
    Procedure P("badcond");
    BasicBlock B;
    B.Kind = TerminatorKind::Conditional;
    BlockId C = P.addBlock(B);
    B.Kind = TerminatorKind::Return;
    BlockId R = P.addBlock(B);
    P.addEdge(C, R); // Only one successor.
    std::string Error;
    EXPECT_FALSE(P.verify(&Error));
    EXPECT_NE(Error.find("cond"), std::string::npos);
  }
}

TEST(CFGVerifyTest, RejectsDuplicateCondSuccessors) {
  Procedure P("dup");
  BasicBlock B;
  B.Kind = TerminatorKind::Conditional;
  BlockId C = P.addBlock(B);
  B.Kind = TerminatorKind::Return;
  BlockId R = P.addBlock(B);
  P.addEdge(C, R);
  P.addEdge(C, R);
  EXPECT_FALSE(P.verify());
}

TEST(CFGVerifyTest, RejectsRetWithSuccessors) {
  Procedure P("badret");
  BasicBlock B;
  B.Kind = TerminatorKind::Return;
  BlockId R0 = P.addBlock(B);
  BlockId R1 = P.addBlock(B);
  P.addEdge(R0, R1);
  EXPECT_FALSE(P.verify());
}

TEST(CFGVerifyTest, RejectsUnreachableBlock) {
  Procedure P("unreachable");
  BasicBlock B;
  B.Kind = TerminatorKind::Return;
  P.addBlock(B); // Entry returns immediately.
  B.Kind = TerminatorKind::Return;
  P.addBlock(B); // Orphan.
  std::string Error;
  EXPECT_FALSE(P.verify(&Error));
  EXPECT_NE(Error.find("unreachable"), std::string::npos);
}

TEST(CFGVerifyTest, AcceptsSelfLoopConditional) {
  // A conditional may target itself on one edge (a one-block loop).
  Procedure P("selfloop");
  BasicBlock B;
  B.Kind = TerminatorKind::Conditional;
  BlockId C = P.addBlock(B);
  B.Kind = TerminatorKind::Return;
  BlockId R = P.addBlock(B);
  P.addEdge(C, C);
  P.addEdge(C, R);
  EXPECT_TRUE(P.verify());
}

TEST(TextFormatTest, RoundTripsPrograms) {
  Program Prog("demo");
  Prog.addProcedure(makeDiamond());
  std::string Text = printProgram(Prog);
  std::string Error;
  std::optional<Program> Parsed = parseProgram(Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->getName(), "demo");
  ASSERT_EQ(Parsed->numProcedures(), 1u);
  const Procedure &P = Parsed->proc(0);
  EXPECT_EQ(P.numBlocks(), 6u);
  EXPECT_EQ(P.block(1).Kind, TerminatorKind::Conditional);
  EXPECT_EQ(P.block(1).InstrCount, 3u);
  EXPECT_EQ(P.successors(1).size(), 2u);
  // Round-trip again: stable fixed point.
  EXPECT_EQ(printProgram(*Parsed), Text);
}

TEST(TextFormatTest, ParsesForwardReferencesAndComments) {
  const char *Text = R"(# a comment
program fwd
proc f {
  a: size 1 cond -> b c   # trailing comment
  b: size 2 jump -> d
  c: size 3 jump -> d
  d: size 1 ret
}
)";
  std::string Error;
  std::optional<Program> Parsed = parseProgram(Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->proc(0).numBlocks(), 4u);
}

TEST(TextFormatTest, ReportsErrors) {
  std::string Error;
  EXPECT_FALSE(parseProgram("nonsense", &Error).has_value());
  EXPECT_NE(Error.find("line 1"), std::string::npos);

  EXPECT_FALSE(
      parseProgram("program p\nproc f {\n  a: size 0 ret\n}\n", &Error)
          .has_value());
  EXPECT_NE(Error.find("positive"), std::string::npos);

  EXPECT_FALSE(
      parseProgram("program p\nproc f {\n  a: size 1 jump -> zz\n}\n",
                   &Error)
          .has_value());
  EXPECT_NE(Error.find("unknown successor"), std::string::npos);

  EXPECT_FALSE(
      parseProgram("program p\nproc f {\n  a: size 1 ret\n", &Error)
          .has_value());
  EXPECT_NE(Error.find("unterminated"), std::string::npos);
}

TEST(DotTest, EmitsNodesAndEdges) {
  Procedure P = makeDiamond();
  std::string Dot = printDot(P);
  EXPECT_NE(Dot.find("digraph"), std::string::npos);
  EXPECT_NE(Dot.find("n1 -> n2"), std::string::npos);
  EXPECT_NE(Dot.find("cond"), std::string::npos);

  std::vector<std::vector<uint64_t>> Counts(P.numBlocks());
  for (BlockId B = 0; B != P.numBlocks(); ++B)
    Counts[B].assign(P.successors(B).size(), 7);
  std::string Labeled = printDot(P, &Counts);
  EXPECT_NE(Labeled.find("label=\"7\""), std::string::npos);
}
