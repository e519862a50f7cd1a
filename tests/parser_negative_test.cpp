//===- tests/parser_negative_test.cpp - Parser hardening tests ----------------===//
//
// Negative-path coverage for the textual CFG and profile parsers: every
// rejection must come back as a clean error string (never a crash, never
// a silently half-built result), including duplicate definitions and
// truncated files.
//
//===--------------------------------------------------------------------===//

#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

const char *ValidProgram = R"(program t
proc f {
  a: size 2 cond -> b c
  b: size 2 jump -> d
  c: size 3 jump -> d
  d: size 1 ret
}
proc g {
  x: size 4 jump -> y
  y: size 1 ret
}
)";

const char *ValidProfile = R"(profile t
proc f {
  a: 10 -> b:6 c:4
  b: 6 -> d:6
  c: 4 -> d:4
  d: 10
}
proc g {
  x: 3 -> y:3
  y: 3
}
)";

Program parsedProgram() {
  std::string Error;
  std::optional<Program> Prog = parseProgram(ValidProgram, &Error);
  EXPECT_TRUE(Prog) << Error;
  return *Prog;
}

void expectProgramRejected(const std::string &Text,
                           const std::string &Needle) {
  std::string Error;
  std::optional<Program> Prog = parseProgram(Text, &Error);
  EXPECT_FALSE(Prog) << "parse accepted: " << Text;
  EXPECT_NE(Error.find(Needle), std::string::npos)
      << "error '" << Error << "' lacks '" << Needle << "'";
}

void expectProfileRejected(const std::string &Text,
                           const std::string &Needle) {
  Program Prog = parsedProgram();
  std::string Error;
  std::optional<ProgramProfile> Profile =
      parseProgramProfile(Prog, Text, &Error);
  EXPECT_FALSE(Profile) << "parse accepted: " << Text;
  EXPECT_NE(Error.find(Needle), std::string::npos)
      << "error '" << Error << "' lacks '" << Needle << "'";
}

} // namespace

//===----------------------------------------------------------------------===//
// CFG text format
//===----------------------------------------------------------------------===//

TEST(TextFormatNegativeTest, ValidInputRoundTrips) {
  Program Prog = parsedProgram();
  EXPECT_EQ(Prog.numProcedures(), 2u);
  EXPECT_EQ(Prog.proc(0).numBlocks(), 4u);
}

TEST(TextFormatNegativeTest, RejectsDuplicateProcedure) {
  expectProgramRejected("program t\n"
                        "proc f {\n  a: size 1 ret\n}\n"
                        "proc f {\n  a: size 1 ret\n}\n",
                        "duplicate procedure 'f'");
}

TEST(TextFormatNegativeTest, RejectsDuplicateBlockName) {
  expectProgramRejected("program t\n"
                        "proc f {\n"
                        "  a: size 1 jump -> a\n"
                        "  a: size 1 ret\n"
                        "}\n",
                        "duplicate");
}

TEST(TextFormatNegativeTest, RejectsUnknownSuccessor) {
  expectProgramRejected("program t\n"
                        "proc f {\n  a: size 1 jump -> nowhere\n}\n",
                        "nowhere");
}

TEST(TextFormatNegativeTest, RejectsOversizedBlock) {
  // A crafted huge block must be rejected at parse time: address
  // assignment multiplies InstrCount by BytesPerInstr and sums over
  // items, and the MaxBlockInstrCount bound is what keeps that
  // arithmetic from wrapping (balign-displace).
  expectProgramRejected("program t\n"
                        "proc f {\n  a: size 999999999 ret\n}\n",
                        "exceeds the limit");
  // One past the bound fails, the bound itself parses.
  expectProgramRejected("program t\n"
                        "proc f {\n  a: size 268435457 ret\n}\n",
                        "exceeds the limit");
  std::string Error;
  EXPECT_TRUE(parseProgram("program t\n"
                           "proc f {\n  a: size 268435456 ret\n}\n",
                           &Error))
      << Error;
}

TEST(TextFormatNegativeTest, RejectsUnreachableBlock) {
  // parseProgram runs Procedure::verify, so a block with no path from the
  // entry fails the parse: the unreachable-block checks of lint and of the
  // verifier see only programs built through the library.
  expectProgramRejected(
      "program t\n"
      "proc f {\n"
      "  a: size 1 cond -> b c\n"
      "  b: size 1 ret\n"
      "  c: size 1 ret\n"
      "  d: size 1 ret\n"
      "}\n",
      "line 7: procedure 'f' block 3 unreachable from entry");
}

TEST(TextFormatNegativeTest, RejectsTruncatedFile) {
  // File ends mid-procedure: the closing brace never arrives.
  expectProgramRejected("program t\n"
                        "proc f {\n"
                        "  a: size 2 jump -> b\n"
                        "  b: size 1 ret\n",
                        "unterminated proc 'f'");
}

TEST(TextFormatNegativeTest, RejectsMissingHeader) {
  expectProgramRejected("proc f {\n  a: size 1 ret\n}\n", "header");
}

TEST(TextFormatNegativeTest, RejectsEmptyProgram) {
  expectProgramRejected("program t\n", "no procedures");
}

//===----------------------------------------------------------------------===//
// Profile text format
//===----------------------------------------------------------------------===//

TEST(ProfileIONegativeTest, ValidProfileParses) {
  Program Prog = parsedProgram();
  std::string Error;
  std::optional<ProgramProfile> Profile =
      parseProgramProfile(Prog, ValidProfile, &Error);
  ASSERT_TRUE(Profile) << Error;
  EXPECT_EQ(Profile->Procs[0].BlockCounts[0], 10u);
  EXPECT_EQ(Profile->Procs[0].EdgeCounts[0][1], 4u);
}

TEST(ProfileIONegativeTest, RejectsDuplicateProcSection) {
  expectProfileRejected("profile t\n"
                        "proc g {\n  x: 1 -> y:1\n  y: 1\n}\n"
                        "proc g {\n  x: 2 -> y:2\n  y: 2\n}\n",
                        "duplicate profile section for procedure 'g'");
}

TEST(ProfileIONegativeTest, RejectsDuplicateBlockLine) {
  expectProfileRejected("profile t\n"
                        "proc g {\n"
                        "  x: 1 -> y:1\n"
                        "  x: 2 -> y:2\n"
                        "  y: 1\n"
                        "}\n",
                        "duplicate stats line for block 'x'");
}

TEST(ProfileIONegativeTest, RejectsDuplicateEdgeMention) {
  expectProfileRejected("profile t\n"
                        "proc f {\n"
                        "  a: 10 -> b:6 b:4\n"
                        "}\n",
                        "duplicate edge count for a -> b");
}

TEST(ProfileIONegativeTest, RejectsUnknownProcedure) {
  expectProfileRejected("profile t\nproc zz {\n}\n", "unknown procedure");
}

TEST(ProfileIONegativeTest, RejectsUnknownBlock) {
  expectProfileRejected("profile t\nproc f {\n  zz: 1\n}\n",
                        "unknown block");
}

TEST(ProfileIONegativeTest, RejectsEdgeAbsentFromCfg) {
  // d is a real block but there is no edge b -> a in the CFG.
  expectProfileRejected("profile t\n"
                        "proc f {\n  b: 6 -> a:6\n}\n",
                        "does not exist in the CFG");
}

TEST(ProfileIONegativeTest, RejectsBadCount) {
  expectProfileRejected("profile t\nproc f {\n  a: many\n}\n",
                        "bad block count");
}

TEST(ProfileIONegativeTest, RejectsTruncatedFile) {
  expectProfileRejected("profile t\n"
                        "proc f {\n"
                        "  a: 10 -> b:6 c:4\n",
                        "unterminated proc 'f'");
}
