//===- tests/roundtrip_fuzz_test.cpp - Seeded round-trip fuzzing ---------------===//
//
// Seeded "fuzz-lite": pump randomly generated procedures and profiles
// through the text serializers and back, asserting exact structural
// equality. Catches printer/parser drift for any CFG shape the workload
// generator can produce.
//
//===----------------------------------------------------------------------===//

#include "ir/TextFormat.h"
#include "profile/ProfileIO.h"
#include "profile/Trace.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

Program randomProgram(uint64_t Seed) {
  Rng Root(Seed);
  Program Prog("fuzz" + std::to_string(Seed));
  size_t NumProcs = 1 + Root.nextIndex(4);
  for (size_t P = 0; P != NumProcs; ++P) {
    GenParams Params;
    Params.TargetBranchSites = 1 + static_cast<unsigned>(Root.nextIndex(15));
    Params.MultiwayFraction = Root.nextDouble() * 0.2;
    Params.LoopFraction = Root.nextDouble() * 0.6;
    Params.TopTestedLoopFraction = Root.nextDouble();
    Params.ElseFraction = Root.nextDouble();
    Params.EarlyReturnProb = Root.nextDouble() * 0.3;
    Rng ProcRng(Root.next());
    Prog.addProcedure(
        generateProcedure("f" + std::to_string(P), Params, ProcRng).Proc);
  }
  return Prog;
}

} // namespace

class RoundTripFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RoundTripFuzz, ProgramTextFormat) {
  Program Prog = randomProgram(GetParam());
  std::string Text = printProgram(Prog);
  std::string Error;
  std::optional<Program> Parsed = parseProgram(Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error << "\n" << Text;
  ASSERT_EQ(Parsed->numProcedures(), Prog.numProcedures());
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    const Procedure &A = Prog.proc(P);
    const Procedure &B = Parsed->proc(P);
    ASSERT_EQ(A.numBlocks(), B.numBlocks()) << "proc " << P;
    EXPECT_EQ(A.getName(), B.getName());
    for (BlockId Id = 0; Id != A.numBlocks(); ++Id) {
      EXPECT_EQ(A.block(Id).Kind, B.block(Id).Kind);
      EXPECT_EQ(A.block(Id).InstrCount, B.block(Id).InstrCount);
      EXPECT_EQ(A.successors(Id), B.successors(Id));
    }
  }
  // Printing the parse is a fixed point.
  EXPECT_EQ(printProgram(*Parsed), Text);
}

TEST_P(RoundTripFuzz, ProfileTextFormat) {
  Program Prog = randomProgram(GetParam() * 7 + 3);
  ProgramProfile Profile;
  Rng TraceRng(GetParam() * 13 + 5);
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    uint64_t Budget = 50 + TraceRng.nextIndex(300);
    Profile.Procs.push_back(walkProfile(Prog.proc(P),
                                        BranchBehavior::uniform(Prog.proc(P)),
                                        TraceRng, Budget));
  }
  std::string Text = printProgramProfile(Prog, Profile);
  std::string Error;
  std::optional<ProgramProfile> Parsed =
      parseProgramProfile(Prog, Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    EXPECT_EQ(Parsed->Procs[P].BlockCounts, Profile.Procs[P].BlockCounts);
    EXPECT_EQ(Parsed->Procs[P].EdgeCounts, Profile.Procs[P].EdgeCounts);
  }
  EXPECT_EQ(printProgramProfile(Prog, *Parsed), Text);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RoundTripFuzz,
                         ::testing::Range<uint64_t>(1, 13));
