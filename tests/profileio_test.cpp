//===- tests/profileio_test.cpp - Profile serialization tests -----------------===//

#include "ir/CFGBuilder.h"
#include "profile/ProfileIO.h"
#include "profile/Trace.h"
#include "machine/Btb.h"
#include "support/Random.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

Program makeProgram() {
  Program Prog("demo");
  CFGBuilder A("alpha");
  BlockId C = A.cond(4, "head");
  BlockId T = A.jump(3, "left");
  BlockId E = A.jump(3, "right");
  BlockId R = A.ret(1, "out");
  A.branches(C, T, E);
  A.edge(T, R).edge(E, R);
  Prog.addProcedure(A.take());

  CFGBuilder B("beta"); // Unnamed blocks exercise b<index> naming.
  BlockId J = B.jump(2);
  BlockId Z = B.ret(1);
  B.edge(J, Z);
  Prog.addProcedure(B.take());
  return Prog;
}

ProgramProfile makeProfile(const Program &Prog) {
  ProgramProfile Profile;
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Profile.Procs.push_back(ProcedureProfile::zeroed(Prog.proc(P)));
  Profile.Procs[0].BlockCounts = {100, 60, 40, 100};
  Profile.Procs[0].EdgeCounts[0] = {60, 40};
  Profile.Procs[0].EdgeCounts[1] = {60};
  Profile.Procs[0].EdgeCounts[2] = {40};
  Profile.Procs[1].BlockCounts = {7, 7};
  Profile.Procs[1].EdgeCounts[0] = {7};
  return Profile;
}

} // namespace

TEST(ProfileIOTest, RoundTrips) {
  Program Prog = makeProgram();
  ProgramProfile Profile = makeProfile(Prog);
  std::string Text = printProgramProfile(Prog, Profile);
  EXPECT_NE(Text.find("profile demo"), std::string::npos);
  EXPECT_NE(Text.find("head: 100 -> left:60 right:40"), std::string::npos);
  EXPECT_NE(Text.find("b0: 7 -> b1:7"), std::string::npos);

  std::string Error;
  std::optional<ProgramProfile> Parsed =
      parseProgramProfile(Prog, Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  for (size_t P = 0; P != Prog.numProcedures(); ++P) {
    EXPECT_EQ(Parsed->Procs[P].BlockCounts, Profile.Procs[P].BlockCounts);
    EXPECT_EQ(Parsed->Procs[P].EdgeCounts, Profile.Procs[P].EdgeCounts);
  }
}

TEST(ProfileIOTest, OmittedEntriesDefaultToZero) {
  Program Prog = makeProgram();
  const char *Text = R"(profile demo
proc alpha {
  head: 10 -> left:10 right:0
}
)";
  std::string Error;
  std::optional<ProgramProfile> Parsed =
      parseProgramProfile(Prog, Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->Procs[0].BlockCounts[0], 10u);
  EXPECT_EQ(Parsed->Procs[0].BlockCounts[1], 0u); // Omitted block.
  EXPECT_EQ(Parsed->Procs[1].BlockCounts[0], 0u); // Omitted proc.
}

TEST(ProfileIOTest, RejectsMalformedInputs) {
  Program Prog = makeProgram();
  std::string Error;
  EXPECT_FALSE(parseProgramProfile(Prog, "garbage", &Error).has_value());
  EXPECT_NE(Error.find("header"), std::string::npos);

  EXPECT_FALSE(parseProgramProfile(
                   Prog, "profile demo\nproc nosuch {\n}\n", &Error)
                   .has_value());
  EXPECT_NE(Error.find("unknown procedure"), std::string::npos);

  EXPECT_FALSE(
      parseProgramProfile(
          Prog, "profile demo\nproc alpha {\n  zz: 3\n}\n", &Error)
          .has_value());
  EXPECT_NE(Error.find("unknown block"), std::string::npos);

  // Edge that does not exist in the CFG.
  EXPECT_FALSE(parseProgramProfile(
                   Prog,
                   "profile demo\nproc alpha {\n  head: 5 -> out:5\n}\n",
                   &Error)
                   .has_value());
  EXPECT_NE(Error.find("does not exist"), std::string::npos);

  // Bad counts.
  EXPECT_FALSE(parseProgramProfile(
                   Prog,
                   "profile demo\nproc alpha {\n  head: x\n}\n", &Error)
                   .has_value());
  EXPECT_NE(Error.find("bad block count"), std::string::npos);

  // Unterminated proc.
  EXPECT_FALSE(parseProgramProfile(
                   Prog, "profile demo\nproc alpha {\n  head: 5\n", &Error)
                   .has_value());
  EXPECT_NE(Error.find("unterminated"), std::string::npos);
}

TEST(ProfileIOTest, RoundTripsGeneratedWorkloadProfiles) {
  Rng StructureRng(42);
  GenParams Params;
  Params.TargetBranchSites = 10;
  Params.MultiwayFraction = 0.1;
  GeneratedProcedure Gen = generateProcedure("g", Params, StructureRng);
  Program Prog("gen");
  Prog.addProcedure(Gen.Proc);

  Rng TraceRng(43);
  ProgramProfile Profile;
  Profile.Procs.push_back(walkProfile(Prog.proc(0),
                                      BranchBehavior::uniform(Prog.proc(0)),
                                      TraceRng, 500));

  std::string Error;
  std::optional<ProgramProfile> Parsed = parseProgramProfile(
      Prog, printProgramProfile(Prog, Profile), &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->Procs[0].EdgeCounts, Profile.Procs[0].EdgeCounts);
  EXPECT_EQ(Parsed->Procs[0].BlockCounts, Profile.Procs[0].BlockCounts);
}

TEST(BtbTest, HitsRequireMatchingTarget) {
  Btb Buffer(64);
  EXPECT_FALSE(Buffer.hit(0x100, 0x200));
  Buffer.update(0x100, 0x200);
  EXPECT_TRUE(Buffer.hit(0x100, 0x200));
  EXPECT_FALSE(Buffer.hit(0x100, 0x300)); // Stale target.
  Buffer.update(0x100, 0x300);
  EXPECT_TRUE(Buffer.hit(0x100, 0x300));
  EXPECT_EQ(Buffer.lookups(), 4u);
  EXPECT_EQ(Buffer.hits(), 2u);
}

TEST(BtbTest, DirectMappedConflicts) {
  Btb Buffer(16); // 16 entries x 4-byte instrs = 64-byte index window.
  Buffer.update(0x0, 0xAA);
  EXPECT_TRUE(Buffer.hit(0x0, 0xAA));
  Buffer.update(0x40, 0xBB); // Same index, different tag: evicts.
  EXPECT_FALSE(Buffer.hit(0x0, 0xAA));
  EXPECT_TRUE(Buffer.hit(0x40, 0xBB));
  Buffer.reset();
  EXPECT_FALSE(Buffer.hit(0x40, 0xBB));
}

TEST(ProfileIOTest, SaturatedCountsRoundTripAndOverflowIsRejected) {
  Program Prog = makeProgram();
  ProgramProfile Profile = makeProfile(Prog);
  // The UINT64_MAX saturation sentinel must survive a print/parse
  // round-trip: the lint counter-saturated check keys on it.
  Profile.Procs[0].BlockCounts[0] = UINT64_MAX;
  std::string Text = printProgramProfile(Prog, Profile);
  std::string Error;
  auto Parsed = parseProgramProfile(Prog, Text, &Error);
  ASSERT_TRUE(Parsed.has_value()) << Error;
  EXPECT_EQ(Parsed->Procs[0].BlockCounts[0], UINT64_MAX);

  // One past 2^64-1 (and anything wider) is an overflow, not a wrap.
  auto Bad = parseProgramProfile(
      Prog, "profile demo\nproc alpha {\n  head: 18446744073709551616\n}\n",
      &Error);
  EXPECT_FALSE(Bad.has_value());
  EXPECT_NE(Error.find("bad block count"), std::string::npos);
  auto Wide = parseProgramProfile(
      Prog, "profile demo\nproc alpha {\n  head: 111111111111111111111\n}\n",
      &Error);
  EXPECT_FALSE(Wide.has_value());
}
