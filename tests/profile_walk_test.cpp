//===- tests/profile_walk_test.cpp - the one profile walk -----------------===//
//
// walkProfile is the only source of synthetic profiles: the workload suite,
// align_tool's and the server's synthesizeProfile, and every test that
// needs a profile call it. These tests pin its output, check it against a
// replay of its own trace, and check the two rules that make every walk
// finish (a branch-free invocation is the last; an invocation that cannot
// return is an error, one-shot and served alike).
//
//===--------------------------------------------------------------------===//

#include "profile/Trace.h"

#include "cache/Fingerprint.h"
#include "ir/CFGBuilder.h"
#include "ir/TextFormat.h"
#include "serve/Oneshot.h"
#include "serve/Service.h"
#include "workloads/Generator.h"
#include "workloads/Workloads.h"

#include "ProfileOracles.h"
#include "ServeCorpus.h"

#include <gtest/gtest.h>

#include <iterator>
#include <string>
#include <vector>

using namespace balign;

namespace {

void hashTrace(Hasher &H, const ExecutionTrace &Trace) {
  H.u64(Trace.Invocations);
  H.u64(Trace.Blocks.size());
  for (BlockId B : Trace.Blocks)
    H.u32(B);
}

/// A behavior with random rows, each successor weighted at least 0.02.
BranchBehavior randomBehavior(const Procedure &Proc, Rng &R) {
  BranchBehavior Behavior = BranchBehavior::uniform(Proc);
  for (std::vector<double> &Row : Behavior.Probs) {
    if (Row.size() < 2)
      continue;
    double Sum = 0.0;
    for (double &P : Row) {
      P = 0.02 + R.nextDouble();
      Sum += P;
    }
    for (double &P : Row)
      P /= Sum;
  }
  return Behavior;
}

/// A behavior with random rows in which every successor but one drops to
/// weight 0 with probability 1/8: edges a walk never takes, running sums
/// that repeat, and loops it cannot leave.
BranchBehavior sparseBehavior(const Procedure &Proc, Rng &R) {
  BranchBehavior Behavior = BranchBehavior::uniform(Proc);
  for (std::vector<double> &Row : Behavior.Probs) {
    if (Row.size() < 2)
      continue;
    size_t Kept = R.nextIndex(Row.size());
    double Sum = 0.0;
    for (size_t S = 0; S != Row.size(); ++S) {
      Row[S] = S != Kept && R.nextIndex(8) == 0 ? 0.0 : 0.02 + R.nextDouble();
      Sum += Row[S];
    }
    for (double &P : Row)
      P /= Sum;
  }
  return Behavior;
}

/// Generated procedure \p I of the pin and oracle sweeps: 1 to 40 branch
/// sites, loop fractions 0 to 0.6, and more multiway sites every third.
Procedure sweepProcedure(uint64_t I) {
  Rng Shape(40000 + I);
  GenParams Params;
  Params.TargetBranchSites = 1 + static_cast<unsigned>(I % 40);
  Params.LoopFraction = 0.1 * static_cast<double>(I % 7);
  Params.MultiwayFraction = (I % 3 == 0) ? 0.2 : 0.05;
  return generateProcedure("g" + std::to_string(I), Params, Shape).Proc;
}

BranchBehavior sweepBehavior(const Procedure &Proc, uint64_t I) {
  Rng BehaviorRng(50000 + I);
  return I % 2 ? randomBehavior(Proc, BehaviorRng)
               : BranchBehavior::uniform(Proc);
}

constexpr uint64_t SweepBudgets[] = {0, 1, 50, 500, 3000};

const char BranchFreeCfg[] = "program flat\n"
                             "proc f {\n"
                             "  entry: size 3 ret\n"
                             "}\n"
                             "proc g {\n"
                             "  entry: size 2 jump -> mid\n"
                             "  mid:   size 5 jump -> out\n"
                             "  out:   size 1 ret\n"
                             "}\n";

} // namespace

//===--------------------------------------------------------------------===//
// Pins: values recorded from the parent build, which generated a trace
// and then replayed it into a profile. A moved pin changes the profile
// every caller of the walk sees.
//===--------------------------------------------------------------------===//

TEST(ProfileWalkPinTest, SuiteDataSetsKeepTheirProfilesAndTraces) {
  struct Pin {
    const char *DataSet, *Profile, *Traces;
  };
  static const Pin Pins[] = {
      {"com.in", "b8367c5d2c04934c:a62a580a0163a1fd",
       "8a9b52d179b474d0:62d3f4adf047c6b5"},
      {"com.st", "1ad5a70e7ea81d0a:35815b84a4433c99",
       "6e65e79982863a7c:25e520cf1026d2c5"},
      {"dod.re", "208033e80687a3c8:06846070c525dcfe",
       "852daedc5528cfe9:6b09712be4a19d6f"},
      {"dod.sm", "9dcf3dfd9cecb5a5:afacae82e8fca197",
       "b4cb0961db3b402d:8a7967ee4d8012cf"},
      {"eqn.fx", "f52b0f98b33fd509:e8799e963223cfc5",
       "3151b41752f7a8cb:17ad64935370dcd3"},
      {"eqn.ip", "7a540a69607732b7:4c96f0e487c0882c",
       "70edd2c4bb728287:a4cb455d2f21c8e9"},
      {"esp.ti", "8cadcafd110e4f48:52bbc48b88c1f814",
       "6da462ffd64c1903:db15a830a38589b0"},
      {"esp.tl", "2b6cceca47a8be6d:872406b16048aa08",
       "9db71e4bd8a50b74:cb0773d8f516b948"},
      {"su2.re", "ac28eeee4923a2cd:5632fb0c8b1a607d",
       "c0023b52a549337c:37b779ee388ebb40"},
      {"su2.sh", "ee68d9fa7036b9ae:0b478e64a02f5264",
       "01835ba18f0162e5:ba7b30ec260a9137"},
      {"xli.ne", "26155ec5688f425b:68dbb3acdb54871a",
       "a7be90d24d83df59:efc2fb51d275d3e5"},
      {"xli.q7", "4ac60d4b20b08dfb:1f11a274844b4bf4",
       "f6a83c68ae072fb6:ecfe3bc4b6ff127f"},
  };
  size_t Next = 0;
  for (const WorkloadSpec &Spec : benchmarkSuite()) {
    WorkloadInstance W = buildWorkload(Spec);
    for (const WorkloadDataSet &Ds : W.DataSets) {
      ASSERT_LT(Next, std::size(Pins));
      const Pin &Expected = Pins[Next++];
      std::string Name = Spec.Benchmark + "." + Ds.Name;
      SCOPED_TRACE(Name);
      EXPECT_EQ(Expected.DataSet, Name);
      Hasher Profile, Traces;
      for (const ProcedureProfile &P : Ds.Profile.Procs)
        hashProfile(Profile, P);
      for (const ExecutionTrace &T : Ds.Traces)
        hashTrace(Traces, T);
      EXPECT_EQ(Expected.Profile, Profile.digest().str());
      EXPECT_EQ(Expected.Traces, Traces.digest().str());
    }
  }
  EXPECT_EQ(std::size(Pins), Next);
}

TEST(ProfileWalkPinTest, SynthesizedProfilesKeepTheirValues) {
  // One digest per program over budgets {0, 1, 700, 3000, 50000} and
  // seeds {1, 7}: the bundled inputs and the serve corpus.
  struct Pin {
    const char *Program, *Digest;
  };
  static const Pin Pins[] = {
      {"interp_like.cfg", "056e07061bbf0adb:6c3dc9623adfca0c"},
      {"zlib_like.cfg", "1d457032628582a4:3448c67c893ec37d"},
      {"defect_irreducible.cfg", "f21c1d4791cff238:6fc3e049a6915c6c"},
      {"serve0", "5b5db44f1ec7618b:a7c1c84712e71336"},
      {"serve1", "d355c431de4524cc:6f4395abb5644048"},
      {"serve2", "9a4b928fcbb20d02:a24974d61670fee9"},
      {"serve3", "8dd43484c0cea15d:a7974a22ae376291"},
      {"serve4", "fe70da3438095090:f1c4f9a0f67f2e2f"},
      {"serve5", "920daf4581a70c40:5d0107f2fc8b71a6"},
      {"serve6", "a0c356f7f18969b4:13701f8ce340be4d"},
      {"serve7", "d1108b2d48748527:add27d77709caf38"},
      {"serve8", "298d4e140cd9a8e4:da8dfc36009d7d92"},
      {"serve9", "421133b72227c473:a66b8920754b662a"},
      {"serve10", "87f5b33a18710433:e63f828fe50ead28"},
      {"serve11", "a5ceacead72f75a8:aaf47aa0c4f9ecfe"},
  };
  for (size_t I = 0; I != std::size(Pins); ++I) {
    SCOPED_TRACE(Pins[I].Program);
    Program Prog = I < 3 ? readProgram(Pins[I].Program)
                         : serveCorpusProgram(I - 3);
    Hasher H;
    for (uint64_t Budget : {0, 1, 700, 3000, 50000})
      for (uint64_t Seed : {1, 7})
        for (const ProcedureProfile &P :
             synthesizeProfile(Prog, Seed, Budget).Procs)
          hashProfile(H, P);
    EXPECT_EQ(Pins[I].Digest, H.digest().str());
  }
}

TEST(ProfileWalkPinTest, GeneratedWalksKeepProfilesTracesAndRngState) {
  Hasher Profiles, Traces, RngEnds;
  uint64_t Blocks = 0;
  for (uint64_t I = 0; I != 200; ++I) {
    Procedure Proc = sweepProcedure(I);
    Rng R(60000 + I);
    ExecutionTrace Trace;
    hashProfile(Profiles, walkProfile(Proc, sweepBehavior(Proc, I), R,
                                      SweepBudgets[I % 5], &Trace));
    hashTrace(Traces, Trace);
    RngEnds.u64(R.next());
    Blocks += Trace.size();
  }
  EXPECT_EQ(343058u, Blocks);
  EXPECT_EQ("c3fdd73c77858fe1:5ebe20500bbf7419", Profiles.digest().str());
  EXPECT_EQ("606d209dd8e2f525:d1d997aeb47cc6c5", Traces.digest().str());
  EXPECT_EQ("386471ad121e7991:5094f7aff13c8d6b", RngEnds.digest().str());
}

TEST(ProfileWalkPinTest, WideSweepKeepsProfilesTracesRngStateAndErrors) {
  // 1,000 walks: multiway fractions up to 0.3, random and sparse
  // behaviors, budgets 0, 1 and up to 20,000, a trace on every third
  // walk, and on every seventh a deadline that expires at a fixed poll.
  // A walk that throws pins its message, its partial trace and the state
  // it left the generator in.
  Hasher Profiles, Traces, RngEnds, Errors;
  uint64_t Blocks = 0, WalkErrors = 0, DeadlineErrors = 0;
  for (uint64_t I = 0; I != 1000; ++I) {
    Rng Shape(80000 + I);
    GenParams Params;
    Params.TargetBranchSites = 1 + static_cast<unsigned>(Shape.nextIndex(60));
    Params.MultiwayFraction = 0.3 * Shape.nextDouble();
    Params.LoopFraction = 0.6 * Shape.nextDouble();
    Params.EarlyReturnProb = 0.3 * Shape.nextDouble();
    Procedure Proc =
        generateProcedure("w" + std::to_string(I), Params, Shape).Proc;
    Rng BehaviorRng(90000 + I);
    BranchBehavior Behavior = I % 2 ? sparseBehavior(Proc, BehaviorRng)
                                    : randomBehavior(Proc, BehaviorRng);
    uint64_t Budget = I % 10 == 0   ? 0
                      : I % 10 == 1 ? 1
                                    : 2 + BehaviorRng.nextIndex(19999);
    uint64_t Polls = 0;
    Deadline Limit(1 + I % 11, [&Polls] { return Polls++; });
    Rng R(100000 + I);
    ExecutionTrace Trace;
    try {
      hashProfile(Profiles,
                  walkProfile(Proc, Behavior, R, Budget,
                              I % 3 == 0 ? &Trace : nullptr,
                              I % 7 == 6 ? &Limit : nullptr));
    } catch (const ProfileWalkError &E) {
      ++WalkErrors;
      Errors.str(E.what());
    } catch (const DeadlineExceeded &E) {
      ++DeadlineErrors;
      Errors.str(E.what());
    }
    hashTrace(Traces, Trace);
    RngEnds.u64(R.next());
    Blocks += Trace.size();
  }
  // Walks that cannot return once they leave the entry's taken edge:
  // every path from there cycles through a three-way, a two-way and a
  // jump block, so the walk reaches MaxBlocksPerInvocation.
  CFGBuilder B("trap");
  BlockId Entry = B.cond(1);
  BlockId Wide = B.multi(1);
  BlockId Two = B.cond(1);
  BlockId Jump = B.jump(1);
  BlockId Out = B.ret(1);
  B.branches(Entry, Wide, Out);
  B.edge(Wide, Two).edge(Wide, Jump).edge(Wide, Wide);
  B.branches(Two, Wide, Jump);
  B.edge(Jump, Wide);
  Procedure Trap = B.take();
  for (uint64_t I = 0; I != 6; ++I) {
    Rng BehaviorRng(110000 + I);
    Rng R(120000 + I);
    ExecutionTrace Trace;
    try {
      walkProfile(Trap, randomBehavior(Trap, BehaviorRng), R,
                  I % 3 == 2 ? 20000 : 1 + I, I % 2 ? &Trace : nullptr);
    } catch (const ProfileWalkError &E) {
      ++WalkErrors;
      Errors.str(E.what());
    }
    hashTrace(Traces, Trace);
    RngEnds.u64(R.next());
    Blocks += Trace.size();
  }
  EXPECT_EQ(7938036u, Blocks);
  EXPECT_EQ(4u, WalkErrors);
  EXPECT_EQ(109u, DeadlineErrors);
  EXPECT_EQ("32ebe25d121dd024:90f7eafdea1ae663", Profiles.digest().str());
  EXPECT_EQ("aaf9d4ec428991c9:21769bf099a80cf1", Traces.digest().str());
  EXPECT_EQ("76fced7e93cfffe8:1e2fa574969f5458", RngEnds.digest().str());
  EXPECT_EQ("e3eeb24415666815:29f2989e8e36ba39", Errors.digest().str());
}

//===--------------------------------------------------------------------===//
// Oracle: the walk's own counts equal a replay of the trace it records.
//===--------------------------------------------------------------------===//

TEST(ProfileWalkOracleTest, CountsEqualTheReplayOfTheRecordedTrace) {
  for (uint64_t I = 0; I != 800; ++I) {
    SCOPED_TRACE(I);
    Procedure Proc = sweepProcedure(I);
    BranchBehavior Behavior = sweepBehavior(Proc, I);
    uint64_t Budget = SweepBudgets[(I / 2) % 5];
    Rng WithTrace(70000 + I), Without(70000 + I);
    ExecutionTrace Trace;
    ProcedureProfile Traced =
        walkProfile(Proc, Behavior, WithTrace, Budget, &Trace);
    ProcedureProfile Plain = walkProfile(Proc, Behavior, Without, Budget);
    ProcedureProfile Replayed = collectProfile(Proc, Trace);
    ASSERT_EQ(Traced.BlockCounts, Plain.BlockCounts);
    ASSERT_EQ(Traced.EdgeCounts, Plain.EdgeCounts);
    ASSERT_EQ(Traced.BlockCounts, Replayed.BlockCounts);
    ASSERT_EQ(Traced.EdgeCounts, Replayed.EdgeCounts);
    ASSERT_EQ(WithTrace.next(), Without.next());
    EXPECT_TRUE(isFlowConsistent(Traced, Proc));
    EXPECT_EQ(Budget == 0, Trace.empty());
    if (Budget != 0) {
      EXPECT_GE(Traced.executedBranches(Proc), Budget);
    }
  }
}

//===--------------------------------------------------------------------===//
// Every walk finishes.
//===--------------------------------------------------------------------===//

TEST(ProfileWalkTest, LoneReturnFinishesAfterOneInvocation) {
  CFGBuilder B("lone");
  B.ret(3);
  Procedure Proc = B.take();
  Rng R(1);
  ExecutionTrace Trace;
  ProcedureProfile Profile =
      walkProfile(Proc, BranchBehavior::uniform(Proc), R, 50000, &Trace);
  EXPECT_EQ(1u, Trace.Invocations);
  EXPECT_EQ(std::vector<BlockId>{0}, Trace.Blocks);
  EXPECT_EQ(std::vector<uint64_t>{1}, Profile.BlockCounts);
  EXPECT_EQ(0u, Profile.executedBranches(Proc));
}

TEST(ProfileWalkTest, JumpChainFinishesAfterOneInvocation) {
  CFGBuilder B("chain");
  BlockId Entry = B.jump(2);
  BlockId Exit = B.ret(1);
  B.edge(Entry, Exit);
  Procedure Proc = B.take();
  Rng WithTrace(5), Without(5);
  ExecutionTrace Trace;
  ProcedureProfile Profile = walkProfile(Proc, BranchBehavior::uniform(Proc),
                                         WithTrace, 50000, &Trace);
  EXPECT_EQ(1u, Trace.Invocations);
  EXPECT_EQ((std::vector<BlockId>{Entry, Exit}), Trace.Blocks);
  EXPECT_EQ((std::vector<uint64_t>{1, 1}), Profile.BlockCounts);
  EXPECT_EQ(1u, Profile.edgeCount(Entry, 0));
  EXPECT_TRUE(isFlowConsistent(Profile, Proc));
  walkProfile(Proc, BranchBehavior::uniform(Proc), Without, 50000);
  EXPECT_EQ(WithTrace.next(), Without.next());
}

TEST(ProfileWalkTest, BranchFreeProgramSynthesizesAndServesLikeOneShot) {
  std::string Error;
  std::optional<Program> Prog = parseProgram(BranchFreeCfg, &Error);
  ASSERT_TRUE(Prog.has_value()) << Error;
  ProgramProfile Counts = synthesizeProfile(*Prog, 1, 50000);
  ASSERT_EQ(2u, Counts.Procs.size());
  EXPECT_EQ(std::vector<uint64_t>{1}, Counts.Procs[0].BlockCounts);
  EXPECT_EQ((std::vector<uint64_t>{1, 1, 1}), Counts.Procs[1].BlockCounts);

  AlignmentOptions Options;
  std::string OneShot = renderAlignmentReport(
      *Prog, Counts, alignProgram(*Prog, Counts, Options),
      /*ComputeBounds=*/false, /*EmitDot=*/false);
  AlignRequest Req;
  Req.CfgText = BranchFreeCfg;
  AlignService Service(Options);
  Frame Response = Service.handleAlign(encodeAlignRequest(Req));
  ASSERT_EQ(FrameType::AlignOk, Response.Type) << Response.Body;
  EXPECT_EQ(OneShot, Response.Body);
}

TEST(ProfileWalkTest, ExitlessLoopIsOneErrorOneShotAndServed) {
  Program Prog = readProgram("defect_selfloop.cfg");
  const std::string Expected =
      "synthetic walk of procedure 'spin' did not return within 1048576 "
      "blocks (stopped in block 'spin'); pass --profile";
  std::string Thrown;
  try {
    synthesizeProfile(Prog, 1, 50000);
  } catch (const ProfileWalkError &E) {
    Thrown = E.what();
  }
  EXPECT_EQ(Expected, Thrown);

  // The cap is per invocation, not per budget: a small budget fails too.
  EXPECT_THROW(synthesizeProfile(Prog, 1, 100), ProfileWalkError);

  // Served twice: a failed walk is not memoized, so the repeat walks
  // again and gets the same frame.
  AlignRequest Req;
  Req.CfgText = readData("defect_selfloop.cfg");
  AlignmentOptions Options;
  AlignService Service(Options);
  for (int Sent = 1; Sent <= 2; ++Sent) {
    SCOPED_TRACE(Sent);
    Frame Response = Service.handleAlign(encodeAlignRequest(Req));
    FrameError Code = FrameError::None;
    std::string Message;
    ASSERT_TRUE(decodeErrorFrame(Response, Code, Message));
    EXPECT_EQ(FrameError::ProfileError, Code);
    EXPECT_EQ(Expected, Message);
  }
  EXPECT_EQ(0u, Service.profileMemoStats().Entries);
}

TEST(ProfileWalkTest, ControlBytesInNamesAreEscaped) {
  // A NUL in a name must not end the message where a caller prints it
  // as a C string: both walk errors escape the names they embed.
  CFGBuilder B(std::string("sp\0in", 5));
  BlockId Entry = B.cond(3, "entry");
  BlockId Spin = B.jump(2, "sp\x01in");
  BlockId Out = B.ret(1, "out");
  B.branches(Entry, Spin, Out);
  B.edge(Spin, Spin);
  Procedure Proc = B.take();
  BranchBehavior Behavior = BranchBehavior::uniform(Proc);

  std::string Thrown;
  try {
    Rng R(7);
    walkProfile(Proc, Behavior, R, 50000);
  } catch (const ProfileWalkError &E) {
    Thrown = E.what();
  }
  EXPECT_EQ("synthetic walk of procedure 'sp\\x00in' did not return "
            "within 1048576 blocks (stopped in block 'sp\\x01in'); pass "
            "--profile",
            Thrown);

  uint64_t Polls = 0;
  Deadline Expired(1, [&Polls] { return Polls++; });
  Thrown.clear();
  try {
    Rng R(7);
    walkProfile(Proc, Behavior, R, 50000, nullptr, &Expired);
  } catch (const DeadlineExceeded &E) {
    Thrown = E.what();
  }
  EXPECT_EQ("synthetic walk of procedure 'sp\\x00in' exceeded its deadline",
            Thrown);
}
