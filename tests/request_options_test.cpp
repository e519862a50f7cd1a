//===- tests/request_options_test.cpp - shared request path oracle --------===//
//
// align_tool, balign_client and the server share one request path: the
// flag parser (parseRequestFlag), the wire codec, and one AlignRequest ->
// AlignmentOptions mapping (applyAlignRequest); the two tools also share
// one --batch list grammar (parseBatchLine). This oracle walks every
// request flag through all three, checks that the cache fingerprint
// changes whenever a flag changes the report (and stays put for the flags
// documented as inert), and pins the persisted hash primitives to the
// values they have always had.
//
//===--------------------------------------------------------------------===//

#include "serve/Oneshot.h"

#include "cache/Fingerprint.h"
#include "ir/TextFormat.h"
#include "robust/FaultInjector.h"
#include "robust/Journal.h"
#include "serve/Service.h"
#include "support/Hash.h"
#include "support/Random.h"

#include "RequestFingerprint.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <tuple>
#include <vector>

using namespace balign;

namespace {

const char ProgramText[] = R"(program request
proc tokenize {
  entry:  size 4 jump -> header
  header: size 2 cond -> fill scan
  fill:   size 24 jump -> scan
  scan:   size 3 cond -> header done
  done:   size 2 ret
}
proc dispatch {
  entry:  size 3 jump -> loop
  loop:   size 2 cond -> op exit
  op:     size 2 multi -> add sub mul
  add:    size 4 jump -> loop
  sub:    size 30 jump -> loop
  mul:    size 9 jump -> loop
  exit:   size 1 ret
}
)";

using Args = std::vector<std::string>;

/// Feeds \p A through parseRequestFlag the way a tool's argv loop does.
/// Returns the status of the first flag that is not Consumed, or
/// Consumed when every flag was.
FlagParse parseAll(Args A, RequestFlags &Out) {
  std::vector<char *> Argv = {const_cast<char *>("tool")};
  for (std::string &S : A)
    Argv.push_back(S.data());
  int Argc = static_cast<int>(Argv.size());
  for (int I = 1; I != Argc; ++I) {
    int Before = I;
    FlagParse Status = parseRequestFlag(Argc, Argv.data(), I, Out);
    if (Status == FlagParse::NotMine) {
      EXPECT_EQ(Before, I) << "NotMine must consume nothing";
    }
    if (Status != FlagParse::Consumed)
      return Status;
  }
  return FlagParse::Consumed;
}

RequestFlags parsed(const Args &A) {
  RequestFlags Flags;
  EXPECT_EQ(FlagParse::Consumed, parseAll(A, Flags));
  return Flags;
}

auto fieldsOf(const AlignRequest &R) {
  return std::tie(R.Seed, R.Budget, R.DeadlineMs, R.Effort, R.OnError,
                  R.ComputeBounds, R.HasProfile, R.CfgText, R.ProfileText,
                  R.Objective, R.Encoding);
}

auto fieldsOf(const AlignmentOptions &O) {
  const MachineModel &M = O.Model;
  return std::tie(M.CondFallThrough, M.CondTakenCorrect, M.CondMispredict,
                  M.UncondBranch, M.MultiwayPredicted, M.MultiwayMispredict,
                  static_cast<const ExtTspParams &>(M),
                  static_cast<const BranchEncodingParams &>(M), O.Solver.Seed,
                  O.ComputeBounds, O.Primary, O.Objective, O.Effort,
                  O.OnError, O.Threads, O.CachePath, O.ProcBudgetMs);
}

/// One request flag: its argv, the change it makes to a default request,
/// and the change the mapping must then make to default options.
struct FlagCase {
  Args Argv;
  std::function<void(AlignRequest &)> Request;
  std::function<void(AlignmentOptions &)> Options;
};

const std::vector<FlagCase> &flagCases() {
  static const std::vector<FlagCase> Cases = {
      {{"--seed", "9"},
       [](AlignRequest &R) { R.Seed = 9; },
       [](AlignmentOptions &O) { O.Solver.Seed = 9; }},
      {{"--budget", "700"},
       [](AlignRequest &R) { R.Budget = 700; },
       [](AlignmentOptions &) {}},
      {{"--bounds"},
       [](AlignRequest &R) { R.ComputeBounds = true; },
       [](AlignmentOptions &O) { O.ComputeBounds = true; }},
      {{"--on-error", "fallback"},
       [](AlignRequest &R) { R.OnError = OnErrorPolicy::Fallback; },
       [](AlignmentOptions &O) { O.OnError = OnErrorPolicy::Fallback; }},
      {{"--on-error=skip"},
       [](AlignRequest &R) { R.OnError = OnErrorPolicy::Skip; },
       [](AlignmentOptions &O) { O.OnError = OnErrorPolicy::Skip; }},
      {{"--effort-policy", "scaled-cold-greedy"},
       [](AlignRequest &R) { R.Effort = EffortPolicy::ScaledColdGreedy; },
       [](AlignmentOptions &O) { O.Effort = EffortPolicy::ScaledColdGreedy; }},
      {{"--aligner", "exttsp"},
       [](AlignRequest &R) {
         R.Objective.emplace().Primary = PrimaryAligner::ExtTsp;
       },
       [](AlignmentOptions &O) { O.Primary = PrimaryAligner::ExtTsp; }},
      {{"--aligner", "tsp"},
       [](AlignRequest &R) { R.Objective.emplace(); },
       [](AlignmentOptions &) {}},
      {{"--objective", "fallthrough"},
       [](AlignRequest &R) {
         R.Objective.emplace().Kind = ObjectiveKind::Fallthrough;
       },
       [](AlignmentOptions &O) { O.Objective = ObjectiveKind::Fallthrough; }},
      {{"--exttsp-window", "256"},
       [](AlignRequest &R) { R.Objective = ObjectiveBlock{{256, 256}}; },
       [](AlignmentOptions &O) {
         O.Model.ExtTspForwardWindow = O.Model.ExtTspBackwardWindow = 256;
       }},
      {{"--exttsp-weights", "0.25,0.5"},
       [](AlignRequest &R) {
         R.Objective = ObjectiveBlock{{1024, 640, 0.25, 0.5}};
       },
       [](AlignmentOptions &O) {
         O.Model.ExtTspForwardWeight = 0.25;
         O.Model.ExtTspBackwardWeight = 0.5;
       }},
      {{"--encoding", "short-long"},
       [](AlignRequest &R) {
         R.Encoding.emplace().Encoding = BranchEncoding::ShortLong;
       },
       [](AlignmentOptions &O) {
         O.Model.Encoding = BranchEncoding::ShortLong;
       }},
      {{"--short-range", "0"},
       [](AlignRequest &R) { R.Encoding.emplace().ShortBranchRange = 0; },
       [](AlignmentOptions &O) { O.Model.ShortBranchRange = 0; }},
  };
  return Cases;
}

std::string label(const Args &A) {
  std::string Out;
  for (const std::string &S : A)
    Out += (Out.empty() ? "" : " ") + S;
  return Out;
}

/// What the CLI starts from before applying a request: the default
/// options (a request always sets ComputeBounds and the seed).
AlignmentOptions defaultCliOptions() {
  AlignmentOptions O;
  O.ComputeBounds = false;
  O.Solver.Seed = 1;
  return O;
}

/// One configuration's observable output and its cache keys.
struct Outcome {
  std::string Report;
  std::vector<Fingerprint> Keys;
};

Outcome runOneShot(const Program &Prog, const AlignRequest &Req,
                   const AlignmentOptions &Options) {
  ProgramProfile Counts = synthesizeProfile(Prog, Req.Seed, Req.Budget);
  ProgramAlignment Result = alignProgram(Prog, Counts, Options);
  Outcome Out;
  Out.Report = renderAlignmentReport(Prog, Counts, Result,
                                     Options.ComputeBounds,
                                     /*EmitDot=*/false,
                                     primaryAlignerName(Options.Primary));
  for (size_t P = 0; P != Prog.numProcedures(); ++P)
    Out.Keys.push_back(fingerprintProcedureInputs(Prog.proc(P),
                                                  Counts.Procs[P], Options, P));
  return Out;
}

Outcome runFlags(const Program &Prog, const Args &A) {
  RequestFlags Flags = parsed(A);
  AlignmentOptions Options;
  applyAlignRequest(Flags.Request, Options);
  return runOneShot(Prog, Flags.Request, Options);
}

Program program() {
  std::string Error;
  std::optional<Program> Prog = parseProgram(ProgramText, &Error);
  EXPECT_TRUE(Prog.has_value()) << Error;
  return *Prog;
}

Args concat(Args A, const Args &B) {
  A.insert(A.end(), B.begin(), B.end());
  return A;
}

} // namespace

TEST(RequestOptionsTest, ParserAppliesEachFlag) {
  for (const FlagCase &C : flagCases()) {
    SCOPED_TRACE(label(C.Argv));
    AlignRequest Want;
    C.Request(Want);
    EXPECT_EQ(fieldsOf(Want), fieldsOf(parsed(C.Argv).Request));
  }
}

TEST(RequestOptionsTest, ParserRecordsPresenceBits) {
  EXPECT_TRUE(parsed({"--on-error", "abort"}).OnErrorGiven);
  EXPECT_TRUE(parsed({"--on-error=abort"}).OnErrorGiven);
  EXPECT_TRUE(parsed({"--objective", "exttsp"}).ObjectiveGiven);
  EXPECT_TRUE(parsed({"--short-range", "32768"}).ShortRangeGiven);
  RequestFlags Others = parsed({"--seed", "3", "--aligner", "exttsp",
                                "--encoding", "fixed", "--bounds"});
  EXPECT_FALSE(Others.OnErrorGiven);
  EXPECT_FALSE(Others.ObjectiveGiven);
  EXPECT_FALSE(Others.ShortRangeGiven);
}

TEST(RequestOptionsTest, ParserAcceptsTheRangeBoundaries) {
  EXPECT_EQ(1u, parsed({"--exttsp-window", "1"})
                    .Request.Objective->ExtTspForwardWindow);
  AlignRequest Widest = parsed({"--exttsp-window", "1048576"}).Request;
  EXPECT_EQ(MaxExtTspWindow, Widest.Objective->ExtTspBackwardWindow);
  AlignRequest Weights = parsed({"--exttsp-weights", "0,1024"}).Request;
  EXPECT_EQ(0.0, Weights.Objective->ExtTspForwardWeight);
  EXPECT_EQ(MaxExtTspWeight, Weights.Objective->ExtTspBackwardWeight);
  AlignRequest MaxSeed = parsed({"--seed", "18446744073709551615"}).Request;
  EXPECT_EQ(UINT64_MAX, MaxSeed.Seed);
}

TEST(RequestOptionsTest, ParserRejectsMalformedValues) {
  const std::vector<Args> Bad = {
      // Missing values.
      {"--seed"}, {"--budget"}, {"--on-error"}, {"--effort-policy"},
      {"--aligner"}, {"--objective"}, {"--exttsp-window"},
      {"--exttsp-weights"}, {"--encoding"}, {"--short-range"},
      // Out of range or not a strict decimal.
      {"--seed", "-1"}, {"--seed", "18446744073709551616"},
      {"--budget", "12x"}, {"--short-range", "+5"},
      {"--exttsp-window", "0"}, {"--exttsp-window", "1048577"},
      {"--exttsp-weights", "0.1,1024.5"}, {"--exttsp-weights", "-1,0"},
      {"--exttsp-weights", "0.1"},
      // Unknown names.
      {"--on-error", "retry"}, {"--on-error="}, {"--on-error=Abort"},
      {"--effort-policy", "max"}, {"--aligner", "greedy"},
      {"--aligner", "cg"}, {"--aligner", "original"},
      {"--objective", "tsp"}, {"--encoding", "sideways"},
  };
  for (const Args &A : Bad) {
    SCOPED_TRACE(label(A));
    RequestFlags Flags;
    EXPECT_EQ(FlagParse::Error, parseAll(A, Flags));
    EXPECT_EQ(fieldsOf(AlignRequest{}), fieldsOf(Flags.Request));
  }
}

TEST(RequestOptionsTest, ParserLeavesOtherFlagsAlone) {
  for (const Args &A : std::vector<Args>{{"--threads", "4"},
                                         {"--deadline", "5"},
                                         {"--ping"},
                                         {"file.cfg"},
                                         {"--seeds", "1"},
                                         {"--on-errors"}}) {
    SCOPED_TRACE(label(A));
    RequestFlags Flags;
    EXPECT_EQ(FlagParse::NotMine, parseAll(A, Flags));
  }
}

TEST(RequestOptionsTest, BatchLinesSkipBlanksAndCommentsAndReadTwoColumns) {
  std::string Program = "stale.cfg", Profile = "stale.prof";
  for (const char *Skipped : {"", " \t ", "# a comment", "  #prog.cfg p"}) {
    SCOPED_TRACE(Skipped);
    EXPECT_FALSE(parseBatchLine(Skipped, Program, Profile));
  }
  ASSERT_TRUE(parseBatchLine(" prog.cfg\tprof.prof  ", Program, Profile));
  EXPECT_EQ("prog.cfg", Program);
  EXPECT_EQ("prof.prof", Profile);
  // One column names no profile, whatever the previous line named.
  ASSERT_TRUE(parseBatchLine("other.cfg", Program, Profile));
  EXPECT_EQ("other.cfg", Program);
  EXPECT_EQ("", Profile);
  // A field that starts with '#' ends the line; a '#' inside one does
  // not.
  ASSERT_TRUE(parseBatchLine("zlib_like.cfg # the zlib model", Program,
                             Profile));
  EXPECT_EQ("zlib_like.cfg", Program);
  EXPECT_EQ("", Profile);
  ASSERT_TRUE(parseBatchLine("a.cfg a.prof #x y", Program, Profile));
  EXPECT_EQ("a.cfg", Program);
  EXPECT_EQ("a.prof", Profile);
  ASSERT_TRUE(parseBatchLine("a#1.cfg b#2.prof", Program, Profile));
  EXPECT_EQ("a#1.cfg", Program);
  EXPECT_EQ("b#2.prof", Profile);
}

TEST(RequestOptionsTest, EveryFlagSurvivesTheWire) {
  std::vector<Args> Cases;
  Args All;
  for (const FlagCase &C : flagCases()) {
    Cases.push_back(C.Argv);
    All = concat(All, C.Argv);
  }
  Cases.push_back(All);
  // The parser's range boundaries decode too.
  Cases.push_back({"--exttsp-window", "1048576", "--exttsp-weights",
                   "1024,0"});
  for (const Args &A : Cases) {
    SCOPED_TRACE(label(A));
    AlignRequest Sent = parsed(A).Request;
    Sent.CfgText = ProgramText;
    AlignRequest Received;
    std::string Error;
    ASSERT_TRUE(decodeAlignRequest(encodeAlignRequest(Sent), Received,
                                   &Error))
        << Error;
    EXPECT_EQ(fieldsOf(Sent), fieldsOf(Received));
  }
}

TEST(RequestOptionsTest, MappingMatchesHandBuiltOptions) {
  for (const FlagCase &C : flagCases()) {
    SCOPED_TRACE(label(C.Argv));
    AlignmentOptions Want = defaultCliOptions();
    C.Options(Want);
    AlignmentOptions Got;
    applyAlignRequest(parsed(C.Argv).Request, Got);
    EXPECT_EQ(fieldsOf(Want), fieldsOf(Got));
  }
}

/// A server base with every request option off its default, and the
/// three fields that are not request options set too.
AlignmentOptions nonDefaultBase() {
  AlignmentOptions Base;
  Base.Threads = 3;
  Base.CachePath = "warm";
  Base.ProcBudgetMs = 40;
  Base.Solver.Seed = 9;
  Base.ComputeBounds = true;
  Base.OnError = OnErrorPolicy::Skip;
  Base.Effort = EffortPolicy::Scaled;
  Base.Primary = PrimaryAligner::ExtTsp;
  Base.Objective = ObjectiveKind::Fallthrough;
  Base.Model.ExtTspForwardWindow = 77;
  Base.Model.ExtTspBackwardWeight = 0.5;
  Base.Model.Encoding = BranchEncoding::ShortLong;
  Base.Model.ShortBranchRange = 12;
  return Base;
}

TEST(RequestOptionsTest, MappingWithoutExtensionsResetsThemToDefaults) {
  // The server applies requests onto its own base; a request without the
  // objective or encoding block gets those blocks' defaults, so nothing
  // of the base's request options survives. Threads, the cache path and
  // the procedure budget are not request options and keep their values.
  AlignmentOptions Base = nonDefaultBase();
  AlignmentOptions Want = defaultCliOptions();
  Want.Solver.Seed = 5;
  Want.Threads = Base.Threads;
  Want.CachePath = Base.CachePath;
  Want.ProcBudgetMs = Base.ProcBudgetMs;
  AlignmentOptions Got = Base;
  applyAlignRequest(parsed({"--seed", "5"}).Request, Got);
  EXPECT_EQ(fieldsOf(Want), fieldsOf(Got));
}

TEST(RequestOptionsTest, ReportChangesOnlyWithTheCacheKey) {
  Program Prog = program();
  const std::vector<Args> Bases = {
      {"--budget", "3000"},
      {"--budget", "3000", "--aligner", "exttsp"},
      {"--budget", "3000", "--encoding", "short-long", "--short-range", "64"},
  };
  size_t Changed = 0;
  for (const Args &Base : Bases) {
    Outcome Before = runFlags(Prog, Base);
    for (const FlagCase &C : flagCases()) {
      Args Flipped = concat(Base, C.Argv);
      SCOPED_TRACE(label(Flipped));
      Outcome After = runFlags(Prog, Flipped);
      if (After.Report != Before.Report) {
        ++Changed;
        EXPECT_NE(Before.Keys, After.Keys)
            << "the report changed but the cache key did not";
      }
    }
  }
  // Not vacuous: seed, budget, bounds and the aligner all show.
  EXPECT_GE(Changed, 10u);
}

TEST(RequestOptionsTest, InertFlagsLeaveTheKeyUnchanged) {
  Program Prog = program();
  const Args Tsp = {"--budget", "3000"};
  Outcome Base = runFlags(Prog, Tsp);
  // The Ext-TSP knobs under the tsp primary, and the short range (or an
  // explicit fixed encoding) under the fixed encoding.
  for (const Args &Flip :
       std::vector<Args>{{"--objective", "fallthrough"},
                         {"--exttsp-window", "256"},
                         {"--exttsp-weights", "0.25,0.5"},
                         {"--short-range", "64"},
                         {"--encoding", "fixed"},
                         {"--on-error", "skip"}}) {
    SCOPED_TRACE(label(Flip));
    Outcome After = runFlags(Prog, concat(Tsp, Flip));
    EXPECT_EQ(Base.Keys, After.Keys);
    EXPECT_EQ(Base.Report, After.Report);
  }

  // Held-Karp options count only when bounds are computed.
  for (bool Bounds : {false, true}) {
    SCOPED_TRACE(Bounds ? "--bounds" : "no --bounds");
    RequestFlags Flags = parsed(Bounds ? concat(Tsp, {"--bounds"}) : Tsp);
    AlignmentOptions Options;
    applyAlignRequest(Flags.Request, Options);
    Outcome Plain = runOneShot(Prog, Flags.Request, Options);
    Options.HeldKarp.Iterations = 7;
    Outcome Tuned = runOneShot(Prog, Flags.Request, Options);
    EXPECT_EQ(!Bounds, Plain.Keys == Tuned.Keys);
  }
}

TEST(RequestOptionsTest, ServedReportEqualsOneShot) {
  Program Prog = program();
  AlignmentOptions ServerBase;
  AlignService Service(ServerBase);
  for (const Args &A :
       std::vector<Args>{{"--aligner", "exttsp", "--exttsp-window", "256"},
                         {"--encoding", "short-long", "--short-range", "256"},
                         {"--bounds", "--seed", "4", "--budget", "900"}}) {
    SCOPED_TRACE(label(A));
    Outcome OneShot = runFlags(Prog, A);
    AlignRequest Req = parsed(A).Request;
    Req.CfgText = ProgramText;
    Frame Response = Service.handleAlign(encodeAlignRequest(Req));
    ASSERT_EQ(FrameType::AlignOk, Response.Type) << Response.Body;
    EXPECT_EQ(OneShot.Report, Response.Body);
  }
}

TEST(RequestOptionsTest, ServiceOverANonDefaultBaseAnswersLikeOneShot) {
  // A server started with request options of its own must answer a
  // flag-free request with exactly the flag-free one-shot bytes.
  Program Prog = program();
  AlignmentOptions Base = nonDefaultBase();
  AlignService Service(Base);
  AlignRequest Req;
  Req.CfgText = ProgramText;
  Frame Response = Service.handleAlign(encodeAlignRequest(Req));
  ASSERT_EQ(FrameType::AlignOk, Response.Type) << Response.Body;
  EXPECT_EQ(runFlags(Prog, {}).Report, Response.Body);
}

TEST(HashPinTest, PersistedHashesKeepTheirValues) {
  // Journal checksums are on disk, request fingerprints are retry keys,
  // Hasher digests key the cache; none may move.
  std::string Record = "examples/data/interp_like.cfg";
  EXPECT_EQ(0x3bf6e0703f561780ULL,
            journalChecksum(Record.data(), Record.size()));
  EXPECT_EQ(0xc3817c016ba4ff30ULL, journalChecksum("", 0));
  EXPECT_EQ(0x68a1bae2c4fc5a96ULL, requestFingerprint(AlignRequest{}));
  Hasher H;
  H.str("balign");
  H.u64(42);
  H.f64(0.5);
  Fingerprint F = H.digest();
  EXPECT_EQ(0x15c5ad9f5cba41b3ULL, F.Hi);
  EXPECT_EQ(0xde9af8f07ac26248ULL, F.Lo);
  EXPECT_EQ("7698f737e7110e95:ac74a74ac221601a", Hasher().digest().str());
}

TEST(HashPinTest, SplitMixStreamsKeepTheirValues) {
  uint64_t State = 1;
  EXPECT_EQ(0x910a2dec89025cc1ULL, splitMix64(State));
  EXPECT_EQ(0xbeeb8da1658eec67ULL, splitMix64(State));
  EXPECT_EQ(0xbeeb8da1658eec67ULL, splitMix64Mix(1 + GoldenGamma));
  EXPECT_EQ(0xb358faf74ef9765aULL, Rng(7).next());
  EXPECT_EQ(Fnv1aOffset, fnv1a64("", 0));
  // The rate=1/4@7 fault coin: which of the first 64 hits fail.
  FaultSpec Spec = FaultSpec::rate(1, 4, 7);
  uint64_t Mask = 0;
  for (uint64_t Hit = 1; Hit <= 64; ++Hit)
    if (Spec.fires(Hit))
      Mask |= uint64_t(1) << (Hit - 1);
  EXPECT_EQ(0x08288821c60c2001ULL, Mask);
}
