//===- tests/displace_test.cpp - Branch-displacement fixpoint tests -------===//
//
// The balign-displace contracts: shared address assignment agrees with
// the hand-rolled loops it replaced, the grow-until-fixpoint solve
// terminates on the least fixpoint (sound and minimal), the pipeline
// stays bit-identical at every thread count under a variable encoding,
// the verify pass catches tampered encodings, the cache fingerprint
// keys on the encoding parameters exactly when they can matter, and the
// serve extension block round-trips while legacy frames stay
// byte-identical.
//
//===--------------------------------------------------------------------===//

#include "objective/Displace.h"

#include "align/Pipeline.h"
#include "align/Reduction.h"
#include "analysis/PipelineVerifier.h"
#include "analysis/Verifier.h"
#include "cache/Fingerprint.h"
#include "objective/Penalty.h"
#include "profile/Trace.h"
#include "serve/Protocol.h"
#include "workloads/Generator.h"

#include <gtest/gtest.h>

using namespace balign;

namespace {

/// One random procedure plus a training profile collected from a
/// uniform-behavior trace; deterministic in the seed.
struct Sample {
  Procedure Proc{"s"};
  ProcedureProfile Train;
};

Sample makeSample(uint64_t Seed, unsigned Sites = 14) {
  Rng R(Seed);
  GenParams Params;
  Params.TargetBranchSites = Sites;
  Sample S;
  S.Proc = generateProcedure("s" + std::to_string(Seed), Params, R).Proc;
  Rng TraceRng(Seed * 977 + 3);
  S.Train = walkProfile(S.Proc, BranchBehavior::uniform(S.Proc), TraceRng, 400);
  return S;
}

/// The Alpha model with the ShortLong encoding at the given range.
MachineModel shortLongModel(uint64_t Range) {
  MachineModel M = MachineModel::alpha21164();
  M.Encoding = BranchEncoding::ShortLong;
  M.ShortBranchRange = Range;
  return M;
}

/// A range small enough that random procedures of the default size
/// reliably push some branches long.
constexpr uint64_t TightRange = 16;

size_t countCheck(const DiagnosticEngine &Diags, CheckId Check) {
  size_t N = 0;
  for (const Diagnostic &D : Diags.diagnostics())
    N += D.Check == Check ? 1 : 0;
  return N;
}

const uint64_t CorpusSeeds[] = {3, 17, 29, 61, 101, 257};

//===--- Shared address assignment ---------------------------------------===//

// Under the fixed encoding the shared routine must reproduce the exact
// InstrCount * BytesPerInstr prefix sums the seven former call sites
// hand-rolled; any drift would silently corrupt every byte-distance
// consumer at once.
TEST(DisplaceAddressTest, FixedMatchesHandRolledPrefixSums) {
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    MachineModel Model = MachineModel::alpha21164();
    MaterializedLayout Mat =
        materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
    uint64_t Address = 0;
    for (const LayoutItem &Item : Mat.Items) {
      EXPECT_FALSE(Item.LongForm) << "seed " << Seed;
      EXPECT_EQ(Item.Address, Address) << "seed " << Seed;
      Address += uint64_t{Item.SizeInstrs} * BytesPerInstr;
    }
    EXPECT_EQ(Mat.TotalBytes, Address) << "seed " << Seed;
    EXPECT_EQ(Mat.NumLongBranches, 0u) << "seed " << Seed;
    for (BlockId B = 0; B != S.Proc.numBlocks(); ++B)
      EXPECT_EQ(blockBytes(S.Proc, B),
                uint64_t{S.Proc.block(B).InstrCount} * BytesPerInstr);
  }
}

TEST(DisplaceAddressTest, ItemBytesAddsLongFormGrowth) {
  MachineModel Model = shortLongModel(TightRange);
  Model.LongBranchExtraInstrs = 3;
  LayoutItem Item;
  Item.SizeInstrs = 5;
  EXPECT_EQ(itemBytes(Item, Model), 5 * BytesPerInstr);
  Item.LongForm = true;
  EXPECT_EQ(itemBytes(Item, Model), (5 + 3) * BytesPerInstr);
  EXPECT_EQ(instructionIndex(itemBytes(Item, Model)), 8u);
}

//===--- The displacement fixpoint ---------------------------------------===//

// Termination and determinism: re-solving from scratch converges within
// the |sites| + 1 round bound and lands on the exact same encoding
// (solveDisplacement is a pure function of its inputs).
TEST(DisplaceFixpointTest, TerminatesWithinSiteBoundAndIsDeterministic) {
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    MachineModel Model = shortLongModel(TightRange);
    MaterializedLayout Mat =
        materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
    MaterializedLayout Replay = Mat;
    DisplaceStats Stats = solveDisplacement(S.Proc, Replay, Model);
    size_t NumSites = collectBranchSites(S.Proc, Mat).size();
    EXPECT_LE(Stats.Iterations, NumSites + 1) << "seed " << Seed;
    EXPECT_EQ(Stats.NumLongBranches, Mat.NumLongBranches) << "seed " << Seed;
    EXPECT_EQ(Replay.TotalBytes, Mat.TotalBytes) << "seed " << Seed;
    ASSERT_EQ(Replay.Items.size(), Mat.Items.size());
    for (size_t I = 0; I != Mat.Items.size(); ++I) {
      EXPECT_EQ(Replay.Items[I].Address, Mat.Items[I].Address)
          << "seed " << Seed << " item " << I;
      EXPECT_EQ(Replay.Items[I].LongForm, Mat.Items[I].LongForm)
          << "seed " << Seed << " item " << I;
    }
  }
}

// Soundness and minimality at the fixpoint: every short branch is in
// range, and every long branch is out of range even at final addresses
// (monotone growth never shrinks a displacement, so a widened branch
// stays over the line — which is why displace.not-minimal can be a
// warning the solver itself never triggers).
TEST(DisplaceFixpointTest, FixpointIsSoundAndMinimal) {
  size_t LongSomewhere = 0;
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    MachineModel Model = shortLongModel(TightRange);
    MaterializedLayout Mat =
        materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
    for (const BranchSite &Site : collectBranchSites(S.Proc, Mat)) {
      uint64_t Disp =
          branchDisplacement(Mat, Model, Site.ItemIndex, Site.Target);
      if (Mat.Items[Site.ItemIndex].LongForm)
        EXPECT_GT(Disp, Model.ShortBranchRange) << "seed " << Seed;
      else
        EXPECT_LE(Disp, Model.ShortBranchRange) << "seed " << Seed;
    }
    LongSomewhere += Mat.NumLongBranches;
  }
  // The corpus must actually exercise the widening path.
  EXPECT_GT(LongSomewhere, 0u);
}

// Widening is monotone in the range: a larger short range can only keep
// more branches short.
TEST(DisplaceFixpointTest, LongCountMonotoneInShortRange) {
  const uint64_t Ranges[] = {0, 8, 32, 128, 1024, 1u << 20};
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    size_t PrevLong = SIZE_MAX;
    for (uint64_t Range : Ranges) {
      MachineModel Model = shortLongModel(Range);
      MaterializedLayout Mat =
          materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
      EXPECT_LE(Mat.NumLongBranches, PrevLong)
          << "seed " << Seed << " range " << Range;
      PrevLong = Mat.NumLongBranches;
    }
  }
}

// Degenerate golden: a range no displacement can exceed keeps every
// branch short, and the materialization is identical to the fixed
// encoding's, address for address.
TEST(DisplaceFixpointTest, AllInRangeMatchesFixedEncoding) {
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    MaterializedLayout Fixed = materializeLayout(
        S.Proc, Layout::original(S.Proc), S.Train, MachineModel::alpha21164());
    MaterializedLayout Wide =
        materializeLayout(S.Proc, Layout::original(S.Proc), S.Train,
                          shortLongModel(UINT64_MAX / 2));
    EXPECT_EQ(Wide.NumLongBranches, 0u) << "seed " << Seed;
    EXPECT_EQ(Wide.TotalBytes, Fixed.TotalBytes) << "seed " << Seed;
    ASSERT_EQ(Wide.Items.size(), Fixed.Items.size());
    for (size_t I = 0; I != Fixed.Items.size(); ++I) {
      EXPECT_EQ(Wide.Items[I].Address, Fixed.Items[I].Address)
          << "seed " << Seed << " item " << I;
      EXPECT_FALSE(Wide.Items[I].LongForm) << "seed " << Seed;
    }
  }
}

// Degenerate golden: range 0 widens exactly the branches with a nonzero
// displacement (a branch to the immediately following address needs no
// reach and legitimately stays short).
TEST(DisplaceFixpointTest, ZeroRangeWidensEveryPositiveDisplacement) {
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    MachineModel Model = shortLongModel(0);
    MaterializedLayout Mat =
        materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
    for (const BranchSite &Site : collectBranchSites(S.Proc, Mat)) {
      uint64_t Disp =
          branchDisplacement(Mat, Model, Site.ItemIndex, Site.Target);
      EXPECT_EQ(Mat.Items[Site.ItemIndex].LongForm, Disp > 0)
          << "seed " << Seed << " item " << Site.ItemIndex;
    }
  }
}

//===--- The verify pass --------------------------------------------------===//

TEST(DisplaceVerifyTest, CleanMaterializationsPass) {
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    for (const MachineModel &Model :
         {MachineModel::alpha21164(), shortLongModel(TightRange),
          shortLongModel(0)}) {
      DiagnosticEngine Diags;
      EXPECT_EQ(checkDisplacement(S.Proc, Layout::original(S.Proc), S.Train,
                                  Model, Diags),
                0u)
          << "seed " << Seed;
      EXPECT_EQ(Diags.warningCount(), 0u) << "seed " << Seed;
    }
  }
}

// Soundness tamper: shrink a long branch back to short. With addresses
// honestly recomputed for the tampered encoding, the branch no longer
// reaches its target — the exact bug class Boender & Sacerdoti Coen
// catalog in real assemblers.
TEST(DisplaceVerifyTest, UnwidenedLongBranchIsUnreachable) {
  Sample S = makeSample(17);
  MachineModel Model = shortLongModel(TightRange);
  MaterializedLayout Mat =
      materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
  ASSERT_GT(Mat.NumLongBranches, 0u);
  for (LayoutItem &Item : Mat.Items) {
    if (!Item.LongForm)
      continue;
    Item.LongForm = false;
    --Mat.NumLongBranches;
    break;
  }
  Mat.TotalBytes = assignItemAddresses(Mat.Items, Model);

  // Count the violations the tampered encoding really has, then demand
  // the pass reports exactly those.
  size_t Expected = 0;
  for (const BranchSite &Site : collectBranchSites(S.Proc, Mat))
    if (!Mat.Items[Site.ItemIndex].LongForm &&
        branchDisplacement(Mat, Model, Site.ItemIndex, Site.Target) >
            Model.ShortBranchRange)
      ++Expected;
  ASSERT_GT(Expected, 0u);

  DiagnosticEngine Diags;
  EXPECT_GT(checkDisplacement(S.Proc, Mat, Model, Diags), 0u);
  EXPECT_EQ(countCheck(Diags, CheckId::DisplaceUnreachable), Expected);
  EXPECT_EQ(countCheck(Diags, CheckId::DisplaceAddressMismatch), 0u);
}

// Minimality tamper: widen a branch that did not need it. The code
// still runs, so this must be a warning, not an error.
TEST(DisplaceVerifyTest, NeedlesslyWideBranchWarnsNotMinimal) {
  Sample S = makeSample(17);
  MachineModel Model = shortLongModel(UINT64_MAX / 2);
  MaterializedLayout Mat =
      materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
  std::vector<BranchSite> Sites = collectBranchSites(S.Proc, Mat);
  ASSERT_FALSE(Sites.empty());
  Mat.Items[Sites.front().ItemIndex].LongForm = true;
  ++Mat.NumLongBranches;
  Mat.TotalBytes = assignItemAddresses(Mat.Items, Model);

  DiagnosticEngine Diags;
  EXPECT_EQ(checkDisplacement(S.Proc, Mat, Model, Diags), 0u);
  EXPECT_EQ(countCheck(Diags, CheckId::DisplaceNotMinimal), 1u);
  EXPECT_EQ(Diags.warningCount(), 1u);
}

TEST(DisplaceVerifyTest, CorruptedAddressIsMismatch) {
  Sample S = makeSample(29);
  MachineModel Model = shortLongModel(TightRange);
  MaterializedLayout Mat =
      materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
  ASSERT_GT(Mat.Items.size(), 1u);
  Mat.Items.back().Address += BytesPerInstr;

  DiagnosticEngine Diags;
  EXPECT_GT(checkDisplacement(S.Proc, Mat, Model, Diags), 0u);
  EXPECT_GT(countCheck(Diags, CheckId::DisplaceAddressMismatch), 0u);
}

// Under the fixed encoding the displacement machinery must not have run
// at all: any long-form item is an error even if addresses add up.
TEST(DisplaceVerifyTest, LongFormUnderFixedIsError) {
  Sample S = makeSample(29);
  MachineModel Model = MachineModel::alpha21164();
  MaterializedLayout Mat =
      materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
  Mat.Items.front().LongForm = true;
  Mat.TotalBytes = assignItemAddresses(Mat.Items, Model);

  DiagnosticEngine Diags;
  EXPECT_GT(checkDisplacement(S.Proc, Mat, Model, Diags), 0u);
  EXPECT_GT(countCheck(Diags, CheckId::DisplaceAddressMismatch), 0u);
}

TEST(DisplaceVerifyTest, LongCountMismatchIsError) {
  Sample S = makeSample(61);
  MachineModel Model = shortLongModel(TightRange);
  MaterializedLayout Mat =
      materializeLayout(S.Proc, Layout::original(S.Proc), S.Train, Model);
  ++Mat.NumLongBranches;

  DiagnosticEngine Diags;
  EXPECT_GT(checkDisplacement(S.Proc, Mat, Model, Diags), 0u);
  EXPECT_GT(countCheck(Diags, CheckId::DisplaceAddressMismatch), 0u);
}

//===--- Pipeline integration ---------------------------------------------===//

namespace {

struct ProgramSample {
  Program Prog{"displace"};
  ProgramProfile Train;
};

ProgramSample makeProgram(uint64_t Seed, size_t NumProcs = 4) {
  ProgramSample P;
  for (size_t I = 0; I != NumProcs; ++I) {
    Sample S = makeSample(Seed + 31 * I);
    P.Prog.addProcedure(std::move(S.Proc));
    P.Train.Procs.push_back(std::move(S.Train));
  }
  return P;
}

} // namespace

// The determinism contract extends to the encoding-aware refit round:
// bit-identical layouts and penalties at every thread count.
TEST(DisplacePipelineTest, ShortLongBitIdenticalAcrossThreadCounts) {
  ProgramSample P = makeProgram(7);
  AlignmentOptions Options;
  Options.Model = shortLongModel(TightRange);
  Options.ComputeBounds = false;
  Options.Threads = 1;
  ProgramAlignment Reference = alignProgram(P.Prog, P.Train, Options);
  for (unsigned Threads : {2u, 8u}) {
    Options.Threads = Threads;
    ProgramAlignment Run = alignProgram(P.Prog, P.Train, Options);
    ASSERT_EQ(Run.Procs.size(), Reference.Procs.size());
    for (size_t I = 0; I != Run.Procs.size(); ++I) {
      EXPECT_EQ(Run.Procs[I].TspLayout.Order, Reference.Procs[I].TspLayout.Order)
          << "threads " << Threads << " proc " << I;
      EXPECT_EQ(Run.Procs[I].TspPenalty, Reference.Procs[I].TspPenalty)
          << "threads " << Threads << " proc " << I;
      EXPECT_EQ(Run.Procs[I].GreedyLayout.Order,
                Reference.Procs[I].GreedyLayout.Order)
          << "threads " << Threads << " proc " << I;
    }
  }
}

// The full verify-each battery (which replays stages — including the
// encoding refit in the determinism check — and runs the displace-check
// pass on every produced layout) accepts a short-long pipeline run.
TEST(DisplacePipelineTest, VerifierAcceptsShortLongAlignment) {
  ProgramSample P = makeProgram(13, 3);
  AlignmentOptions Options;
  Options.Model = shortLongModel(64);
  Options.ComputeBounds = false;
  DiagnosticEngine Diags;
  PipelineVerifier Verifier(Diags);
  EXPECT_EQ(Verifier.verifyInputs(P.Prog, P.Train), 0u);
  Verifier.install(Options);
  ProgramAlignment Result = alignProgram(P.Prog, P.Train, Options);
  EXPECT_EQ(Verifier.verifyAlignment(P.Prog, P.Train, Options.Model, Result),
            0u);
  EXPECT_FALSE(Diags.hasErrors());
}

TEST(DisplacePipelineTest, RefitIsNoOpUnderFixedEncoding) {
  Sample S = makeSample(101);
  MachineModel Model = MachineModel::alpha21164();
  AlignmentTsp Atsp = buildAlignmentTsp(S.Proc, S.Train, Model);
  Layout L = Layout::original(S.Proc);
  uint64_t Penalty = evaluateLayout(S.Proc, L, Model, S.Train, S.Train);
  uint64_t Before = Penalty;
  IteratedOptOptions Solver;
  EXPECT_FALSE(
      refineLayoutForEncoding(S.Proc, S.Train, Model, Atsp, Solver, L, Penalty));
  EXPECT_EQ(Penalty, Before);
  EXPECT_EQ(L.Order, Layout::original(S.Proc).Order);
}

// The refit is a pure function (the determinism verify pass replays it
// verbatim) and never worsens the encoding-aware total it optimizes.
TEST(DisplacePipelineTest, RefitDeterministicAndNeverWorsens) {
  for (uint64_t Seed : CorpusSeeds) {
    Sample S = makeSample(Seed);
    MachineModel Model = shortLongModel(TightRange);
    AlignmentTsp Atsp = buildAlignmentTsp(S.Proc, S.Train, Model);
    IteratedOptOptions Solver;
    Layout L = Layout::original(S.Proc);
    uint64_t Penalty = evaluateLayout(S.Proc, L, Model, S.Train, S.Train);
    MaterializedLayout BeforeMat =
        materializeLayout(S.Proc, L, S.Train, Model);
    uint64_t BeforeTotal =
        Penalty + longBranchExtraPenalty(S.Proc, BeforeMat, S.Train, Model);

    Layout L1 = L, L2 = L;
    uint64_t P1 = Penalty, P2 = Penalty;
    bool R1 = refineLayoutForEncoding(S.Proc, S.Train, Model, Atsp, Solver, L1,
                                      P1);
    bool R2 = refineLayoutForEncoding(S.Proc, S.Train, Model, Atsp, Solver, L2,
                                      P2);
    EXPECT_EQ(R1, R2) << "seed " << Seed;
    EXPECT_EQ(L1.Order, L2.Order) << "seed " << Seed;
    EXPECT_EQ(P1, P2) << "seed " << Seed;

    ASSERT_TRUE(L1.isValid(S.Proc)) << "seed " << Seed;
    MaterializedLayout AfterMat =
        materializeLayout(S.Proc, L1, S.Train, Model);
    EXPECT_EQ(P1, evaluateLayout(S.Proc, L1, Model, S.Train, S.Train))
        << "seed " << Seed;
    uint64_t AfterTotal =
        P1 + longBranchExtraPenalty(S.Proc, AfterMat, S.Train, Model);
    EXPECT_LE(AfterTotal, BeforeTotal) << "seed " << Seed;
  }
}

//===--- Cache fingerprinting ---------------------------------------------===//

// Encoding knobs must be inert for fixed-encoding keys (they cannot
// affect the result) and result-affecting under short-long.
TEST(DisplaceFingerprintTest, FixedKeysIgnoreEncodingKnobs) {
  Sample S = makeSample(3);
  AlignmentOptions A;
  AlignmentOptions B;
  B.Model.ShortBranchRange = 64;
  B.Model.LongBranchExtraInstrs = 7;
  B.Model.LongBranchPenalty = 9;
  Fingerprint FA = fingerprintProcedureInputs(S.Proc, S.Train, A, 0);
  Fingerprint FB = fingerprintProcedureInputs(S.Proc, S.Train, B, 0);
  EXPECT_EQ(FA.str(), FB.str());
}

TEST(DisplaceFingerprintTest, ShortLongKeysOnEncodingKnobs) {
  Sample S = makeSample(3);
  AlignmentOptions Fixed;
  AlignmentOptions Short;
  Short.Model = shortLongModel(64);
  Fingerprint FFixed = fingerprintProcedureInputs(S.Proc, S.Train, Fixed, 0);
  Fingerprint FShort = fingerprintProcedureInputs(S.Proc, S.Train, Short, 0);
  EXPECT_NE(FFixed.str(), FShort.str());

  AlignmentOptions Wider = Short;
  Wider.Model.ShortBranchRange = 128;
  EXPECT_NE(fingerprintProcedureInputs(S.Proc, S.Train, Wider, 0).str(),
            FShort.str());

  AlignmentOptions Pricier = Short;
  Pricier.Model.LongBranchPenalty = 5;
  EXPECT_NE(fingerprintProcedureInputs(S.Proc, S.Train, Pricier, 0).str(),
            FShort.str());
}

//===--- Serve protocol extension ----------------------------------------===//

namespace {

AlignRequest basicRequest() {
  AlignRequest Req;
  Req.CfgText = "proc f { b0: instrs 4 ret }\n";
  return Req;
}

/// Byte offset of the flags byte in an encoded align request body
/// (seed u64 + budget u64 + deadline u32 + effort u8 + on-error u8).
constexpr size_t FlagsOffset = 8 + 8 + 4 + 1 + 1;

/// Byte size of the trailing encoding extension block.
constexpr size_t EncodingBlockBytes = 1 + 8 + 4 + 4;

} // namespace

TEST(DisplaceServeTest, EncodingBlockRoundTrips) {
  AlignRequest Req = basicRequest();
  Req.Encoding = BranchEncodingParams{BranchEncoding::ShortLong, 4096, 2, 3};

  AlignRequest Out;
  std::string Error;
  ASSERT_TRUE(decodeAlignRequest(encodeAlignRequest(Req), Out, &Error))
      << Error;
  EXPECT_EQ(Req.Encoding, Out.Encoding);
  EXPECT_EQ(Out.CfgText, Req.CfgText);
}

// Legacy compatibility: a request without the block decodes without it,
// so pre-extension clients and the golden frame corpus keep their bytes.
TEST(DisplaceServeTest, LegacyFramesAreByteIdentical) {
  std::string Body = encodeAlignRequest(basicRequest());
  EXPECT_EQ(0, Body[FlagsOffset]);
  AlignRequest Out;
  Out.Encoding.emplace();
  ASSERT_TRUE(decodeAlignRequest(Body, Out, nullptr));
  EXPECT_FALSE(Out.Encoding);
}

TEST(DisplaceServeTest, RejectsUnknownFlagBits) {
  std::string Body = encodeAlignRequest(basicRequest());
  Body[FlagsOffset] = static_cast<char>(Body[FlagsOffset] | 16);
  AlignRequest Out;
  std::string Error;
  EXPECT_FALSE(decodeAlignRequest(Body, Out, &Error));
  EXPECT_NE(Error.find("unknown flag bits"), std::string::npos) << Error;
}

TEST(DisplaceServeTest, RejectsTruncatedEncodingBlock) {
  AlignRequest Req = basicRequest();
  Req.Encoding.emplace();
  std::string Body = encodeAlignRequest(Req);
  AlignRequest Out;
  std::string Error;
  // Any truncation point inside the block must fail cleanly.
  for (size_t Cut = 1; Cut <= EncodingBlockBytes; ++Cut) {
    EXPECT_FALSE(
        decodeAlignRequest(Body.substr(0, Body.size() - Cut), Out, &Error))
        << "cut " << Cut;
  }
  EXPECT_NE(Error.find("truncated"), std::string::npos) << Error;
}

TEST(DisplaceServeTest, RejectsUnknownEncodingValue) {
  AlignRequest Req = basicRequest();
  Req.Encoding.emplace();
  std::string Body = encodeAlignRequest(Req);
  Body[Body.size() - EncodingBlockBytes] = 2; // Beyond ShortLong.
  AlignRequest Out;
  std::string Error;
  EXPECT_FALSE(decodeAlignRequest(Body, Out, &Error));
  EXPECT_NE(Error.find("unknown branch encoding"), std::string::npos) << Error;
}

TEST(DisplaceServeTest, RejectsOutOfRangeLongParameters) {
  for (bool TweakExtra : {true, false}) {
    AlignRequest Req = basicRequest();
    Req.Encoding.emplace();
    (TweakExtra ? Req.Encoding->LongBranchExtraInstrs
                : Req.Encoding->LongBranchPenalty) = (1u << 20) + 1;
    AlignRequest Out;
    std::string Error;
    EXPECT_FALSE(decodeAlignRequest(encodeAlignRequest(Req), Out, &Error));
    EXPECT_NE(Error.find("out of range"), std::string::npos) << Error;
  }
}

TEST(DisplaceServeTest, RejectsTrailingBytesAfterEncodingBlock) {
  AlignRequest Req = basicRequest();
  Req.Encoding.emplace();
  std::string Body = encodeAlignRequest(Req) + '\0';
  AlignRequest Out;
  std::string Error;
  EXPECT_FALSE(decodeAlignRequest(Body, Out, &Error));
  EXPECT_NE(Error.find("trailing"), std::string::npos) << Error;
}

} // namespace
