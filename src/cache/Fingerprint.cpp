//===- cache/Fingerprint.cpp ----------------------------------------------===//

#include "cache/Fingerprint.h"

#include "static/EffortPolicy.h"
#include "support/Bytes.h"
#include "support/Hash.h"

#include <cstdio>
#include <cstring>

using namespace balign;

std::string Fingerprint::str() const {
  char Buffer[2 * 16 + 2];
  std::snprintf(Buffer, sizeof(Buffer), "%016llx:%016llx",
                static_cast<unsigned long long>(Hi),
                static_cast<unsigned long long>(Lo));
  return Buffer;
}

void Hasher::bytes(const void *Data, size_t Size) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I) {
    LaneA = (LaneA ^ P[I]) * Fnv1aPrime;
    LaneB = (LaneB + P[I] + 1) * GoldenGamma;
  }
  Length += Size;
}

void Hasher::u32(uint32_t V) {
  char Buffer[sizeof(V)];
  storeLittleEndian(Buffer, V);
  bytes(Buffer, sizeof(Buffer));
}

void Hasher::u64(uint64_t V) {
  char Buffer[sizeof(V)];
  storeLittleEndian(Buffer, V);
  bytes(Buffer, sizeof(Buffer));
}

void Hasher::f64(double V) {
  static_assert(sizeof(double) == sizeof(uint64_t));
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  u64(Bits);
}

void Hasher::str(const std::string &S) {
  u64(S.size());
  bytes(S.data(), S.size());
}

Fingerprint Hasher::digest() const {
  // Stamp the length and cross-mix the lanes so each output word
  // depends on both, then avalanche each word independently.
  uint64_t A = LaneA ^ (Length * 0xff51afd7ed558ccdULL);
  uint64_t B = LaneB + Length;
  Fingerprint F;
  F.Hi = splitMix64Finalize(A + 0x2545f4914f6cdd1dULL * B);
  F.Lo = splitMix64Finalize(B ^ (A >> 17) ^ 0x94d049bb133111ebULL);
  return F;
}

void balign::hashProcedure(Hasher &H, const Procedure &Proc) {
  H.u64(Proc.numBlocks());
  for (BlockId Id = 0; Id != Proc.numBlocks(); ++Id) {
    const BasicBlock &Block = Proc.block(Id);
    H.u32(Block.InstrCount);
    H.u8(static_cast<uint8_t>(Block.Kind));
    H.u64(Proc.successors(Id).size());
  }
  Proc.forEachEdge(
      [&H](BlockId From, size_t SuccIndex, BlockId To) {
        H.u32(From);
        H.u64(SuccIndex);
        H.u32(To);
      });
}

void balign::hashProfile(Hasher &H, const ProcedureProfile &Profile) {
  H.u64(Profile.BlockCounts.size());
  for (uint64_t Count : Profile.BlockCounts)
    H.u64(Count);
  H.u64(Profile.EdgeCounts.size());
  for (const std::vector<uint64_t> &Edges : Profile.EdgeCounts) {
    H.u64(Edges.size());
    for (uint64_t Count : Edges)
      H.u64(Count);
  }
}

void balign::hashMachineModel(Hasher &H, const MachineModel &Model) {
  H.u32(Model.CondFallThrough);
  H.u32(Model.CondTakenCorrect);
  H.u32(Model.CondMispredict);
  H.u32(Model.UncondBranch);
  H.u32(Model.MultiwayPredicted);
  H.u32(Model.MultiwayMispredict);
}

void balign::hashSolverOptions(Hasher &H, const IteratedOptOptions &Solver) {
  H.u32(Solver.GreedyStarts);
  H.u32(Solver.NearestNeighborStarts);
  H.u8(Solver.CanonicalStart ? 1 : 0);
  H.f64(Solver.IterationsFactor);
  H.u32(Solver.MinIterationsPerRun);
  H.u32(MaxIterationsPerRun); // Once an option; keys absorbed it.
  H.u32(Solver.NeighborListSize);
  H.u64(Solver.Seed);
}

void balign::hashHeldKarpOptions(Hasher &H, const HeldKarpOptions &HK) {
  H.u32(HK.Iterations);
  // The alpha and gap-stop constants were options that no caller set,
  // and so was an absolute gap stop (the ascent now derives it from the
  // relative one): every existing key absorbed these values, so
  // absorbing them keeps those keys valid.
  H.f64(HeldKarpInitialAlpha);
  H.f64(HeldKarpRelativeGapStop);
  H.f64(0.0);
}

Fingerprint
balign::fingerprintProcedureInputs(const Procedure &Proc,
                                   const ProcedureProfile &Train,
                                   const AlignmentOptions &Options,
                                   size_t ProcIndex) {
  Hasher H;
  H.u32(CacheFormatVersion);
  hashProcedure(H, Proc);
  hashProfile(H, Train);
  hashMachineModel(H, Options.Model);
  // The option blocks, as their wire bytes. The primary aligner always
  // counts; the rest of its block only under ExtTsp, so it cannot churn
  // the keys of DTSP results it cannot affect.
  auto Objective = objectiveBlockBytes(
      {/*ExtTspParams=*/Options.Model, Options.Primary, Options.Objective});
  H.bytes(Objective.data(),
          Options.Primary == PrimaryAligner::ExtTsp ? Objective.size() : 1);
  // The branch encoding reshapes addresses and triggers the refit
  // round, so its block is result-affecting — but only under a variable
  // encoding. Fixed absorbs nothing, keeping fixed-encoding keys
  // independent of knobs that cannot affect them.
  if (Options.Model.Encoding != BranchEncoding::Fixed) {
    auto Encoding = encodingBlockBytes(Options.Model);
    H.bytes(Encoding.data(), Encoding.size());
  }
  // The effort decision is result-affecting: it rewrites the solver
  // options and may route the procedure to the greedy-only fast path.
  // Hash the *effective* options (after decideEffort — the same pure
  // function the pipeline calls) rather than the policy name, so
  // policies that coincide on a procedure share cache entries.
  EffortDecision Effort =
      decideEffort(Proc, Train, Options.Solver, Options.Effort);
  H.u8(Effort.GreedyOnly ? 1 : 0);
  // The solver options (including the derived per-procedure seed) can
  // only matter on the DTSP path: chain-merged results are
  // seed-independent, so leaving the options out lets
  // differently-seeded ExtTsp runs share entries.
  if (Options.Primary == PrimaryAligner::Tsp) {
    IteratedOptOptions Derived = Effort.Solver;
    Derived.Seed = derivedSolverSeed(Options.Solver.Seed, ProcIndex);
    hashSolverOptions(H, Derived);
  }
  H.u8(Options.ComputeBounds ? 1 : 0);
  if (Options.ComputeBounds)
    hashHeldKarpOptions(H, Options.HeldKarp);
  return H.digest();
}
