//===- static/FlowSolver.cpp ----------------------------------------------===//

#include "static/FlowSolver.h"

#include <string>

using namespace balign;

const char *balign::profileClassName(ProfileClass C) {
  switch (C) {
  case ProfileClass::Consistent:
    return "consistent";
  case ProfileClass::Repairable:
    return "repairable";
  case ProfileClass::Contradictory:
    return "contradictory";
  }
  return "?";
}

namespace {

// Sums of many uint64 counts can exceed 64 bits before the contradiction
// is noticed; accumulate wider so wrap-around cannot fake a balance.
using WideSum = unsigned __int128;

/// \p Sum, or 2^64 - 1 when it does not fit 64 bits.
uint64_t clamped(WideSum Sum) {
  return static_cast<uint64_t>(Sum > (~WideSum(0) >> 64) ? ~uint64_t(0)
                                                         : Sum);
}

/// One conservation equation: the counts of Edges must sum to Target
/// (or stay <= Target for the entry-inflow inequality).
struct Equation {
  BlockId Block = InvalidBlock;
  bool Inflow = false;
  bool UpperBoundOnly = false; ///< Entry inflow: <= instead of ==.
  uint64_t Target = 0;
  std::vector<size_t> Edges; ///< Flat edge indices, canonical order.
};

std::string edgeName(const Procedure &Proc, BlockId From, size_t Succ) {
  return "edge " + std::to_string(From) + "->" +
         std::to_string(Proc.successors(From)[Succ]);
}

} // namespace

std::vector<FlowViolation>
balign::flowViolations(const Procedure &Proc,
                       const ProcedureProfile &Profile) {
  // Outflow deficits are violations too: lint has no truncation-slack
  // escape hatch, and balign-verify's profile-flow pass, which reads
  // these, turns deficits into its truncation warning itself.
  size_t N = Proc.numBlocks();
  std::vector<FlowViolation> Violations;
  std::vector<WideSum> Inflow(N, 0);
  for (BlockId B = 0; B != N; ++B)
    for (size_t S = 0; S != Proc.successors(B).size(); ++S)
      Inflow[Proc.successors(B)[S]] += Profile.EdgeCounts[B][S];
  for (BlockId B = 0; B != N; ++B) {
    uint64_t Count = Profile.BlockCounts[B];
    bool EntryOk = B == Proc.entry() && Inflow[B] <= Count;
    if (!EntryOk && Inflow[B] != Count)
      Violations.push_back({B, /*Inflow=*/true, clamped(Inflow[B]), Count});
    if (Proc.block(B).Kind == TerminatorKind::Return)
      continue;
    WideSum Out = 0;
    for (uint64_t EC : Profile.EdgeCounts[B])
      Out += EC;
    if (Out != Count)
      Violations.push_back({B, /*Inflow=*/false, clamped(Out), Count});
  }
  return Violations;
}

FlowAnalysis balign::analyzeFlow(const Procedure &Proc,
                                 const ProcedureProfile &Profile,
                                 const EdgeMask *Known) {
  FlowAnalysis Result;
  Result.Repaired = Profile;
  if (!Profile.shapeMatches(Proc)) {
    Result.Class = ProfileClass::Contradictory;
    Result.Contradiction = "profile shape does not match the procedure";
    return Result;
  }
  size_t N = Proc.numBlocks();

  // Flatten (From, SuccIndex) into one edge index space.
  std::vector<size_t> EdgeBase(N + 1, 0);
  for (BlockId B = 0; B != N; ++B)
    EdgeBase[B + 1] = EdgeBase[B] + Proc.successors(B).size();
  size_t NumEdges = EdgeBase[N];
  auto edgeFrom = [&](size_t E) {
    BlockId B = 0;
    while (EdgeBase[B + 1] <= E)
      ++B;
    return B;
  };

  // Which edges are variables, and the working value of every edge.
  std::vector<uint8_t> IsUnknown(NumEdges, 0);
  std::vector<uint8_t> IsSet(NumEdges, 0);
  std::vector<uint64_t> Value(NumEdges, 0);
  for (BlockId B = 0; B != N; ++B)
    for (size_t S = 0; S != Proc.successors(B).size(); ++S) {
      size_t E = EdgeBase[B] + S;
      uint64_t Given = Profile.EdgeCounts[B][S];
      bool Unknown;
      if (Known)
        Unknown = !(*Known)[B][S];
      else
        Unknown = Given == 0 && Profile.BlockCounts[B] != 0 &&
                  Profile.BlockCounts[Proc.successors(B)[S]] != 0;
      IsUnknown[E] = Unknown;
      IsSet[E] = !Unknown;
      Value[E] = Unknown ? 0 : Given;
    }

  Result.Violations = flowViolations(Proc, Profile);

  // Build the equation system: one OUT equation per non-Return block, one
  // IN equation per block (the entry's is an upper bound only).
  std::vector<Equation> Eqs;
  for (BlockId B = 0; B != N; ++B) {
    if (Proc.block(B).Kind != TerminatorKind::Return) {
      Equation Out;
      Out.Block = B;
      Out.Target = Profile.BlockCounts[B];
      for (size_t S = 0; S != Proc.successors(B).size(); ++S)
        Out.Edges.push_back(EdgeBase[B] + S);
      Eqs.push_back(std::move(Out));
    }
  }
  {
    std::vector<std::vector<size_t>> InEdges(N);
    for (BlockId B = 0; B != N; ++B)
      for (size_t S = 0; S != Proc.successors(B).size(); ++S)
        InEdges[Proc.successors(B)[S]].push_back(EdgeBase[B] + S);
    for (BlockId B = 0; B != N; ++B) {
      Equation In;
      In.Block = B;
      In.Inflow = true;
      In.UpperBoundOnly = B == Proc.entry();
      In.Target = Profile.BlockCounts[B];
      In.Edges = std::move(InEdges[B]);
      Eqs.push_back(std::move(In));
    }
  }

  auto contradict = [&](const std::string &Msg) {
    Result.Class = ProfileClass::Contradictory;
    if (Result.Contradiction.empty())
      Result.Contradiction = Msg;
  };

  // Single-unknown propagation to a fixpoint: any equality with exactly
  // one unset edge determines it. Round-based ascending scans keep the
  // result independent of discovery order.
  auto propagate = [&]() {
    bool Changed = true;
    while (Changed && Result.Class != ProfileClass::Contradictory) {
      Changed = false;
      for (const Equation &Eq : Eqs) {
        if (Eq.UpperBoundOnly)
          continue;
        WideSum KnownSum = 0;
        size_t Unset = 0, Last = 0;
        for (size_t E : Eq.Edges) {
          if (IsSet[E])
            KnownSum += Value[E];
          else {
            ++Unset;
            Last = E;
          }
        }
        if (Unset == 1) {
          if (KnownSum > Eq.Target) {
            contradict((Eq.Inflow ? "inflow of block " : "outflow of block ") +
                       std::to_string(Eq.Block) + " already exceeds count " +
                       std::to_string(Eq.Target) +
                       "; no value for the missing " +
                       edgeName(Proc, edgeFrom(Last), Last - EdgeBase[edgeFrom(Last)]) +
                       " can balance it");
            return;
          }
          IsSet[Last] = 1;
          Value[Last] = static_cast<uint64_t>(Eq.Target - KnownSum);
          Changed = true;
        }
      }
    }
  };

  propagate();

  // Underdetermined residue: hand each still-open OUT equation its full
  // residual on the lowest-numbered open edge, zero its siblings, then
  // re-propagate. Every unknown edge leaves a non-Return block, so this
  // pass settles all of them.
  for (size_t I = 0; I != Eqs.size() &&
                     Result.Class != ProfileClass::Contradictory;
       ++I) {
    const Equation &Eq = Eqs[I];
    if (Eq.Inflow)
      continue;
    WideSum KnownSum = 0;
    size_t First = NumEdges;
    bool Any = false;
    for (size_t E : Eq.Edges) {
      if (IsSet[E])
        KnownSum += Value[E];
      else {
        Any = true;
        if (E < First)
          First = E;
      }
    }
    if (!Any)
      continue;
    if (KnownSum > Eq.Target) {
      contradict("outflow of block " + std::to_string(Eq.Block) +
                 " already exceeds count " + std::to_string(Eq.Target));
      break;
    }
    for (size_t E : Eq.Edges)
      if (!IsSet[E]) {
        IsSet[E] = 1;
        Value[E] = E == First ? static_cast<uint64_t>(Eq.Target - KnownSum) : 0;
      }
    propagate();
  }

  // Final audit: with everything assigned, every equation must hold.
  if (Result.Class != ProfileClass::Contradictory)
    for (const Equation &Eq : Eqs) {
      WideSum Sum = 0;
      for (size_t E : Eq.Edges)
        Sum += Value[E];
      bool Ok = Eq.UpperBoundOnly ? Sum <= Eq.Target : Sum == Eq.Target;
      if (!Ok) {
        contradict((Eq.Inflow ? "inflow " : "outflow ") +
                   std::to_string(clamped(Sum)) +
                   (Eq.UpperBoundOnly ? " exceeds count " : " != count ") +
                   std::to_string(Eq.Target) + " at block " +
                   std::to_string(Eq.Block) +
                   " under every assignment of the missing counts");
        break;
      }
    }

  // Repairs: unknown edges whose reconstructed value differs from the
  // given count. A consistent profile reconstructs to itself.
  for (BlockId B = 0; B != N; ++B)
    for (size_t S = 0; S != Proc.successors(B).size(); ++S) {
      size_t E = EdgeBase[B] + S;
      if (!IsUnknown[E])
        continue;
      Result.Repaired.EdgeCounts[B][S] = Value[E];
      if (Value[E] != Profile.EdgeCounts[B][S])
        Result.Repairs.push_back({B, S, Proc.successors(B)[S], Value[E]});
    }

  if (Result.Class != ProfileClass::Contradictory)
    Result.Class = Result.Violations.empty() ? ProfileClass::Consistent
                                             : ProfileClass::Repairable;
  return Result;
}
