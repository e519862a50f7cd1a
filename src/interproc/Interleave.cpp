//===- interproc/Interleave.cpp -------------------------------------------------===//

#include "interproc/Interleave.h"

#include <algorithm>
#include <cassert>

using namespace balign;

/// Number of "phase cluster" groups; procedures in the same cluster tend
/// to run near each other in time (modeling call locality).
constexpr unsigned NumClusters = 4;

CallSequence
balign::generateCallSequence(const std::vector<uint64_t> &InvocationCounts,
                             const InterleaveOptions &Options) {
  size_t NumProcs = InvocationCounts.size();
  Rng Rand(Options.Seed);

  // Assign procedures to phase clusters.
  std::vector<unsigned> ClusterOf(NumProcs);
  for (size_t P = 0; P != NumProcs; ++P)
    ClusterOf[P] = static_cast<unsigned>(Rand.nextBelow(NumClusters));

  std::vector<uint64_t> Remaining = InvocationCounts;
  uint64_t TotalRemaining = 0;
  for (uint64_t C : Remaining)
    TotalRemaining += C;

  CallSequence Sequence;
  Sequence.reserve(TotalRemaining);

  // Draw a procedure weighted by its remaining invocations, preferring
  // the current cluster; emit a geometric burst of its invocations.
  double ContinueBurst =
      Options.BurstLength > 1.0 ? 1.0 - 1.0 / Options.BurstLength : 0.0;
  unsigned CurrentCluster = 0;
  while (TotalRemaining != 0) {
    // Occasionally switch phase cluster.
    if (Rand.nextBool(0.1))
      CurrentCluster = static_cast<unsigned>(Rand.nextBelow(NumClusters));

    // Weighted pick: remaining invocations, x4 within the cluster.
    uint64_t WeightSum = 0;
    for (size_t P = 0; P != NumProcs; ++P)
      WeightSum += Remaining[P] * (ClusterOf[P] == CurrentCluster ? 4 : 1);
    if (WeightSum == 0)
      break;
    uint64_t Draw = Rand.nextBelow(WeightSum);
    size_t Pick = 0;
    for (size_t P = 0; P != NumProcs; ++P) {
      uint64_t W = Remaining[P] * (ClusterOf[P] == CurrentCluster ? 4 : 1);
      if (Draw < W) {
        Pick = P;
        break;
      }
      Draw -= W;
    }

    // Burst of invocations of the picked procedure.
    do {
      Sequence.push_back(Pick);
      --Remaining[Pick];
      --TotalRemaining;
    } while (Remaining[Pick] != 0 && Rand.nextBool(ContinueBurst));
  }

  assert(Sequence.size() ==
             [&] {
               uint64_t Sum = 0;
               for (uint64_t C : InvocationCounts)
                 Sum += C;
               return Sum;
             }() &&
         "call sequence must consume every invocation");
  return Sequence;
}

std::vector<std::vector<uint64_t>>
balign::computeAffinity(const CallSequence &Sequence, size_t NumProcs,
                        size_t Window) {
  std::vector<std::vector<uint64_t>> Affinity(
      NumProcs, std::vector<uint64_t>(NumProcs, 0));
  for (size_t I = 0; I != Sequence.size(); ++I) {
    size_t A = Sequence[I];
    assert(A < NumProcs && "call sequence names an unknown procedure");
    size_t End = std::min(Sequence.size(), I + 1 + Window);
    for (size_t J = I + 1; J != End; ++J) {
      size_t B = Sequence[J];
      if (A == B)
        continue;
      ++Affinity[A][B];
      ++Affinity[B][A];
    }
  }
  return Affinity;
}
