//===- support/Hash.h - FNV-1a and SplitMix64 primitives -----------------===//
//
// Part of the balign project (PLDI 1997 branch-alignment reproduction).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// The two hash primitives the rest of the project builds on: 64-bit
/// FNV-1a (Fowler/Noll/Vo) over bytes, and SplitMix64 (Steele, Lea,
/// Flood, "Fast splittable pseudorandom number generators", OOPSLA 2014)
/// as both a generator step and a 64-bit mixer. Their outputs are
/// persisted — journal checksums, cache fingerprints, request
/// fingerprints — and seed every random stream, so the constants here are
/// contract: changing one changes on-disk bytes and every seeded result.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_HASH_H
#define BALIGN_SUPPORT_HASH_H

#include <cstddef>
#include <cstdint>

namespace balign {

/// FNV-1a 64-bit offset basis and prime.
inline constexpr uint64_t Fnv1aOffset = 0xcbf29ce484222325ULL;
inline constexpr uint64_t Fnv1aPrime = 0x100000001b3ULL;

/// SplitMix64's state increment (2^64 / golden ratio), also the usual
/// odd multiplier for folding one 64-bit word into another.
inline constexpr uint64_t GoldenGamma = 0x9e3779b97f4a7c15ULL;

/// FNV-1a over \p Size bytes, continuing from \p H.
inline uint64_t fnv1a64(const void *Data, size_t Size,
                        uint64_t H = Fnv1aOffset) {
  const auto *P = static_cast<const unsigned char *>(Data);
  for (size_t I = 0; I != Size; ++I)
    H = (H ^ P[I]) * Fnv1aPrime;
  return H;
}

/// SplitMix64's finalizer: full avalanche in three multiply-xor rounds.
inline uint64_t splitMix64Finalize(uint64_t Z) {
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

/// SplitMix64 as a stateless mixer: the output of one generator step
/// taken from state \p Z.
inline uint64_t splitMix64Mix(uint64_t Z) {
  return splitMix64Finalize(Z + GoldenGamma);
}

/// One SplitMix64 generator step: advances \p State and returns the next
/// output.
inline uint64_t splitMix64(uint64_t &State) {
  State += GoldenGamma;
  return splitMix64Finalize(State);
}

} // namespace balign

#endif // BALIGN_SUPPORT_HASH_H
