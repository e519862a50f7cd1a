//===- support/Random.h - Deterministic random number generation -------===//
//
// Part of the balign project: a reproduction of "Near-optimal
// Intraprocedural Branch Alignment" (Young, Johnson, Karger, Smith;
// PLDI 1997).
//
//===--------------------------------------------------------------------===//
///
/// \file
/// Deterministic, seedable pseudo-random number generation used everywhere
/// randomness is needed (trace generation, randomized tour construction,
/// double-bridge kicks). The whole reproduction is deterministic given the
/// seeds recorded in the workload specs, so every table and figure can be
/// regenerated bit-for-bit.
///
//===--------------------------------------------------------------------===//

#ifndef BALIGN_SUPPORT_RANDOM_H
#define BALIGN_SUPPORT_RANDOM_H

#include "support/Hash.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace balign {

/// xoshiro256** generator (Blackman & Vigna). Small, fast, and high
/// quality; state seeded via SplitMix64 so that nearby seeds give
/// uncorrelated streams.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x5eedULL) { reseed(Seed); }

  /// Re-initializes the state from \p Seed.
  void reseed(uint64_t Seed) {
    uint64_t Mix = Seed;
    for (uint64_t &Word : State)
      Word = splitMix64(Mix);
  }

  /// Returns the next raw 64-bit value.
  uint64_t next() {
    uint64_t Result = rotl(State[1] * 5, 7) * 9;
    uint64_t T = State[1] << 17;
    State[2] ^= State[0];
    State[3] ^= State[1];
    State[1] ^= State[2];
    State[0] ^= State[3];
    State[2] ^= T;
    State[3] = rotl(State[3], 45);
    return Result;
  }

  /// Returns a uniform integer in [0, Bound). \p Bound must be nonzero.
  /// Uses Lemire's multiply-shift rejection method to avoid modulo bias.
  uint64_t nextBelow(uint64_t Bound) {
    assert(Bound != 0 && "nextBelow requires a nonzero bound");
    while (true) {
      uint64_t X = next();
      __uint128_t M = static_cast<__uint128_t>(X) * Bound;
      uint64_t Low = static_cast<uint64_t>(M);
      if (Low >= Bound || Low >= (0 - Bound) % Bound)
        return static_cast<uint64_t>(M >> 64);
    }
  }

  /// Returns a uniform size_t index into a container of size \p Size.
  size_t nextIndex(size_t Size) {
    return static_cast<size_t>(nextBelow(static_cast<uint64_t>(Size)));
  }

  /// Returns a uniform double in [0, 1).
  double nextDouble() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  /// Returns true with probability \p P (clamped to [0, 1]).
  bool nextBool(double P) { return nextDouble() < P; }

  /// Fisher-Yates shuffle of \p Values.
  template <typename T> void shuffle(std::vector<T> &Values) {
    for (size_t I = Values.size(); I > 1; --I)
      std::swap(Values[I - 1], Values[nextIndex(I)]);
  }

  /// Derives an independent child generator; used to give each procedure /
  /// workload / solver run its own stream without coupling their draws.
  Rng fork() { return Rng(next()); }

private:
  static uint64_t rotl(uint64_t X, int K) {
    return (X << K) | (X >> (64 - K));
  }

  uint64_t State[4];
};

} // namespace balign

#endif // BALIGN_SUPPORT_RANDOM_H
