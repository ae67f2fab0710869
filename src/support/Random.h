//===- Random.h - Deterministic RNG -----------------------------*- C++ -*-===//
///
/// \file
/// A small, fully deterministic xorshift128+ RNG. All randomised pieces of
/// NPRAL (workload payload data, the random program generator, property
/// tests) draw from this so that every experiment is reproducible from a
/// seed, independent of the standard library's distribution implementations.
///
//===----------------------------------------------------------------------===//

#ifndef NPRAL_SUPPORT_RANDOM_H
#define NPRAL_SUPPORT_RANDOM_H

#include <cassert>
#include <cstdint>

namespace npral {

/// xorshift128+ generator with splitmix64 seeding.
class Rng {
public:
  explicit Rng(uint64_t Seed = 0x9e3779b97f4a7c15ULL) { reseed(Seed); }

  void reseed(uint64_t Seed);

  /// Uniform 64-bit value.
  uint64_t next();

  /// Uniform value in [0, Bound). \p Bound must be positive.
  uint64_t nextBelow(uint64_t Bound);

  /// Uniform value in [Lo, Hi] inclusive.
  int64_t nextInRange(int64_t Lo, int64_t Hi);

  /// Bernoulli draw: true with probability Num/Den.
  bool nextChance(uint64_t Num, uint64_t Den);

private:
  uint64_t State0 = 0;
  uint64_t State1 = 0;
};

} // namespace npral

#endif // NPRAL_SUPPORT_RANDOM_H
