//===- Random.cpp ---------------------------------------------------------===//

#include "support/Random.h"

using namespace npral;

static uint64_t splitmix64(uint64_t &X) {
  X += 0x9e3779b97f4a7c15ULL;
  uint64_t Z = X;
  Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
  return Z ^ (Z >> 31);
}

void Rng::reseed(uint64_t Seed) {
  uint64_t X = Seed;
  State0 = splitmix64(X);
  State1 = splitmix64(X);
  if (State0 == 0 && State1 == 0)
    State1 = 1;
}

uint64_t Rng::next() {
  uint64_t S1 = State0;
  const uint64_t S0 = State1;
  const uint64_t Result = S0 + S1;
  State0 = S0;
  S1 ^= S1 << 23;
  State1 = S1 ^ S0 ^ (S1 >> 18) ^ (S0 >> 5);
  return Result;
}

uint64_t Rng::nextBelow(uint64_t Bound) {
  assert(Bound > 0 && "nextBelow requires a positive bound");
  // Rejection sampling to avoid modulo bias.
  const uint64_t Threshold = -Bound % Bound;
  for (;;) {
    uint64_t R = next();
    if (R >= Threshold)
      return R % Bound;
  }
}

int64_t Rng::nextInRange(int64_t Lo, int64_t Hi) {
  assert(Lo <= Hi && "empty range");
  return Lo + static_cast<int64_t>(
                  nextBelow(static_cast<uint64_t>(Hi - Lo) + 1));
}

bool Rng::nextChance(uint64_t Num, uint64_t Den) {
  assert(Den > 0 && "zero denominator");
  return nextBelow(Den) < Num;
}
