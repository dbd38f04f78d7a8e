#ifndef PPFR_COMMON_RNG_H_
#define PPFR_COMMON_RNG_H_

#include <bit>
#include <cstdint>
#include <utility>
#include <vector>

namespace ppfr {

namespace internal {

// One SplitMix64 step: advances `state` and returns its finalised value.
inline uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace internal

// Deterministic seed derivation: folds `value` into `seed` through one
// SplitMix64 finalisation. Chaining names an independent stream per tuple —
// MixSeed(MixSeed(seed, a), b) — which is the counter-based RNG idiom behind
// the streamed graph generator (one stream per block pair), the on-demand
// feature rows (one stream per node) and the neighbour sampler (one stream
// per (seed, epoch, batch)): any component can be regenerated in isolation
// without replaying a shared sequential stream.
inline uint64_t MixSeed(uint64_t seed, uint64_t value) {
  // One SplitMix64 step over the combined state; the odd multiplier keeps
  // (seed, value) pairs from colliding under simple arithmetic relations.
  uint64_t state = seed ^ (value * 0xd6e8feb86659fd93ULL + 0x2545f4914f6cdd1dULL);
  return internal::SplitMix64(&state);
}

// Deterministic, seedable pseudo-random number generator (xoshiro256**,
// seeded through SplitMix64). Every stochastic component in the library takes
// an explicit Rng or seed so whole experiments replay bit-identically.
//
// The hot path — seeding, NextU64, Uniform() and Bernoulli — is inline, so
// the draw loops of the scale generator, the sampler and the feature rows,
// which seed a stream per block pair, batch or row, make no call per draw.
class Rng {
 public:
  explicit Rng(uint64_t seed = 0x9e3779b97f4a7c15ULL) {
    uint64_t sm = seed;
    for (auto& s : state_) s = internal::SplitMix64(&sm);
  }

  // Uniform 64-bit value.
  uint64_t NextU64() {
    const uint64_t result = std::rotl(state_[1] * 5, 7) * 9;
    const uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = std::rotl(state_[3], 45);
    return result;
  }

  // Uniform double in [0, 1): 53 random mantissa bits, scaled exactly.
  double Uniform() { return static_cast<double>(NextU64() >> 11) * 0x1.0p-53; }

  // Uniform double in [lo, hi).
  double Uniform(double lo, double hi);

  // Uniform integer in [0, n). Requires n > 0.
  int64_t UniformInt(int64_t n);

  // Standard normal via Box-Muller.
  double Normal();

  // Normal with the given mean / stddev.
  double Normal(double mean, double stddev);

  // Bernoulli draw with success probability p.
  bool Bernoulli(double p) { return Uniform() < p; }

  // Laplace(0, scale) draw.
  double Laplace(double scale);

  // Samples k distinct integers from [0, n) (k <= n), in random order.
  std::vector<int> SampleWithoutReplacement(int n, int k);

  // Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* items) {
    for (int64_t i = static_cast<int64_t>(items->size()) - 1; i > 0; --i) {
      int64_t j = UniformInt(i + 1);
      std::swap((*items)[i], (*items)[j]);
    }
  }

  // Derives an independent child generator (for parallel reproducibility).
  Rng Fork();

 private:
  uint64_t state_[4];
  bool have_cached_normal_ = false;
  double cached_normal_ = 0.0;
};

}  // namespace ppfr

#endif  // PPFR_COMMON_RNG_H_
