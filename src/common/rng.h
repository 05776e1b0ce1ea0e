#ifndef TRANSEDGE_COMMON_RNG_H_
#define TRANSEDGE_COMMON_RNG_H_

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace transedge {

/// Deterministic pseudo-random generator (xoshiro256**).
///
/// All randomness in the simulator, workload generators, and tests flows
/// through explicitly seeded `Rng` instances so that every experiment is
/// reproducible bit-for-bit.
class Rng {
 public:
  explicit Rng(uint64_t seed);

  /// Uniform 64-bit value.
  uint64_t Next();

  /// Uniform value in [0, bound). `bound` must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform value in [lo, hi] inclusive. Requires lo <= hi.
  int64_t NextInRange(int64_t lo, int64_t hi);

  /// Uniform double in [0, 1).
  double NextDouble();

  /// True with probability `p` (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Fisher–Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(NextBounded(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

 private:
  uint64_t s_[4];
};

}  // namespace transedge

#endif  // TRANSEDGE_COMMON_RNG_H_
