// Exact order statistics over raw samples.
//
// Percentiles here are nearest-rank over the full sample vector — never
// interpolated inside histogram buckets — so a reported p99 is a value
// that was actually observed.  The tail rule follows the benchmark's
// reporting contract: a timing reports its median plus the highest
// percentile of a fixed ladder that still has at least ten samples
// beyond it, together with the sample count.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

// Samples a tail percentile must leave strictly beyond its rank.
inline constexpr long kTailBeyond = 10;

// 1-based nearest rank of quantile q in n samples: ceil(q * n), clamped
// to [1, n].  The small epsilon keeps q * n that is an integer in exact
// arithmetic (0.99 * 1000) from rounding up to the next rank.
inline long nearest_rank(double q, std::size_t n) {
  const double raw = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp(static_cast<long>(raw), 1L, static_cast<long>(n));
}

// Nearest-rank quantile of an ascending-sorted vector; NaN when empty.
inline double quantile_sorted(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return std::nan("");
  return sorted[static_cast<std::size_t>(nearest_rank(q, sorted.size()) - 1)];
}

inline double quantile(std::vector<double> samples, double q) {
  std::sort(samples.begin(), samples.end());
  return quantile_sorted(samples, q);
}

inline double median(std::vector<double> samples) {
  return quantile(std::move(samples), 0.5);
}

// Samples ranked after quantile q's nearest rank.
inline long samples_beyond(double q, std::size_t n) {
  return n == 0 ? 0 : static_cast<long>(n) - nearest_rank(q, n);
}

struct Tail {
  std::string label;  // "p99", "p99.9", ... or "" when no rung qualifies
  double q = 0.0;
  double value = std::nan("");
  long beyond = 0;
  long n = 0;
};

// Highest percentile of {p50, p90, p99, p99.9, p99.99} with at least
// kTailBeyond samples beyond it.  label is empty when even the median has
// fewer (fewer than 20 samples).
inline Tail highest_tail(std::vector<double> samples) {
  static constexpr double kLadder[] = {0.9999, 0.999, 0.99, 0.9, 0.5};
  static const char* const kLabels[] = {"p99.99", "p99.9", "p99", "p90",
                                        "p50"};
  std::sort(samples.begin(), samples.end());
  Tail tail;
  tail.n = static_cast<long>(samples.size());
  for (std::size_t i = 0; i < std::size(kLadder); ++i) {
    const long beyond = samples_beyond(kLadder[i], samples.size());
    if (beyond >= kTailBeyond) {
      tail.label = kLabels[i];
      tail.q = kLadder[i];
      tail.value = quantile_sorted(samples, kLadder[i]);
      tail.beyond = beyond;
      return tail;
    }
  }
  return tail;
}

}  // namespace perfbench
