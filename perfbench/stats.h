// Percentile, late-arrival and ratio arithmetic shared by every
// benchmark phase. Kept header-only and free of repo dependencies so
// selfcheck.cc can pin it with hand-computed cases.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

/// A failed or refused operation enters a latency sample as +inf: it
/// misses every latency limit, and a percentile that lands on it is
/// unreportable rather than silently optimistic.
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

/// The minimum number of samples strictly beyond a percentile's rank
/// for the percentile to be reported.
constexpr size_t kMinBeyond = 10;

struct Percentile {
  double value = 0;   // the sample at the nearest rank
  size_t samples = 0; // n
  size_t beyond = 0;  // samples ranked after the reported one
  /// False when fewer than kMinBeyond samples lie beyond the rank or
  /// the ranked sample is a failure (+inf): the value must not be
  /// reported as a number.
  bool reportable = false;
};

/// Nearest-rank percentile of `samples` for q in (0, 1]: the sample at
/// 1-based rank ceil(q * n) in ascending order. Sorts in place.
inline Percentile NearestRank(std::vector<double>* samples, double q) {
  Percentile p;
  p.samples = samples->size();
  if (p.samples == 0 || !(q > 0) || q > 1) return p;
  std::sort(samples->begin(), samples->end());
  // The epsilon keeps q * n that is an exact integer in real arithmetic
  // (0.99 * 1000) from rounding up a rank through binary error.
  size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(p.samples) - 1e-9));
  rank = std::min(std::max<size_t>(rank, 1), p.samples);
  p.value = (*samples)[rank - 1];
  p.beyond = p.samples - rank;
  p.reportable = p.beyond >= kMinBeyond && std::isfinite(p.value);
  return p;
}

/// The median of `values` (upper median for an even count); 0 if empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// num / den, or 0 when den is 0 (a ratio over no attempts is "none").
inline double Ratio(double num, double den) {
  return den == 0 ? 0 : num / den;
}

/// The open-loop validity rule: a run whose generator issued its
/// arrivals later than `bound_ms` at p99 measured the generator, not
/// the server, and is reported invalid. An unreportable p99 (too few
/// arrivals) is invalid too.
inline bool GeneratorKeptUp(std::vector<double> late_ms, double bound_ms) {
  const Percentile p99 = NearestRank(&late_ms, 0.99);
  return p99.reportable && p99.value <= bound_ms;
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
