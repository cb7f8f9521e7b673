// Self-check of the benchmark's own arithmetic: nearest-rank
// percentiles and their beyond-counts, failures as +inf, medians, the
// late-arrival rule and ratios. Exits nonzero on the first mismatch;
// run.py runs it before every benchmark run.
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "selfcheck FAILED: %s\n", what);
    ++failures;
  }
}

std::vector<double> Ramp(size_t n) {  // n, n-1, ..., 1 (unsorted input)
  std::vector<double> v;
  for (size_t i = n; i >= 1; --i) v.push_back(static_cast<double>(i));
  return v;
}

}  // namespace

int main() {
  using perfbench::NearestRank;

  // Nearest rank over 1..1000: p50 is rank 500, p99 is rank 990 with
  // exactly 10 samples beyond it — the smallest reportable p99.
  {
    std::vector<double> v = Ramp(1000);
    const auto p50 = NearestRank(&v, 0.50);
    Check(p50.value == 500 && p50.beyond == 500 && p50.reportable,
          "p50 of 1..1000");
    const auto p99 = NearestRank(&v, 0.99);
    Check(p99.value == 990 && p99.beyond == 10 && p99.samples == 1000,
          "p99 of 1..1000 is rank 990");
    Check(p99.reportable, "p99 with 10 beyond is reportable");
  }
  // 999 samples: rank ceil(989.01) = 990, only 9 beyond -> refused.
  {
    std::vector<double> v = Ramp(999);
    const auto p99 = NearestRank(&v, 0.99);
    Check(p99.value == 990 && p99.beyond == 9 && !p99.reportable,
          "p99 with 9 beyond is refused");
  }
  // Nearest rank never interpolates: p50 of {1, 2} is 1, not 1.5.
  {
    std::vector<double> v = {2, 1};
    const auto p50 = NearestRank(&v, 0.50);
    Check(p50.value == 1 && p50.beyond == 1, "p50 of {1,2} is 1");
  }
  // Failures count against attempts as +inf: 20 failures in 1000
  // push the p99 onto a failure, which must not be reported.
  {
    std::vector<double> v = Ramp(980);
    for (int i = 0; i < 20; ++i) v.push_back(perfbench::kFailedLatency);
    const auto p99 = NearestRank(&v, 0.99);
    Check(std::isinf(p99.value) && !p99.reportable,
          "p99 on a failure is refused");
    const auto p50 = NearestRank(&v, 0.50);
    Check(p50.value == 500 && p50.reportable,
          "failures shift the p50 rank (counted, not dropped)");
  }
  // Empty and out-of-range inputs.
  {
    std::vector<double> v;
    Check(!NearestRank(&v, 0.5).reportable, "empty sample");
    std::vector<double> w = Ramp(100);
    Check(!NearestRank(&w, 0.0).reportable, "q = 0 rejected");
    Check(!NearestRank(&w, 1.5).reportable, "q > 1 rejected");
  }
  // The generator rule: p99 lateness against the bound, and too few
  // arrivals to judge is invalid rather than passing.
  {
    std::vector<double> ok(1000, 1.0);
    Check(perfbench::GeneratorKeptUp(ok, 5.0), "1 ms late within 5 ms");
    std::vector<double> behind(1000, 1.0);
    for (size_t i = 980; i < 1000; ++i) behind[i] = 50.0;
    Check(!perfbench::GeneratorKeptUp(behind, 5.0),
          "2% of arrivals 50 ms late breaks a 5 ms bound");
    std::vector<double> few(50, 0.0);
    Check(!perfbench::GeneratorKeptUp(few, 5.0), "50 arrivals cannot judge");
  }
  // The median of set-up times.
  {
    Check(perfbench::Median({3, 1, 2}) == 2, "median of three");
    Check(perfbench::Median({4, 1, 3, 2}) == 3, "upper median of four");
  }
  // Ratios.
  {
    Check(perfbench::Ratio(3, 4) == 0.75, "3/4");
    Check(perfbench::Ratio(5, 0) == 0, "ratio over zero attempts is 0");
  }

  if (failures == 0) std::printf("selfcheck ok\n");
  return failures == 0 ? 0 : 1;
}
