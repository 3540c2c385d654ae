// Self-test of the benchmark's statistics (src/stats.hpp). Exits non-zero
// on the first failed expectation; run.py runs it before every
// measurement.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "stats_test:%d: %s\n", line, what);
    ++g_failures;
  }
}

#define EXPECT(cond) expect((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using namespace perfbench;

void nearest_rank_quantiles() {
  const std::vector<double> ten = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
  EXPECT(nearest_rank(ten, 0.0) == 1);
  EXPECT(nearest_rank(ten, 0.1) == 1);   // ceil(1.0) = rank 1
  EXPECT(nearest_rank(ten, 0.11) == 2);  // ceil(1.1) = rank 2
  EXPECT(nearest_rank(ten, 0.5) == 5);
  EXPECT(nearest_rank(ten, 0.9) == 9);
  EXPECT(nearest_rank(ten, 0.99) == 10);
  EXPECT(nearest_rank(ten, 1.0) == 10);
  EXPECT(median({3.0}) == 3.0);
  EXPECT(median({4.0, 1.0}) == 1.0);  // rank ceil(1.0) = 1: the lower
  EXPECT(std::isnan(nearest_rank({}, 0.5)));
  // p99 of 100 samples is the 99th smallest, not an interpolation.
  std::vector<double> hundred;
  for (int i = 1; i <= 100; ++i) hundred.push_back(i);
  EXPECT(nearest_rank(hundred, 0.99) == 99);
  EXPECT(nearest_rank(hundred, 0.999) == 100);
  EXPECT(near(iqr_share(hundred), (75.0 - 25.0) / 50.0));
  EXPECT(near(mean({1.0, 2.0, 6.0}), 3.0));
  // Two passes of equal work at 10/s and 30/s: 2 units in 0.1 + 1/30 s.
  EXPECT(near(harmonic_mean({10.0, 30.0}), 15.0));
}

void reportable_percentile() {
  const std::vector<double> ladder = {50, 90, 99, 99.9};
  EXPECT(highest_reportable_percentile(9, ladder) == 0);
  EXPECT(highest_reportable_percentile(20, ladder) == 50);
  EXPECT(highest_reportable_percentile(100, ladder) == 90);
  EXPECT(highest_reportable_percentile(999, ladder) == 90);
  EXPECT(highest_reportable_percentile(1000, ladder) == 99);  // exactly 10
  EXPECT(highest_reportable_percentile(9999, ladder) == 99);
  EXPECT(highest_reportable_percentile(10000, ladder) == 99.9);
  EXPECT(highest_reportable_percentile(500, {99.0}, 5) == 99);
}

void slo_interpolation() {
  // 1% misses is crossed halfway between 5000 (0.5%) and 6000 (1.5%).
  std::vector<Rung> rungs = {{4000, 0.000, true},
                             {5000, 0.005, true},
                             {6000, 0.015, true}};
  EXPECT(near(slo_rate(rungs), 5500));
  // Exactly 1% misses is p99 at the limit: passes.
  rungs[2].miss_frac = 0.01;
  EXPECT(near(slo_rate(rungs), 6000));
  // A growing backlog fails the rung; with few misses it pins the answer.
  rungs[2] = {6000, 0.004, false};
  EXPECT(near(slo_rate(rungs), 5000));
  // A shedding rung (most requests missed) still interpolates.
  rungs[2] = {6000, 0.905, true};
  EXPECT(near(slo_rate(rungs), 5000 + 1000 * (0.005 / 0.9)));
  // The first failing rung ends the judged ladder.
  rungs = {{4000, 0.0, true}, {5000, 0.02, true}, {6000, 0.0, true}};
  EXPECT(near(slo_rate(rungs), 4500));
  // Everything passes: the top rung.
  rungs = {{4000, 0.0, true}, {5000, 0.001, true}};
  EXPECT(near(slo_rate(rungs), 5000));
  // Even the first rung fails: scaled down, never zero.
  rungs = {{4000, 0.04, true}};
  EXPECT(near(slo_rate(rungs), 1000));
  EXPECT(slo_rate({}) == 0);
  // Miss fraction and nearest-rank p99 agree on pass/fail.
  std::vector<double> lat(1000, 0.001);
  for (int i = 0; i < 10; ++i) lat[i] = 0.010;
  EXPECT(miss_fraction(lat, 0.005) <= kP99MissFrac);
  EXPECT(nearest_rank(lat, 0.99) <= 0.005);
  lat[10] = 0.010;
  EXPECT(miss_fraction(lat, 0.005) > kP99MissFrac);
  EXPECT(nearest_rank(lat, 0.99) > 0.005);
}

void due_time_latency() {
  const double nan = std::nan("");
  const std::vector<double> due = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> done = {1.5, 2.25, nan, 4.75};
  const std::vector<std::uint8_t> shed = {0, 0, 1, 0};
  const std::vector<double> lat = due_time_latencies(due, done, shed);
  EXPECT(near(lat[0], 0.5));
  EXPECT(near(lat[1], 0.25));
  EXPECT(std::isinf(lat[2]));  // shed: a miss
  EXPECT(near(lat[3], 0.75));
  // The shed request dominates the tail.
  EXPECT(std::isinf(nearest_rank(lat, 0.99)));
  EXPECT(near(nearest_rank(lat, 0.5), 0.5));
  EXPECT(near(miss_fraction(lat, 0.6), 0.5));
  // Latency counts from the due time even if the request was accepted
  // late (a lagging generator shows up).
  const std::vector<double> late =
      due_time_latencies({0.0}, {0.010}, {0});
  EXPECT(near(late[0], 0.010));
}

void windowed_statistics() {
  // Three windows of 4; the trailing 2 samples are dropped. A stall in
  // the middle window does not move the median of the window maxima.
  const std::vector<double> lat = {1, 2, 3, 4, 50, 60, 70, 80,
                                   1, 2, 3, 5, 9, 9};
  const auto split = windows(lat, 4);
  EXPECT(split.size() == 3);
  std::vector<double> maxima;
  for (const auto& w : split) maxima.push_back(nearest_rank(w, 1.0));
  EXPECT(maxima[0] == 4 && maxima[1] == 80 && maxima[2] == 5);
  EXPECT(median(maxima) == 5);
  EXPECT(windows(lat, 0).empty());
  EXPECT(windows(lat, 15).empty());
}

void span_self_time_arithmetic() {
  // root [0, 10) with children [1, 4) and [5, 9); grandchild [6, 8).
  std::vector<Span> spans = {{"root", 0, 10, -1, 0},
                             {"a", 1, 4, 0, 1},
                             {"b", 5, 9, 0, 2},
                             {"b.child", 6, 8, 2, 3}};
  EXPECT(near(span_self_time(spans, 0), 10 - 3 - 4));
  EXPECT(near(span_self_time(spans, 1), 3));
  EXPECT(near(span_self_time(spans, 2), 4 - 2));
  EXPECT(near(span_self_time(spans, 3), 2));
}

}  // namespace

int main() {
  nearest_rank_quantiles();
  reportable_percentile();
  slo_interpolation();
  due_time_latency();
  windowed_statistics();
  span_self_time_arithmetic();
  if (g_failures == 0) std::printf("stats_test: all expectations hold\n");
  return g_failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
