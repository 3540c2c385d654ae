// Statistics the benchmark reports with: nearest-rank quantiles, the
// reportable-percentile rule, due-time latency with shed requests counted
// as misses, the SLO-rate interpolation over fixed-rate rungs, and span
// self-time. Header-only and free of ivnet dependencies so the self-test
// (tests/stats_test.cpp) exercises exactly the code the benchmark runs.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

/// Nearest-rank quantile: the smallest sample x such that at least
/// ceil(q * n) samples are <= x (q = 0 gives the minimum). NaN for no
/// samples. +inf samples (shed requests) sort last and can be returned.
inline double nearest_rank(std::vector<double> samples, double q) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * n);
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

inline double median(std::vector<double> samples) {
  return nearest_rank(std::move(samples), 0.5);
}

/// Arithmetic mean (NaN for no samples). Repeated timings of one operation
/// are aggregated with it: the host's speed drifts between a few levels
/// over seconds, and a mean over the run converges on their mixture where
/// a median jumps between them.
inline double mean(const std::vector<double>& samples) {
  if (samples.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (const double x : samples) sum += x;
  return sum / static_cast<double>(samples.size());
}

/// Aggregate of per-pass rates over passes of equal work: total work over
/// total time, i.e. the harmonic mean.
inline double harmonic_mean(const std::vector<double>& rates) {
  if (rates.empty()) return std::numeric_limits<double>::quiet_NaN();
  double inverse = 0.0;
  for (const double r : rates) inverse += 1.0 / r;
  return static_cast<double>(rates.size()) / inverse;
}

/// The highest of `percentiles` (in percent, e.g. 50, 99, 99.9) that has
/// at least `min_beyond` samples strictly beyond it in a set of `n`
/// samples, i.e. n * (1 - p/100) >= min_beyond. Returns 0 when none does.
inline double highest_reportable_percentile(
    std::size_t n, const std::vector<double>& percentiles,
    std::size_t min_beyond = 10) {
  double best = 0.0;
  for (const double p : percentiles) {
    // Integer arithmetic on per-mille units avoids 1000 * 0.01 != 10.
    const double beyond =
        static_cast<double>(n) * (100000.0 - std::round(p * 1000.0)) /
        100000.0;
    if (beyond + 1e-9 >= static_cast<double>(min_beyond)) {
      best = std::max(best, p);
    }
  }
  return best;
}

/// Per-request latency measured from the request's DUE time (its slot in
/// the open-loop schedule), not from when it was accepted: a generator
/// that falls behind or a queue that backs up both show. A shed request
/// (`done_s` NaN or `shed` set) never completes, so it is a miss: +inf.
inline std::vector<double> due_time_latencies(
    const std::vector<double>& due_s, const std::vector<double>& done_s,
    const std::vector<std::uint8_t>& shed) {
  std::vector<double> out(due_s.size(), kInf);
  for (std::size_t i = 0; i < due_s.size(); ++i) {
    const bool missed = (i < shed.size() && shed[i] != 0) ||
                        i >= done_s.size() || std::isnan(done_s[i]);
    if (!missed) out[i] = done_s[i] - due_s[i];
  }
  return out;
}

/// Consecutive full windows of `window` samples of `samples` (arrival
/// order); a trailing partial window is dropped. Tail figures are taken
/// per window and the median window reported: one stall of the host (a
/// preempted vCPU) spoils one window, not the whole figure.
inline std::vector<std::vector<double>> windows(
    const std::vector<double>& samples, std::size_t window) {
  std::vector<std::vector<double>> out;
  if (window == 0) return out;
  for (std::size_t lo = 0; lo + window <= samples.size(); lo += window) {
    out.emplace_back(samples.begin() + static_cast<long>(lo),
                     samples.begin() + static_cast<long>(lo + window));
  }
  return out;
}

/// Fraction of latencies above `limit` (shed requests included).
inline double miss_fraction(const std::vector<double>& latencies,
                            double limit) {
  if (latencies.empty()) return 0.0;
  std::size_t misses = 0;
  for (const double l : latencies) misses += l > limit ? 1 : 0;
  return static_cast<double>(misses) / static_cast<double>(latencies.size());
}

/// One fixed-rate rung of the open-loop ladder.
struct Rung {
  double rate_rps = 0.0;
  /// Fraction of requests over the latency limit, sheds included (the
  /// rung's p99 is within the limit iff this is <= 1%).
  double miss_frac = 1.0;
  bool backlog_ok = true;  ///< no growing backlog over the rung
};

/// Miss fraction at which p99 sits exactly at the limit.
inline constexpr double kP99MissFrac = 0.01;

/// True when a rung's p99 meets the limit with no growing backlog.
inline bool rung_passes(const Rung& rung) {
  return rung.backlog_ok && rung.miss_frac <= kP99MissFrac;
}

/// The highest offered rate whose p99 meets the latency limit: rungs in
/// ascending rate are judged up to the first failing one, and the answer
/// is interpolated linearly in miss fraction between the last passing rung
/// and that one (the rate where 1% of requests miss). Interpolating the
/// miss fraction rather than p99 keeps the answer continuous when the
/// failing rung sheds (its p99 is infinite, its miss fraction is not). A
/// failing rung with a growing backlog but few misses pins the answer to
/// the last passing rung. If even the first rung fails, its rate is
/// scaled by 1% / miss fraction (never 0); if every rung passes, the top
/// rung is returned.
inline double slo_rate(const std::vector<Rung>& rungs) {
  if (rungs.empty()) return 0.0;
  if (!rung_passes(rungs.front())) {
    const Rung& r = rungs.front();
    return r.rate_rps * std::min(1.0, kP99MissFrac / r.miss_frac);
  }
  for (std::size_t i = 1; i < rungs.size(); ++i) {
    if (rung_passes(rungs[i])) continue;
    const Rung& lo = rungs[i - 1];
    const Rung& hi = rungs[i];
    if (hi.miss_frac <= kP99MissFrac || hi.miss_frac <= lo.miss_frac) {
      return lo.rate_rps;
    }
    const double frac =
        (kP99MissFrac - lo.miss_frac) / (hi.miss_frac - lo.miss_frac);
    return lo.rate_rps + std::clamp(frac, 0.0, 1.0) *
                             (hi.rate_rps - lo.rate_rps);
  }
  return rungs.back().rate_rps;
}

/// One recorded span: [t0, t1) seconds, parent index (-1 for a root) and
/// the run or request id it belongs to.
struct Span {
  const char* name = "";
  double t0_s = 0.0;
  double t1_s = 0.0;
  long parent = -1;
  std::uint64_t id = 0;
  double duration() const { return t1_s - t0_s; }
};

/// Self time of span `index`: its duration minus the durations of its
/// direct children (grandchildren are already inside the children).
inline double span_self_time(const std::vector<Span>& spans,
                             std::size_t index) {
  double self = spans[index].duration();
  for (const Span& s : spans) {
    if (s.parent == static_cast<long>(index)) self -= s.duration();
  }
  return self;
}

/// Interquartile range over median, the spread figure the run reports for
/// repeated measurements (0 for fewer than two samples).
inline double iqr_share(std::vector<double> samples) {
  if (samples.size() < 2) return 0.0;
  const double m = median(samples);
  const double q1 = nearest_rank(samples, 0.25);
  const double q3 = nearest_rank(samples, 0.75);
  return m != 0.0 ? (q3 - q1) / std::fabs(m) : 0.0;
}

}  // namespace perfbench
