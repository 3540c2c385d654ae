// Run bookkeeping shared by the phases: command-line options, the result
// record (metrics, attempted/failed counts, output checks), provenance,
// the in-memory span log of a traced run, and host probes.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "stats.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Total threads the run may use (0 = the host's CPU count).
  std::size_t threads = 0;
  /// Directory the traced run writes its span dump and result record to.
  std::string out_dir = ".";
};

/// Parses argv; on a usage error prints to stderr and returns false.
bool parse_options(int argc, char** argv, Options& options);

/// Wall seconds on the steady clock since an arbitrary fixed epoch.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// CPUs this process may run on (what `nproc` prints).
std::size_t host_cpus();

/// Peak resident set size of the process so far [MiB] (VmHWM).
double peak_rss_mb();

/// Pins the calling thread to the (index mod n)-th of its n allowed CPUs
/// for the scope, then restores its mask. Single-threaded measurements
/// rotate over every CPU (slice k on CPU k), so one contended vCPU cannot
/// bias a run. Threads created inside the scope inherit the pin: never
/// start a pool or a service while pinned.
class PinnedToCpu {
 public:
  explicit PinnedToCpu(std::size_t index);
  ~PinnedToCpu();
  PinnedToCpu(const PinnedToCpu&) = delete;
  PinnedToCpu& operator=(const PinnedToCpu&) = delete;

 private:
  std::vector<unsigned char> previous_;  ///< the saved cpu_set_t bytes
  bool pinned_ = false;
};

/// Everything one run reports.
class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// Keeps exactly the metrics named in `names`; a missing or non-finite
  /// one fails a check.
  void keep_only(const std::vector<std::string>& names);

  /// Records one output check; a failed check makes the run incorrect and
  /// counts as one failed operation.
  void check(bool ok, const std::string& what);

  void attempt(std::size_t n) { attempted_ += n; }
  void fail(std::size_t n) { failed_ += n; }

  /// Free-form provenance / context fields, printed before the result.
  void note(const std::string& key, const std::string& value);
  void note(const std::string& key, double value);

  bool correct() const { return checks_failed_ == 0; }

  /// The provenance/context line, then the result line (always last).
  void print() const;

 private:
  struct Metric {
    double value;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::size_t attempted_ = 0;
  std::size_t failed_ = 0;
  std::size_t checks_failed_ = 0;
};

/// Spans of a traced run, kept in memory and dumped at the end in Chrome
/// trace_event format. Not thread-safe: the generator / orchestrating
/// thread records spans; per-request spans are added after the fact from
/// timestamps the completion sink stored.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span and returns its index (or -1 when disabled).
  long begin(const char* name, long parent = -1, std::uint64_t id = 0);
  void end(long index);
  /// Adds a closed span with explicit timestamps.
  long add(const char* name, double t0_s, double t1_s, long parent,
           std::uint64_t id);

  const std::vector<Span>& spans() const { return spans_; }
  std::string chrome_json() const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const char* name, long parent = -1,
             std::uint64_t id = 0)
      : log_(log), index_(log.begin(name, parent, id)) {}
  ~ScopedSpan() { log_.end(index_); }
  long index() const { return index_; }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanLog& log_;
  long index_;
};

/// Build provenance compiled into the binary.
std::string compiler_id();
std::string compile_flags();
std::string build_type();

/// Writes `text` to `path`; false on failure.
bool write_file(const std::string& path, const std::string& text);

/// Median of repeated timings of `fn`: runs `fn` in batches of `inner`
/// calls until `budget_s` has elapsed (at least `min_batches` batches),
/// and returns the median per-call seconds.
template <typename Fn>
double time_per_call(Fn&& fn, std::size_t inner, double budget_s,
                     std::size_t min_batches = 5) {
  std::vector<double> per_call;
  const double start = now_s();
  while (per_call.size() < min_batches || now_s() - start < budget_s) {
    const double t0 = now_s();
    for (std::size_t i = 0; i < inner; ++i) fn();
    per_call.push_back((now_s() - t0) / static_cast<double>(inner));
    if (per_call.size() > 100000) break;
  }
  return median(per_call);
}

}  // namespace perfbench
