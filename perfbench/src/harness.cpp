#include "harness.hpp"

#include <pthread.h>
#include <sched.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>

#include "ivnet/common/json.hpp"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_FLAGS
#define PERFBENCH_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

std::string quoted(const std::string& text) {
  return "\"" + ivnet::json_escape(text) + "\"";
}

bool parse_u64(const char* text, std::uint64_t& out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text, &end, 10);
  if (end == nullptr || *end != '\0' || text[0] == '-') return false;
  out = v;
  return true;
}

}  // namespace

bool parse_options(int argc, char** argv, Options& options) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    std::uint64_t n = 0;
    if (arg == "--workload" && value != nullptr) {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed" && parse_u64(value, n)) {
      options.seed = n;
    } else if (arg == "--seconds" && parse_u64(value, n) && n >= 1) {
      options.seconds = static_cast<double>(n);
    } else if (arg == "--trace" && parse_u64(value, n) && n <= 1) {
      options.trace = n == 1;
    } else if (arg == "--threads" && parse_u64(value, n)) {
      options.threads = static_cast<std::size_t>(n);
    } else if (arg == "--out-dir" && value != nullptr) {
      options.out_dir = value;
    } else {
      std::fprintf(stderr, "perfbench: bad argument '%s'\n", arg.c_str());
      return false;
    }
    ++i;
  }
  if (!have_workload) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds N] "
                 "[--trace 0|1] [--threads N] [--out-dir DIR]\n");
    return false;
  }
  return true;
}

std::size_t host_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  return 1;
}

PinnedToCpu::PinnedToCpu(std::size_t index) {
  cpu_set_t current;
  CPU_ZERO(&current);
  if (pthread_getaffinity_np(pthread_self(), sizeof(current), &current) != 0) {
    return;
  }
  const int allowed = CPU_COUNT(&current);
  if (allowed <= 1) return;
  int wanted = static_cast<int>(index % static_cast<std::size_t>(allowed));
  cpu_set_t one;
  CPU_ZERO(&one);
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &current) && wanted-- == 0) {
      CPU_SET(cpu, &one);
      break;
    }
  }
  const auto* bytes = reinterpret_cast<const unsigned char*>(&current);
  previous_.assign(bytes, bytes + sizeof(current));
  pinned_ = pthread_setaffinity_np(pthread_self(), sizeof(one), &one) == 0;
}

PinnedToCpu::~PinnedToCpu() {
  if (!pinned_) return;
  cpu_set_t previous;
  std::memcpy(&previous, previous_.data(), sizeof(previous));
  pthread_setaffinity_np(pthread_self(), sizeof(previous), &previous);
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::keep_only(const std::vector<std::string>& names) {
  std::map<std::string, Metric> kept;
  for (const std::string& name : names) {
    const auto it = metrics_.find(name);
    check(it != metrics_.end(), "missing metric " + name);
    if (it == metrics_.end()) continue;
    check(std::isfinite(it->second.value), "metric " + name + " is not finite");
    kept.insert(*it);
  }
  metrics_ = std::move(kept);
}

void Report::check(bool ok, const std::string& what) {
  if (ok) return;
  ++checks_failed_;
  ++failed_;
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, quoted(value));
}

void Report::note(const std::string& key, double value) {
  ivnet::JsonWriter w;
  w.value(value);
  notes_.emplace_back(key, w.str());
}

void Report::print() const {
  std::string context = "{\"context\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) context += ", ";
    context += quoted(notes_[i].first) + ": " + notes_[i].second;
  }
  context += "}}";
  std::printf("%s\n", context.c_str());

  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : metrics_) {
    // JSON has no infinity: a non-finite figure (a tail of shed requests,
    // an empty sample) has already failed its check in keep_only and is
    // printed as the largest finite double, never as a good value.
    char number[64];
    std::snprintf(number, sizeof(number), "%.17g",
                  std::isfinite(m.value) ? m.value
                                         : std::numeric_limits<double>::max());
    if (!first) out += ", ";
    first = false;
    out += quoted(name) + ": {\"value\": " + number +
           ", \"unit\": " + quoted(m.unit) + "}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

long SpanLog::begin(const char* name, long parent, std::uint64_t id) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.t0_s = now_s();
  s.t1_s = s.t0_s;
  s.parent = parent;
  s.id = id;
  spans_.push_back(s);
  return static_cast<long>(spans_.size()) - 1;
}

void SpanLog::end(long index) {
  if (index < 0 || static_cast<std::size_t>(index) >= spans_.size()) return;
  spans_[static_cast<std::size_t>(index)].t1_s = now_s();
}

long SpanLog::add(const char* name, double t0_s, double t1_s, long parent,
                  std::uint64_t id) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, t0_s, t1_s, parent, id});
  return static_cast<long>(spans_.size()) - 1;
}

std::string SpanLog::chrome_json() const {
  double epoch = 0.0;
  for (const Span& s : spans_) {
    if (epoch == 0.0 || s.t0_s < epoch) epoch = s.t0_s;
  }
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (!first) out += ",";
    first = false;
    out += "{\"name\":" + quoted(s.name) + ",\"ph\":\"X\"";
    std::snprintf(buf, sizeof(buf),
                  ",\"pid\":1,\"tid\":0,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"index\":%zu,\"parent\":%ld,\"id\":%llu}}",
                  (s.t0_s - epoch) * 1e6, s.duration() * 1e6, i, s.parent,
                  static_cast<unsigned long long>(s.id));
    out += buf;
  }
  out += "]}";
  return out;
}

std::string compiler_id() { return PERFBENCH_COMPILER; }
std::string compile_flags() { return PERFBENCH_FLAGS; }
std::string build_type() { return PERFBENCH_BUILD_TYPE; }

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

}  // namespace perfbench
