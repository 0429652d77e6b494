// util.hpp — timing, statistics, result records, JSON output and the
// benchmark-side span log shared by the workloads and the layer probes.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Process CPU time (user + system, all threads) in seconds.
inline double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return double(t.tv_sec) + 1e-6 * double(t.tv_usec); };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

/// CPU time of the calling thread in seconds.
inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + 1e-9 * double(ts.tv_nsec);
}

inline double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

/// Quantile by linear interpolation between closest ranks (q in [0, 1]).
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * double(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - double(lo)) * (v[hi] - v[lo]);
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

inline double mean(const std::vector<double>& v) {
  return v.empty() ? std::nan("") : sum(v) / double(v.size());
}

/// Shortest decimal form that round-trips: every digit as measured.
inline std::string json_number(double x) {
  if (!std::isfinite(x)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), x);
  return std::string(buf, res.ptr);
}

inline std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

inline std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ",";
    out += json_number(v[i]);
  }
  return out + "]";
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// Everything one run produces. `end_to_end` is filled by untraced runs and
/// `per_layer` by traced runs; `samples` and `info` are diagnostics printed
/// before the result line.
struct RunResult {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, std::string> info;

  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

/// Spans recorded by the benchmark around each call into a layer, kept in
/// memory and written once at exit as Chrome-trace JSON ("X" events).
class SpanLog {
 public:
  struct Event {
    std::string name;
    std::string layer;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  ///< span that caused this one (0 = none)
    std::uint64_t request = 0;  ///< spans of one request/solve share it
    double start_us = 0.0;
    double dur_us = 0.0;
    int tid = 0;
  };

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }
  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }

  std::uint64_t next_id() { return next_id_.fetch_add(1); }

  void add(Event e) {
    std::lock_guard<std::mutex> lock(mu_);
    events_.push_back(std::move(e));
  }

  double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - epoch_).count();
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
  }

  /// Write {"traceEvents": [...]} for chrome://tracing / Perfetto.
  bool write_chrome(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    std::lock_guard<std::mutex> lock(mu_);
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
    for (std::size_t i = 0; i < events_.size(); ++i) {
      const Event& e = events_[i];
      out << (i ? ",\n" : "\n") << "{\"name\":" << json_string(e.name)
          << ",\"cat\":" << json_string(e.layer) << ",\"ph\":\"X\",\"pid\":1"
          << ",\"tid\":" << e.tid << ",\"ts\":" << json_number(e.start_us)
          << ",\"dur\":" << json_number(e.dur_us) << ",\"args\":{\"id\":" << e.id
          << ",\"parent\":" << e.parent << ",\"request\":" << e.request << "}}";
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Event> events_;
};

/// Small dense id per thread for the trace's "tid" lane.
inline int thread_lane() {
  static std::atomic<int> next{0};
  thread_local const int lane = next.fetch_add(1);
  return lane;
}

/// RAII span around one call into a layer; a no-op while the log is off.
class ScopedCall {
 public:
  ScopedCall(SpanLog& log, const char* layer, std::string name,
             std::uint64_t parent = 0, std::uint64_t request = 0)
      : log_(log.enabled() ? &log : nullptr) {
    if (log_ == nullptr) return;
    ev_.name = std::move(name);
    ev_.layer = layer;
    ev_.id = log_->next_id();
    ev_.parent = parent;
    ev_.request = request;
    ev_.tid = thread_lane();
    ev_.start_us = log_->now_us();
  }
  ~ScopedCall() {
    if (log_ == nullptr) return;
    ev_.dur_us = log_->now_us() - ev_.start_us;
    log_->add(std::move(ev_));
  }
  ScopedCall(const ScopedCall&) = delete;
  ScopedCall& operator=(const ScopedCall&) = delete;

  std::uint64_t id() const { return ev_.id; }

 private:
  SpanLog* log_;
  SpanLog::Event ev_;
};

}  // namespace perfbench
