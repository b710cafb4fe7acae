// Shared helpers of the benchmark: clock, seeded generator, percentile
// and median helpers, and the metric list that ends up in the result
// line. Everything here is the benchmark's own code; the library under
// test is only reached through its public headers.
#pragma once

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace pb {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// User + system CPU time of this process, µs.
inline double process_cpu_us() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return 1e6 * static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

/// Peak resident set of this process image, MB: VmHWM from
/// /proc/self/status. (getrusage's ru_maxrss survives exec, so it would
/// report the launching process's peak when that was larger.)
inline double process_peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (!f) return 0;
  char line[256];
  long kb = 0;
  while (std::fgets(line, sizeof(line), f))
    if (std::sscanf(line, "VmHWM: %ld kB", &kb) == 1) break;
  std::fclose(f);
  return static_cast<double>(kb) / 1024.0;
}

/// SplitMix64: the benchmark derives every input from its --seed through
/// this generator, never through the library's own RNG, so a change to
/// the library cannot change the inputs it is measured on.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n) (n > 0); the modulo bias is irrelevant here.
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  std::vector<std::uint8_t> bytes(std::size_t n) {
    std::vector<std::uint8_t> out(n);
    for (std::size_t i = 0; i < n; ++i)
      out[i] = static_cast<std::uint8_t>(next() >> 56);
    return out;
  }
  /// `cycles` seeded permutations of 0..n-1 (Fisher-Yates) back to back:
  /// every index appears equally often, in a seed-dependent order.
  std::vector<std::uint32_t> shuffled_cycles(std::size_t n, int cycles) {
    std::vector<std::uint32_t> out;
    for (int c = 0; c < cycles; ++c) {
      std::vector<std::uint32_t> p(n);
      for (std::size_t i = 0; i < n; ++i) p[i] = static_cast<std::uint32_t>(i);
      for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[below(i)]);
      out.insert(out.end(), p.begin(), p.end());
    }
    return out;
  }

 private:
  std::uint64_t s_;
};

/// Median of a sample (0 for an empty one).
inline double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// A timed window [t0, t0 + seconds) cut into `n` equal sub-windows.
class SubWindows {
 public:
  SubWindows(std::int64_t t0, double seconds, int n)
      : t0_(t0), span_(static_cast<std::int64_t>(seconds * 1e9)), n_(n) {}

  int size() const { return n_; }
  /// Start of sub-window k (k == size() is the window's end).
  std::int64_t bound(int k) const { return t0_ + span_ * k / n_; }
  /// The sub-window holding time t, or -1 outside the window.
  int index(std::int64_t t) const {
    if (t < t0_ || t - t0_ >= span_) return -1;
    return static_cast<int>((t - t0_) * n_ / span_);
  }

  /// Per sub-window: `counts[s]` per second, and CPU µs per counted
  /// operation from `cpu_us` sampled at every bound (sub-windows without
  /// operations or without a closing sample give no CPU figure).
  void summarize(const std::vector<std::uint64_t>& counts,
                 const std::vector<double>& cpu_us, std::vector<double>& rates,
                 std::vector<double>& cpu_per_op) const {
    for (int s = 0; s < n_; ++s) {
      const double sub_s = static_cast<double>(bound(s + 1) - bound(s)) / 1e9;
      rates.push_back(static_cast<double>(counts[s]) / sub_s);
      if (counts[s] > 0 && static_cast<std::size_t>(s + 1) < cpu_us.size())
        cpu_per_op.push_back((cpu_us[s + 1] - cpu_us[s]) /
                             static_cast<double>(counts[s]));
    }
  }

 private:
  std::int64_t t0_, span_;
  int n_;
};

/// Latency summary under the reporting rule: p50 always, p99 only when
/// at least ten samples lie beyond it; the sample count is always kept.
struct Percentiles {
  std::size_t count = 0;
  double p50 = 0;
  bool has_p99 = false;
  double p99 = 0;
};

/// Nearest-rank percentile of a sorted sample: the smallest value with
/// at least q of the sample at or below it.
inline std::size_t rank_index(std::size_t n, double q) {
  const auto r = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  return r == 0 ? 0 : r - 1;
}

/// Fixed-memory latency histogram, so the benchmark's own bookkeeping
/// does not grow with run length (peak_rss_mb of an in-process workload
/// would otherwise measure it). Values below 256 ns are exact; above,
/// each power of two splits into 256 buckets (0.4% wide).
class LatencyHistogram {
 public:
  static constexpr int kSubBits = 8;
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;

  LatencyHistogram() : counts_(kSub * 26, 0) {}  // up to 2^33 ns

  void add_ns(std::int64_t ns) {
    const auto v = static_cast<std::uint64_t>(ns < 1 ? 1 : ns);
    std::size_t i = bucket(v);
    if (i >= counts_.size()) i = counts_.size() - 1;
    ++counts_[i];
    ++count_;
  }

  /// Value (µs) of the sample at nearest rank q: its bucket's midpoint.
  double quantile_us(double q) const {
    const std::size_t target = rank_index(count_, q);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < counts_.size(); ++i) {
      seen += counts_[i];
      if (seen > target) return midpoint_ns(i) / 1e3;
    }
    return 0;
  }

  /// p50 always; p99 only when at least ten samples rank beyond it.
  Percentiles percentiles() const {
    Percentiles p;
    p.count = count_;
    if (count_ == 0) return p;
    p.p50 = quantile_us(0.50);
    if (count_ - (rank_index(count_, 0.99) + 1) >= 10) {
      p.has_p99 = true;
      p.p99 = quantile_us(0.99);
    }
    return p;
  }

 private:
  static std::size_t bucket(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const int e = 63 - __builtin_clzll(v);  // v in [2^e, 2^(e+1))
    const std::size_t sub = (v >> (e - kSubBits)) & (kSub - 1);
    return kSub * static_cast<std::size_t>(e - kSubBits + 1) + sub;
  }
  static double midpoint_ns(std::size_t i) {
    if (i < kSub) return static_cast<double>(i);
    const std::size_t block = i / kSub;  // >= 1
    const int e = static_cast<int>(block) + kSubBits - 1;
    const double width = std::ldexp(1.0, e - kSubBits);
    return std::ldexp(1.0, e) + (static_cast<double>(i % kSub) + 0.5) * width;
  }

  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

/// Latency of a timed window, one histogram per sub-window. The reported
/// p50 and p99 are medians over the sub-windows, so a burst of host
/// interference inside one sub-window does not move the run's figure. A
/// sub-window contributes a p99 only with ten samples beyond its own, and
/// p99 is withheld unless at least half of the sub-windows do.
class WindowLatency {
 public:
  explicit WindowLatency(int subwindows = 0) : subs_(subwindows) {}

  void add_ns(int sub, std::int64_t ns) { subs_[sub].add_ns(ns); }

  Percentiles percentiles() const {
    Percentiles p;
    std::vector<double> p50, p99;
    for (const LatencyHistogram& h : subs_) {
      const Percentiles s = h.percentiles();
      p.count += s.count;
      if (s.count > 0) p50.push_back(s.p50);
      if (s.has_p99) p99.push_back(s.p99);
    }
    p.p50 = median(p50);
    p.has_p99 = !p99.empty() && 2 * p99.size() >= subs_.size();
    if (p.has_p99) p.p99 = median(p99);
    return p;
  }

 private:
  std::vector<LatencyHistogram> subs_;
};

/// One printed metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

class Metrics {
 public:
  void add(std::string name, double value, std::string unit) {
    list_.push_back({std::move(name), value, std::move(unit)});
  }
  const std::vector<Metric>& list() const { return list_; }

 private:
  std::vector<Metric> list_;
};

/// JSON number with every measured digit (non-finite values become 0 —
/// JSON has no NaN).
inline std::string json_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out + "\"";
}

/// Name the check that failed on stderr (the first few per process).
inline void report_failure(const std::string& what) {
  static int reported = 0;
  if (reported++ < 10) std::fprintf(stderr, "perfbench: FAILED %s\n", what.c_str());
}

/// Operation outcome counters: every check the run makes lands here.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  void add(const Tally& o) {
    attempted += o.attempted;
    failed += o.failed;
  }
  /// One checked operation; a failure is named on stderr.
  void check(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      report_failure(what);
    }
  }
};

}  // namespace pb
