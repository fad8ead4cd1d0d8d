// Small helpers shared by the benchmark harness: clocks, order statistics,
// flag parsing and a flat JSON object writer. Nothing here calls into the
// PKGM library.
#ifndef PKGMBENCH_BENCH_UTIL_H_
#define PKGMBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

namespace pkgmbench {

using Clock = std::chrono::steady_clock;

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double MicrosBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// q-quantile (0..1) by linear interpolation between order statistics;
/// sorts a copy. NaN for an empty sample.
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Median nanoseconds per call of `fn(i)`, over `reps` timed blocks of
/// `calls` calls each.
template <typename Fn>
double NsPerCall(int reps, int calls, Fn fn) {
  std::vector<double> per;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    for (int i = 0; i < calls; ++i) fn(i);
    per.push_back(MicrosBetween(t0, Clock::now()) * 1e3 / calls);
  }
  return Median(per);
}

/// Command-line flags of the form `--name value`.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "unexpected argument %s\n", argv[i]);
        std::exit(2);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if ((argc - first) % 2 != 0) {
      std::fprintf(stderr, "flag %s has no value\n", argv[argc - 1]);
      std::exit(2);
    }
  }
  std::string Str(const std::string& name, const std::string& def = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? def : it->second;
  }
  std::string Need(const std::string& name) const {
    auto it = values_.find(name);
    if (it == values_.end()) {
      std::fprintf(stderr, "missing --%s\n", name.c_str());
      std::exit(2);
    }
    return it->second;
  }
  uint64_t U64(const std::string& name, uint64_t def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtoull(it->second.c_str(), nullptr, 10);
  }
  double F64(const std::string& name, double def) const {
    auto it = values_.find(name);
    return it == values_.end() ? def : std::strtod(it->second.c_str(), nullptr);
  }

 private:
  std::map<std::string, std::string> values_;
};

/// Accumulates one flat JSON object: numbers, strings, a check count and
/// the failed checks' messages. Printed as a single line.
class JsonOut {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    if (std::isfinite(v)) {
      std::snprintf(buf, sizeof(buf), "%.9g", v);
    } else {
      std::snprintf(buf, sizeof(buf), "null");
    }
    fields_.emplace_back(key, buf);
  }
  void Str(const std::string& key, const std::string& v) {
    fields_.emplace_back(key, Quote(v));
  }
  /// Records a check outcome; a failure is kept with its message.
  bool Check(bool ok, const std::string& what) {
    ++checks_;
    if (!ok) failures_.push_back(what);
    return ok;
  }

  std::string Render() const {
    std::string s = "{";
    for (const auto& [k, v] : fields_) s += Quote(k) + ":" + v + ",";
    s += "\"checks\":" + std::to_string(checks_) + ",\"failures\":[";
    for (size_t i = 0; i < failures_.size(); ++i) {
      if (i > 0) s += ",";
      s += Quote(failures_[i]);
    }
    s += "]}";
    return s;
  }
  void Print() const { std::printf("%s\n", Render().c_str()); std::fflush(stdout); }

 private:
  static std::string Quote(const std::string& v) {
    std::string s = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') s += '\\';
      s += (c == '\n' || c == '\t') ? ' ' : c;
    }
    return s + "\"";
  }
  std::vector<std::pair<std::string, std::string>> fields_;
  std::vector<std::string> failures_;
  size_t checks_ = 0;
};

}  // namespace pkgmbench

#endif  // PKGMBENCH_BENCH_UTIL_H_
