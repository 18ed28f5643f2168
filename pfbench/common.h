// Shared pieces of the repository benchmark: statistics helpers, the seeded
// open-loop arrival schedule, metric-name validation, the result/report
// writer, and the host record. Everything here is independent of the
// pufferfish library so tests.cc can exercise it in isolation.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace pfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}
inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---- statistics ----

// Nearest-rank percentile (q in [0, 1]) of `v`; NaN when `v` is empty.
double percentile(std::vector<double> v, double q);
double median(std::vector<double> v);
double mean(const std::vector<double>& v);
// True when percentile q of n samples has at least ten samples beyond it,
// the rule for which tail percentile a sample count can support.
bool tail_supported(int64_t n, double q);
// Highest q among {0.999, 0.99, 0.95, 0.9, 0.5} that n samples support, or
// 0 when none does.
double highest_supported_tail(int64_t n);
// Where a pass/fail outcome flips: the maximum-likelihood location mu of
// P(pass at x) = 1 / (1 + exp((x - mu) / width)) over the (x, passed)
// observations, searched in [lo, hi]. All passes give hi, all fails lo.
double logistic_midpoint(const std::vector<double>& x, const std::vector<bool>& passed,
                         double width, double lo, double hi);

// ---- open-loop arrivals ----

// splitmix64: the benchmark's own seeded stream, so generated inputs depend
// only on --seed and on nothing inside the library under test.
struct SplitMix {
  uint64_t s;
  explicit SplitMix(uint64_t seed) : s(seed) {}
  uint64_t next();
  double uniform();  // [0, 1)
};

struct Arrival {
  double t_s;   // due time from the schedule start
  int model;    // which fleet model
};
// Merged Poisson arrivals: `models` independent streams of rate
// total_rps / models each over [0, duration_s), sorted by (time, model).
// A pure function of its arguments.
std::vector<Arrival> poisson_schedule(uint64_t seed, double total_rps,
                                      int models, double duration_s);

// ---- names and report ----

// Metric and workload names: [A-Za-z0-9_.-]+, at most 64 characters,
// starting with a letter or digit.
bool valid_name(const std::string& s);

class Report {
 public:
  // Records a metric; throws on an invalid or repeated name.
  void metric(const std::string& name, double value, const std::string& unit);
  // Records one operation kind's outcome (steps, epochs, requests).
  void ops(const std::string& kind, int64_t attempted, int64_t failed);
  // Records a correctness check; a failed check counts as a failed
  // operation.
  void check(bool ok, const std::string& what);
  void note(const std::string& key, const std::string& value);

  bool correct() const { return failed_checks_.empty(); }
  int64_t attempted() const;
  int64_t failed() const;

  // Human-readable table plus the host/outcome JSON lines, then the final
  // result line {"correct","attempted","failed","metrics"} last.
  void print(const std::map<std::string, std::string>& host) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> order_;
  std::vector<std::pair<std::string, std::pair<int64_t, int64_t>>> ops_;
  std::vector<std::string> failed_checks_;
  int64_t checks_ = 0;
  std::vector<std::pair<std::string, std::string>> notes_;
};

// CPU model, nproc and SIMD flags from /proc/cpuinfo; the caller adds the
// backend, PF_THREADS, seed and workload.
std::map<std::string, std::string> host_record();

}  // namespace pfbench
