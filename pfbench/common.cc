#include "common.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

namespace pfbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(q * static_cast<double>(v.size()) - 1e-9);
  const size_t i = static_cast<size_t>(std::clamp(rank, 1.0,
                                                  static_cast<double>(v.size())));
  return v[i - 1];
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
  return std::accumulate(v.begin(), v.end(), 0.0) / static_cast<double>(v.size());
}

bool tail_supported(int64_t n, double q) {
  // Samples strictly beyond the nearest-rank position.
  const double beyond = static_cast<double>(n) -
                        std::ceil(q * static_cast<double>(n) - 1e-9);
  return n > 0 && beyond >= 10.0;
}

double highest_supported_tail(int64_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9, 0.5})
    if (tail_supported(n, q)) return q;
  return 0.0;
}

uint64_t SplitMix::next() {
  uint64_t z = (s += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

double SplitMix::uniform() {
  return static_cast<double>(next() >> 11) * (1.0 / 9007199254740992.0);
}

double logistic_midpoint(const std::vector<double>& x, const std::vector<bool>& passed,
                         double width, double lo, double hi) {
  size_t passes = 0;
  for (bool p : passed) passes += p;
  if (passes == passed.size()) return hi;
  if (passes == 0) return lo;
  // The log-likelihood's derivative in mu, sum(passed - P(pass)), falls as
  // mu rises, so bisect for its zero.
  for (int it = 0; it < 64; ++it) {
    const double mu = 0.5 * (lo + hi);
    double score = 0;
    for (size_t i = 0; i < x.size(); ++i)
      score += (passed[i] ? 1.0 : 0.0) - 1.0 / (1.0 + std::exp((x[i] - mu) / width));
    (score > 0 ? lo : hi) = mu;
  }
  return 0.5 * (lo + hi);
}

std::vector<Arrival> poisson_schedule(uint64_t seed, double total_rps,
                                      int models, double duration_s) {
  std::vector<Arrival> out;
  if (models < 1 || total_rps <= 0 || duration_s <= 0) return out;
  const double rate = total_rps / models;
  for (int m = 0; m < models; ++m) {
    SplitMix rng(seed * 0x100000001B3ull + static_cast<uint64_t>(m) + 1);
    double t = 0;
    for (;;) {
      t += -std::log(1.0 - rng.uniform()) / rate;
      if (t >= duration_s) break;
      out.push_back({t, m});
    }
  }
  std::stable_sort(out.begin(), out.end(), [](const Arrival& a, const Arrival& b) {
    return a.t_s != b.t_s ? a.t_s < b.t_s : a.model < b.model;
  });
  return out;
}

bool valid_name(const std::string& s) {
  if (s.empty() || s.size() > 64) return false;
  if (!std::isalnum(static_cast<unsigned char>(s[0]))) return false;
  for (char c : s)
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_' && c != '.' &&
        c != '-')
      return false;
  return true;
}

void Report::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!valid_name(name)) throw std::runtime_error("invalid metric name: " + name);
  if (metrics_.count(name)) throw std::runtime_error("metric reported twice: " + name);
  metrics_[name] = {value, unit};
  order_.push_back(name);
}

void Report::ops(const std::string& kind, int64_t attempted, int64_t failed) {
  ops_.push_back({kind, {attempted, failed}});
}

void Report::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    failed_checks_.push_back(what);
    std::fprintf(stderr, "pfbench: CHECK FAILED: %s\n", what.c_str());
  }
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.push_back({key, value});
}

int64_t Report::attempted() const {
  int64_t a = 0;
  for (const auto& o : ops_) a += o.second.first;
  return a;
}

int64_t Report::failed() const {
  int64_t f = static_cast<int64_t>(failed_checks_.size());
  for (const auto& o : ops_) f += o.second.second;
  return f;
}

void Report::print(const std::map<std::string, std::string>& host) const {
  std::printf("%-40s %16s  %s\n", "metric", "value", "unit");
  for (const std::string& n : order_) {
    const auto& m = metrics_.at(n);
    std::printf("%-40s %16.6g  %s\n", n.c_str(), m.first, m.second.c_str());
  }
  std::string h = "{\"host\": {";
  bool first = true;
  for (const auto& kv : host) {
    h += (first ? "" : ", ") + json_string(kv.first) + ": " + json_string(kv.second);
    first = false;
  }
  std::printf("%s}}\n", h.c_str());

  std::string o = "{\"outcomes\": {";
  first = true;
  for (const auto& op : ops_) {
    o += (first ? "" : ", ") + json_string(op.first) + ": {\"attempted\": " +
         std::to_string(op.second.first) + ", \"succeeded\": " +
         std::to_string(op.second.first - op.second.second) +
         ", \"failed\": " + std::to_string(op.second.second) + "}";
    first = false;
  }
  o += "}, \"checks\": " + std::to_string(checks_) + ", \"failed_checks\": [";
  for (size_t i = 0; i < failed_checks_.size(); ++i)
    o += (i ? ", " : "") + json_string(failed_checks_[i]);
  o += "]";
  for (const auto& kv : notes_)
    o += ", " + json_string(kv.first) + ": " + json_string(kv.second);
  std::printf("%s}\n", o.c_str());

  std::string r = "{\"correct\": ";
  r += correct() ? "true" : "false";
  r += ", \"attempted\": " + std::to_string(attempted()) +
       ", \"failed\": " + std::to_string(failed()) + ", \"metrics\": {";
  first = true;
  for (const std::string& n : order_) {
    const auto& m = metrics_.at(n);
    r += (first ? "" : ", ") + json_string(n) + ": {\"value\": " +
         json_number(m.first) + ", \"unit\": " + json_string(m.second) + "}";
    first = false;
  }
  std::printf("%s}}\n", r.c_str());
  std::fflush(stdout);
}

std::map<std::string, std::string> host_record() {
  std::map<std::string, std::string> h;
  std::ifstream f("/proc/cpuinfo");
  std::string line, model = "unknown", flags;
  while (std::getline(f, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    std::string key = line.substr(0, colon);
    key.erase(key.find_last_not_of(" \t") + 1);
    const std::string val =
        colon + 2 <= line.size() ? line.substr(colon + 2) : std::string();
    if (key == "model name" && model == "unknown") model = val;
    if (key == "flags" && flags.empty()) flags = " " + val + " ";
  }
  h["cpu_model"] = model;
  h["nproc"] = std::to_string(std::thread::hardware_concurrency());
  std::string simd;
  for (const char* fl : {"avx2", "fma", "avx512f", "avx512bw", "avx512vl"})
    if (flags.find(std::string(" ") + fl + " ") != std::string::npos) {
      if (!simd.empty()) simd += ',';
      simd += fl;
    }
  h["simd_flags"] = simd.empty() ? "none" : simd;
  return h;
}

}  // namespace pfbench
