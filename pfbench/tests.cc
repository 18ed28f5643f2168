// Tests for the benchmark's own helpers (common.h): the percentile and its
// ">= 10 samples beyond" rule, the seeded Poisson schedule, metric-name
// validation and outcome accounting. Build the pfbench_tests target and run
// it (or `ctest` in the build directory); exits non-zero on failure.
#include <cmath>
#include <cstdio>
#include <string>

#include "common.h"

namespace {

int failures = 0;

#define EXPECT(cond)                                                   \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "%s:%d: EXPECT(%s) failed\n", __FILE__,     \
                   __LINE__, #cond);                                   \
      ++failures;                                                      \
    }                                                                  \
  } while (0)

using namespace pfbench;

void test_percentile() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  EXPECT(percentile(v, 0.5) == 50);
  EXPECT(percentile(v, 0.99) == 99);
  EXPECT(percentile(v, 1.0) == 100);
  EXPECT(percentile(v, 0.0) == 1);
  EXPECT(median({3, 1, 2}) == 2);
  EXPECT(std::isnan(percentile({}, 0.5)));
}

void test_tail_rule() {
  // p99 of 1000 samples leaves exactly 10 beyond it; of 999, only 9.
  EXPECT(tail_supported(1000, 0.99));
  EXPECT(!tail_supported(999, 0.99));
  EXPECT(tail_supported(10000, 0.999));
  EXPECT(!tail_supported(9999, 0.999));
  EXPECT(!tail_supported(0, 0.5));
  EXPECT(highest_supported_tail(10000) == 0.999);
  EXPECT(highest_supported_tail(1000) == 0.99);
  EXPECT(highest_supported_tail(200) == 0.95);
  EXPECT(highest_supported_tail(100) == 0.9);
  EXPECT(highest_supported_tail(20) == 0.5);
  EXPECT(highest_supported_tail(19) == 0.0);
}

void test_poisson_schedule() {
  const auto a = poisson_schedule(42, 500.0, 2, 4.0);
  const auto b = poisson_schedule(42, 500.0, 2, 4.0);
  const auto c = poisson_schedule(43, 500.0, 2, 4.0);
  EXPECT(a.size() == b.size());
  bool same = a.size() == b.size();
  for (size_t i = 0; same && i < a.size(); ++i)
    same = a[i].t_s == b[i].t_s && a[i].model == b[i].model;
  EXPECT(same);  // reproducible from the seed alone
  bool differs = a.size() != c.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) differs = a[i].t_s != c[i].t_s;
  EXPECT(differs);
  // 2000 expected arrivals: within 5 standard deviations (~224).
  EXPECT(std::abs(static_cast<double>(a.size()) - 2000.0) < 224.0);
  size_t per_model[2] = {0, 0};
  bool sorted = true, in_range = true;
  for (size_t i = 0; i < a.size(); ++i) {
    ++per_model[a[i].model];
    in_range = in_range && a[i].t_s >= 0 && a[i].t_s < 4.0;
    if (i) sorted = sorted && a[i - 1].t_s <= a[i].t_s;
  }
  EXPECT(sorted);
  EXPECT(in_range);
  EXPECT(std::abs(static_cast<double>(per_model[0]) - 1000.0) < 160.0);
  EXPECT(std::abs(static_cast<double>(per_model[1]) - 1000.0) < 160.0);
  EXPECT(poisson_schedule(1, 0.0, 2, 1.0).empty());
}

void test_logistic_midpoint() {
  // Symmetric outcomes around 10 put the midpoint at 10.
  const std::vector<double> x = {8, 9, 10, 10, 11, 12};
  const std::vector<bool> y = {true, true, true, false, false, false};
  EXPECT(std::fabs(logistic_midpoint(x, y, 1.0, 0, 48) - 10) < 1e-9);
  // One more pass at 11 moves it up; the clamps hold when nothing flips.
  EXPECT(logistic_midpoint({8, 9, 10, 10, 11, 11, 12}, {true, true, true, false, true, false, false},
                           1.0, 0, 48) > 10);
  EXPECT(std::fabs(logistic_midpoint({5, 6}, {true, true}, 1.0, -1, 48) - 48) < 1e-9);
  EXPECT(std::fabs(logistic_midpoint({5, 6}, {false, false}, 1.0, -1, 48) + 1) < 1e-9);
}

void test_names() {
  for (const char* ok : {"setup_s", "serve_p99_ms", "shm.comm_share.hybrid",
                         "engine.fwd_ms.fp32.b1", "train-rn18", "9lives"})
    EXPECT(valid_name(ok));
  for (const char* bad : {"", "a b", "-lead", ".lead", "_lead", "a/b", "p99%", "x\n"})
    EXPECT(!valid_name(bad));
  EXPECT(valid_name(std::string(64, 'a')));
  EXPECT(!valid_name(std::string(65, 'a')));
}

void test_report() {
  Report r;
  r.metric("a.b", 1.0, "ms");
  bool threw = false;
  try {
    r.metric("a.b", 2.0, "ms");
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);  // each name once
  threw = false;
  try {
    r.metric("bad name", 1.0, "ms");
  } catch (const std::exception&) {
    threw = true;
  }
  EXPECT(threw);
  r.ops("requests", 10, 2);
  r.ops("steps", 5, 0);
  r.check(true, "fine");
  EXPECT(r.correct());
  EXPECT(r.attempted() == 15 && r.failed() == 2);
  r.check(false, "broken");  // a failed check is a failed operation
  EXPECT(!r.correct());
  EXPECT(r.failed() == 3);
}

}  // namespace

int main() {
  test_percentile();
  test_tail_rule();
  test_poisson_schedule();
  test_logistic_midpoint();
  test_names();
  test_report();
  if (failures) {
    std::fprintf(stderr, "%d expectation(s) failed\n", failures);
    return 1;
  }
  std::printf("pfbench helper tests passed\n");
  return 0;
}
