// serve-fleet stage: a serve::Fleet with two workers hosting the hybrid in
// fp32 and int8, driven open-loop by one generator thread from a seeded
// Poisson schedule. Latency runs from when each request was due, so a
// stalled generator cannot hide queueing.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <future>
#include <limits>
#include <mutex>

#include "metrics/metrics.h"
#include "runtime/thread_pool.h"
#include "serve/fleet.h"
#include "stages.h"
#include "trace/trace.h"

namespace pfbench {

using namespace pf;

namespace {

// Fixed load points. The nominal rate sits well below capacity, where
// most flushes are deadline-driven small batches; the goodput ladder
// climbs by 8% per rung. A short binary search finds the rung where
// probes start to fail, then an up-down staircase (up a rung after a pass,
// down after a fail) keeps probing around it. One probe's pass or fail near
// capacity is close to a coin toss, so goodput is fitted to every probe's
// outcome: the rate at the rung where a probe passes half the time.
constexpr double kNominalRps = 200.0;
constexpr double kLadderBaseRps = 100.0;
constexpr double kLadderStep = 1.08;
constexpr int kLadderRungs = 48;   // up to ~3,700 rps
constexpr int kSearchProbes = 6;   // binary search over the rungs
constexpr double kProbeS = 0.4;
constexpr int kMinStairProbes = 8;
constexpr int kModels = 2;
constexpr double kMinNominalRequests = 1200;  // p99 needs 1000

double rung_rps(double i) { return kLadderBaseRps * std::pow(kLadderStep, i); }

// Per-request timestamps of one load window, indexed by request id.
struct Log {
  explicit Log(size_t n) : fwd_start(n), fwd_end(n) {}
  std::vector<Clock::time_point> fwd_start, fwd_end;
  std::mutex mu;  // guards the per-batch records below
  std::vector<double> fwd_ms[kModels];
  int64_t batched_requests = 0;
};

// The benchmark's engine: forwards to a FrozenModel and, while a Log is
// installed, stamps when each request's batch forward started and ended.
class TimingEngine : public serve::Engine {
 public:
  TimingEngine(serve::FrozenModel* inner, int model, std::atomic<Log*>* log)
      : inner_(inner), model_(model), log_(log) {}
  std::string name() const override { return inner_->name(); }
  void forward_batch(const std::vector<serve::RequestPtr>& reqs) override {
    Log* log = log_->load(std::memory_order_acquire);
    if (!log) {
      inner_->forward_batch(reqs);
      return;
    }
    const auto t0 = Clock::now();
    inner_->forward_batch(reqs);
    const auto t1 = Clock::now();
    for (const serve::RequestPtr& r : reqs) {
      log->fwd_start[r->id] = t0;
      log->fwd_end[r->id] = t1;
    }
    std::lock_guard<std::mutex> lk(log->mu);
    log->fwd_ms[model_].push_back(ms_between(t0, t1));
    log->batched_requests += static_cast<int64_t>(reqs.size());
  }

 private:
  serve::FrozenModel* inner_;
  int model_;
  std::atomic<Log*>* log_;
};

enum class Fate : uint8_t { kUnsent, kServed, kRejected, kFailed };

struct Sample {
  size_t input;
  int model;
  serve::RequestPtr req;
};

struct WindowResult {
  double rate = 0, duration = 0;
  int64_t attempted = 0, rejected = 0, failed = 0, completed = 0;
  bool aborted = false;
  int64_t backlog_at_end = 0;
  std::vector<double> latency_ms;  // due -> client wake; +inf if not served
  std::vector<double> gen_late_ms;  // due -> submit call
  // Traced windows only.
  std::vector<double> queue_ms, reply_ms, timed_ms;
  std::vector<double> fwd_ms[kModels];  // one sample per batch
  int64_t batched_requests = 0;
  // Seeded sample of served requests for the bitwise check.
  std::vector<Sample> sampled;
};

struct Window {
  double rate = 0, duration = 0;
  uint64_t seed = 0;
  bool traced = false;
  int64_t abort_backlog = 0;  // 0 = never abort
};

// A started fleet serving the World's two engines through TimingEngines.
class Driver {
 public:
  explicit Driver(World& w) : w_(w), fleet_(fleet_config()) {
    for (int m = 0; m < kModels; ++m) {
      serve::FleetModelConfig mc;
      serve::FrozenModel* inner = m == 0 ? w.fp32.get() : w.int8.get();
      mc.name = inner->name();
      mc.factory = [inner, m, this]() -> std::unique_ptr<serve::Engine> {
        return std::make_unique<TimingEngine>(inner, m, &log_);
      };
      mc.batcher.max_batch = kServeMaxBatch;
      mc.batcher.deadline_ms = kServeDeadlineMs;
      mc.batcher.max_depth = 4096;
      mc.slo = serve::SloClass{kSloMs, 1.0};
      fleet_.add_model(std::move(mc));
    }
    fleet_.start();
    for (int m = 0; m < kModels; ++m) fleet_.materialize(m);
  }
  ~Driver() { fleet_.stop(); }
  Driver(const Driver&) = delete;
  Driver& operator=(const Driver&) = delete;

  WindowResult run(const Window& win);

 private:
  static serve::FleetConfig fleet_config() {
    serve::FleetConfig c;
    c.workers = kServeWorkers;
    return c;
  }
  World& w_;
  std::atomic<Log*> log_{nullptr};
  serve::Fleet fleet_;
};

WindowResult Driver::run(const Window& win) {
  const std::vector<Arrival> sched =
      poisson_schedule(win.seed, win.rate, kModels, win.duration);
  const size_t n = sched.size();
  WindowResult out;
  out.rate = win.rate;
  out.duration = win.duration;
  Log log(n);
  log_.store(win.traced ? &log : nullptr, std::memory_order_release);

  std::vector<serve::RequestPtr> reqs(n);
  std::vector<std::future<void>> futs(n);
  std::vector<Fate> fate(n, Fate::kUnsent);
  std::vector<Clock::time_point> submit0(n), submit1(n), wake(n);
  std::vector<size_t> pending;  // submitted, reply not seen yet

  // The generator is also the client: between due times it polls the
  // outstanding replies, so the time a reply is seen does not include a
  // blocked thread's wake-up, and a late submit can only come from the
  // generator itself running late.
  SplitMix pick(win.seed ^ 0x5EEDull);
  const auto t0 = Clock::now() + std::chrono::milliseconds(2);
  auto due_at = [&](size_t i) {
    return t0 + std::chrono::duration_cast<Clock::duration>(
                    std::chrono::duration<double>(sched[i].t_s));
  };
  auto poll = [&] {
    for (size_t k = 0; k < pending.size();) {
      const size_t i = pending[k];
      if (futs[i].wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++k;
        continue;
      }
      wake[i] = Clock::now();
      if (reqs[i]->failed) fate[i] = Fate::kFailed;
      pending[k] = pending.back();
      pending.pop_back();
    }
  };
  size_t next = 0;
  try {
    while (next < n || !pending.empty()) {
      if (next < n && Clock::now() >= due_at(next)) {
        if (win.abort_backlog > 0 &&
            static_cast<int64_t>(pending.size()) > win.abort_backlog) {
          out.aborted = true;
          next = n;
          continue;
        }
        const size_t i = next++;
        const size_t input = static_cast<size_t>(pick.next() % w_.inputs.size());
        reqs[i] = serve::make_request(i, w_.inputs[input]);
        futs[i] = reqs[i]->done.get_future();
        submit0[i] = Clock::now();
        const bool ok = fleet_.submit(sched[i].model, reqs[i]);
        submit1[i] = Clock::now();
        fate[i] = ok ? Fate::kServed : Fate::kRejected;
        if (!ok) continue;
        pending.push_back(i);
        if (pick.next() % 32 == 0) out.sampled.push_back({input, sched[i].model, reqs[i]});
        if (next == n) out.backlog_at_end = static_cast<int64_t>(pending.size());
      } else {
        poll();
      }
    }
  } catch (...) {
    // The fleet still writes into `log` until every accepted request is done.
    for (size_t i : pending) futs[i].wait();
    log_.store(nullptr, std::memory_order_release);
    throw;
  }
  log_.store(nullptr, std::memory_order_release);
  for (int m = 0; m < kModels; ++m) out.fwd_ms[m] = std::move(log.fwd_ms[m]);
  out.batched_requests = log.batched_requests;

  for (size_t i = 0; i < n; ++i) {
    if (fate[i] == Fate::kUnsent) continue;
    ++out.attempted;
    const auto due = due_at(i);
    out.gen_late_ms.push_back(ms_between(due, submit0[i]));
    if (fate[i] == Fate::kRejected) ++out.rejected;
    if (fate[i] == Fate::kFailed) ++out.failed;
    if (fate[i] != Fate::kServed) {
      out.latency_ms.push_back(std::numeric_limits<double>::infinity());
      continue;
    }
    ++out.completed;
    out.latency_ms.push_back(ms_between(due, wake[i]));
    if (!win.traced) continue;
    const double fwd = ms_between(log.fwd_start[i], log.fwd_end[i]);
    out.queue_ms.push_back(ms_between(due, log.fwd_start[i]));
    out.reply_ms.push_back(ms_between(log.fwd_end[i], wake[i]));
    out.timed_ms.push_back(ms_between(due, submit1[i]) + fwd);
  }
  return out;
}

// Tail latency the window's sample count supports, capped at p99.
double tail_ms(const std::vector<double>& lat) {
  const double q = std::min(0.99, highest_supported_tail(
                                      static_cast<int64_t>(lat.size())));
  return q > 0 ? percentile(lat, q) : std::numeric_limits<double>::infinity();
}

bool rung_passes(const WindowResult& r) {
  const double backlog_limit = std::max(8.0, r.rate * kSloMs * 1e-3);
  return !r.aborted && r.rejected == 0 && r.failed == 0 && !r.latency_ms.empty() &&
         tail_ms(r.latency_ms) <= kSloMs &&
         static_cast<double>(r.backlog_at_end) <= backlog_limit;
}

class ServeStage : public Stage {
 public:
  ServeStage(World& w, double budget_s, bool traced) : w_(w), traced_(traced) {
    // The nominal load runs in windows of about a second, pooled; together
    // they always hold enough requests for a supported p99. The ladder gets
    // the rest of the budget. The plan is fixed by the budget alone, so every
    // run of a workload does the same serving work.
    const double nominal_s = std::max(0.5 * budget_s, kMinNominalRequests / kNominalRps);
    nominal_windows_ = static_cast<int>(std::ceil(nominal_s));
    if (traced_) nominal_windows_ += nominal_windows_ % 2;  // equal on/off halves
    window_s_ = nominal_s / nominal_windows_;
    ladder_probes_ = std::max(kSearchProbes + kMinStairProbes,
                              static_cast<int>((budget_s - nominal_s) / kProbeS));
    seed_ = w.seed * 1000003ull;
  }
  int min_units() const override {
    return nominal_windows_ + ladder_probes_;
  }
  bool finished() const override {
    return windows_ + static_cast<int>(probe_rungs_.size()) >= min_units();
  }
  void unit() override;
  void report(Report& rep) override;

 private:
  void account(const WindowResult& r) {
    attempted_ += r.attempted;
    rejected_ += r.rejected;
    failed_ += r.failed;
    for (double g : r.gen_late_ms) gen_late_max_ = std::max(gen_late_max_, g);
    sampled_.insert(sampled_.end(), r.sampled.begin(), r.sampled.end());
  }
  template <typename T>
  static void append(std::vector<T>& to, const std::vector<T>& from) {
    to.insert(to.end(), from.begin(), from.end());
  }

  World& w_;
  bool traced_;
  int nominal_windows_ = 0, windows_ = 0, search_probes_ = 0, ladder_probes_ = 0;
  double window_s_ = 0;
  uint64_t seed_ = 0;
  int64_t attempted_ = 0, rejected_ = 0, failed_ = 0;
  double gen_late_max_ = 0;
  std::vector<Sample> sampled_;
  // Nominal windows; traced runs split them into layer timing off / on.
  std::vector<double> latency_ms_, off_latency_ms_;
  std::vector<double> queue_ms_, reply_ms_, timed_ms_, on_latency_ms_;
  std::vector<double> fwd_ms_[kModels];
  int64_t batched_requests_ = 0, on_completed_ = 0;
  uint64_t on_sys_allocs_ = 0;
  // Goodput ladder. Search: rung lo_ passes, rung hi_ fails. The rung and
  // outcome of every probe made, search and staircase, and the staircase's
  // next rung.
  int lo_ = -1, hi_ = kLadderRungs;
  std::vector<double> probe_rungs_;
  std::vector<bool> probe_passed_;
  int stair_next_ = 0;
};

void ServeStage::unit() {
  runtime::set_threads(kServeWorkers);
  Driver drv(w_);
  if (windows_ < nominal_windows_) {
    const bool on = traced_ && windows_ % 2 == 1;
    trace::set_enabled(on);
    const metrics::AllocStats a0 = metrics::alloc_stats();
    const WindowResult r = drv.run({kNominalRps, window_s_, seed_++, on, 0});
    const uint64_t allocs = metrics::alloc_stats().sys_allocs - a0.sys_allocs;
    trace::set_enabled(false);
    trace::drain();
    account(r);
    ++windows_;
    if (!traced_) {
      append(latency_ms_, r.latency_ms);
    } else if (!on) {
      append(off_latency_ms_, r.latency_ms);
    } else {
      append(on_latency_ms_, r.latency_ms);
      append(queue_ms_, r.queue_ms);
      append(reply_ms_, r.reply_ms);
      append(timed_ms_, r.timed_ms);
      for (int m = 0; m < kModels; ++m) append(fwd_ms_[m], r.fwd_ms[m]);
      batched_requests_ += r.batched_requests;
      on_completed_ += r.completed;
      on_sys_allocs_ += allocs;
    }
    return;
  }
  // Goodput: a probe passes when it meets the SLO with no failures and no
  // growing backlog. Binary search first, then the staircase from the
  // highest rung the search saw pass.
  const bool search = search_probes_ < kSearchProbes && hi_ - lo_ > 1;
  const int rung = search ? (lo_ + hi_) / 2 : stair_next_;
  const double rate = rung_rps(rung);
  const WindowResult r = drv.run(
      {rate, kProbeS, seed_++, false,
       static_cast<int64_t>(std::max(16.0, rate * 2 * kSloMs * 1e-3))});
  account(r);
  const bool pass = rung_passes(r);
  probe_rungs_.push_back(rung);
  probe_passed_.push_back(pass);
  if (search) {
    ++search_probes_;
    (pass ? lo_ : hi_) = rung;
    stair_next_ = std::max(lo_, 0);
    return;
  }
  stair_next_ = std::clamp(rung + (pass ? 1 : -1), 0, kLadderRungs - 1);
}

void ServeStage::report(Report& rep) {
  // Batch-composition invariance: a served row equals the engine's forward
  // of that single input, bit for bit.
  runtime::set_threads(1);  // the fleet's workers forward inline-serial
  int64_t mismatched = 0;
  for (const Sample& s : sampled_) {
    const serve::FrozenModel& m = s.model == 0 ? *w_.fp32 : *w_.int8;
    const Tensor ref = m.forward(w_.inputs[s.input].reshape(Shape{1, 3, kHw, kHw}));
    const Tensor& got = s.req->output;
    if (got.numel() != ref.numel() ||
        std::memcmp(got.data(), ref.data(),
                    static_cast<size_t>(ref.numel()) * sizeof(float)) != 0)
      ++mismatched;
  }
  rep.check(!sampled_.empty() && mismatched == 0,
            "serve-fleet: " + std::to_string(sampled_.size()) +
                " sampled rows equal FrozenModel::forward bitwise (" +
                std::to_string(mismatched) + " differ)");
  rep.ops("serve.requests", attempted_, rejected_ + failed_);
  rep.note("serve_gen_late_ms_max", std::to_string(gen_late_max_));
  std::string probes;
  for (size_t i = 0; i < probe_rungs_.size(); ++i) {
    if (!probes.empty()) probes += ',';
    probes += std::to_string(static_cast<int>(probe_rungs_[i])) + (probe_passed_[i] ? "+" : "-");
  }
  rep.note("serve_goodput_probes", probes);

  if (!traced_) {
    rep.check(tail_supported(static_cast<int64_t>(latency_ms_.size()), 0.99),
              "serve-fleet: nominal windows hold >= 10 samples beyond p99");
    // The p99 is printed here, ungated: on a shared host it tracks the
    // hypervisor's preemptions more than the fleet (see README).
    rep.note("serve_nominal_samples", std::to_string(latency_ms_.size()));
    rep.note("serve_p99_ms", std::to_string(percentile(latency_ms_, 0.99)));
    rep.metric("serve_p50_ms", percentile(latency_ms_, 0.5), "ms");
    rep.metric("serve_goodput_rps",
               rung_rps(logistic_midpoint(probe_rungs_, probe_passed_, 1.0, -1,
                                          kLadderRungs)),
               "req/s");
    return;
  }
  // Traced runs report the tail over all nominal windows, timing on and off.
  std::vector<double> all = off_latency_ms_;
  append(all, on_latency_ms_);
  rep.metric("serve_p99_ms", tail_ms(all), "ms");
  rep.metric("serve.queue_wait_ms.p50", percentile(queue_ms_, 0.5), "ms");
  rep.metric("serve.queue_wait_ms.p99", tail_ms(queue_ms_), "ms");
  rep.metric("serve.batch_size_mean",
             static_cast<double>(batched_requests_) /
                 static_cast<double>(fwd_ms_[0].size() + fwd_ms_[1].size()),
             "count");
  rep.metric("serve.forward_ms.fp32", median(fwd_ms_[0]), "ms");
  rep.metric("serve.forward_ms.int8", median(fwd_ms_[1]), "ms");
  rep.metric("serve.reply_ms.p99", tail_ms(reply_ms_), "ms");
  rep.metric("serve.sys_allocs_per_req",
             static_cast<double>(on_sys_allocs_) /
                 static_cast<double>(std::max<int64_t>(1, on_completed_)),
             "count");
  double timed = 0, total = 0;
  for (double t : timed_ms_) timed += t;
  for (double l : on_latency_ms_)
    if (std::isfinite(l)) total += l;
  rep.metric("coverage.serve.timed_share", timed / total, "ratio");
  rep.metric("coverage.serve.untimed_ms_per_req",
             (total - timed) / static_cast<double>(timed_ms_.size()), "ms");
  rep.metric("trace.overhead_pct.serve",
             100.0 * (mean(on_latency_ms_) / mean(off_latency_ms_) - 1.0), "%");
  rep.metric("serve.gen_late_ms.max", gen_late_max_, "ms");
  rep.metric("serve.rejected", static_cast<double>(rejected_), "count");
  rep.metric("serve.failed", static_cast<double>(failed_), "count");
}

}  // namespace

std::unique_ptr<Stage> make_serve_stage(World& w, double budget_s, bool traced) {
  return std::make_unique<ServeStage>(w, budget_s, traced);
}

}  // namespace pfbench
