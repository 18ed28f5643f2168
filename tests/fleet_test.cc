// Fleet serving tests: dynamic-batching flush rules and bounded admission
// through one-model fleets, lazy engine materialization, per-model bounded
// admission, weighted-EDF scheduling order, per-model stats breakdowns,
// config and index validation, the closed/open-loop load generators, trace
// determinism, and bitwise-identical serve outputs across thread counts.
// The whole file also runs under PF_THREADS=4 (ctest pf_tests_threads4),
// ASan (pf_tests_quant) and ThreadSanitizer (pf_tests_tsan), which is where
// the "engines are read-only after prime()" contract is actually enforced.
#include "serve/fleet.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <future>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "metrics/metrics.h"
#include "models/resnet.h"
#include "quant/quantize.h"
#include "runtime/thread_pool.h"

namespace pf::serve {
namespace {

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) return false;
  return std::memcmp(std::as_const(a).data(), std::as_const(b).data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// Restores the env-default thread count when a test exits.
struct ThreadGuard {
  ~ThreadGuard() { runtime::set_threads(0); }
};

// Engine that records which (model tag, request id) it served, in order,
// and the size of every batch. The shared log has its own mutex: engines of
// one fleet run concurrently.
struct ServeLog {
  std::mutex m;
  std::vector<std::pair<int, uint64_t>> order;
  std::vector<size_t> batches;
};

class TaggingEngine : public Engine {
 public:
  TaggingEngine(int tag, ServeLog* log) : tag_(tag), log_(log) {}
  std::string name() const override { return "tag-" + std::to_string(tag_); }
  void forward_batch(const std::vector<RequestPtr>& reqs) override {
    std::lock_guard<std::mutex> lk(log_->m);
    log_->batches.push_back(reqs.size());
    for (const RequestPtr& r : reqs) {
      log_->order.emplace_back(tag_, r->id);
      r->output = r->input;  // echo
    }
  }

 private:
  int tag_;
  ServeLog* log_;
};

FleetModelConfig tagging_model(const std::string& name, int tag,
                               ServeLog* log, std::atomic<int>* built,
                               double deadline_ms = 10.0,
                               double weight = 1.0) {
  FleetModelConfig mc;
  mc.name = name;
  mc.factory = [tag, log, built]() -> std::unique_ptr<Engine> {
    if (built) built->fetch_add(1);
    return std::make_unique<TaggingEngine>(tag, log);
  };
  mc.batcher.max_batch = 4;
  mc.batcher.deadline_ms = 0.0;  // greedy flush: scheduling is all ordering
  mc.slo.deadline_ms = deadline_ms;
  mc.slo.weight = weight;
  return mc;
}

RequestPtr req(uint64_t id) {
  return make_request(id, Tensor(Shape{1}));
}

FleetConfig workers(int n) {
  FleetConfig c;
  c.workers = n;
  return c;
}

// A model entry serving an engine the test owns (non-owning shared_ptr).
FleetModelConfig borrowed(Engine& e, const BatcherConfig& batcher) {
  FleetModelConfig mc;
  mc.name = e.name();
  mc.factory = [&e] {
    return std::shared_ptr<Engine>(std::shared_ptr<void>{}, &e);
  };
  mc.batcher = batcher;
  return mc;
}

BatcherConfig batcher(int64_t max_batch, double deadline_ms,
                      int64_t max_depth = 256) {
  BatcherConfig b;
  b.max_batch = max_batch;
  b.deadline_ms = deadline_ms;
  b.max_depth = max_depth;
  return b;
}

// Submits requests [first, first + n) to `model`; returns their futures.
std::vector<std::future<void>> submit_n(Fleet& fleet, int model,
                                        uint64_t first, int n) {
  std::vector<std::future<void>> futs;
  for (int i = 0; i < n; ++i) {
    RequestPtr r = req(first + static_cast<uint64_t>(i));
    futs.push_back(r->done.get_future());
    EXPECT_TRUE(fleet.submit(model, r)) << "request " << first + i;
  }
  return futs;
}

void wait_all(std::vector<std::future<void>>& futs) {
  for (auto& f : futs) f.wait();
}

std::unique_ptr<nn::UnaryModule> tiny_resnet(uint64_t seed,
                                             int first_lowrank = 0) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.first_lowrank_block = first_lowrank;
  cfg.rank_ratio = 0.25;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

std::unique_ptr<models::LstmLm> tiny_lstm(uint64_t seed) {
  Rng rng(seed);
  models::LstmLmConfig cfg = models::LstmLmConfig::tiny(0);
  cfg.vocab = 50;
  cfg.hidden = 16;
  return std::make_unique<models::LstmLm>(cfg, rng);
}

// Engine stub whose forward blocks on a gate; used to pin requests in the
// queue deterministically.
class GateEngine : public Engine {
 public:
  GateEngine() : gate_open_(gate_.get_future().share()) {}
  std::string name() const override { return "gate"; }
  void forward_batch(const std::vector<RequestPtr>& reqs) override {
    if (!started_flag_.exchange(true)) started_.set_value();
    gate_open_.wait();
    for (const RequestPtr& r : reqs) r->output = Tensor::ones(Shape{1});
  }
  std::future<void> started() { return started_.get_future(); }
  void open() { gate_.set_value(); }

 private:
  std::promise<void> started_;
  std::atomic<bool> started_flag_{false};
  std::promise<void> gate_;
  std::shared_future<void> gate_open_;
};

// ---------------- Flush rules and admission, one model ----------------
// The Batcher suite checks a model queue's micro-batch flush rules; the
// Server suite checks the one-model serving path end to end.

TEST(Batcher, FlushesImmediatelyAtMaxBatch) {
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(4, /*deadline_ms=*/10000);  // the deadline must not
                                                   // be what flushes this
  fleet.add_model(std::move(mc));
  std::vector<std::future<void>> futs = submit_n(fleet, 0, 0, 4);
  metrics::Timer t;
  fleet.start();
  wait_all(futs);
  EXPECT_LT(t.seconds(), 1.0);  // no deadline wait
  fleet.stop();
  ASSERT_EQ(log.batches, std::vector<size_t>{4});
  for (uint64_t i = 0; i < 4; ++i) EXPECT_EQ(log.order[i].second, i);
  EXPECT_EQ(fleet.queue_depth(0), 0);
}

TEST(Batcher, FlushesPartialBatchAtDeadline) {
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(8, /*deadline_ms=*/30);
  fleet.add_model(std::move(mc));
  std::vector<std::future<void>> futs = submit_n(fleet, 0, 0, 2);
  metrics::Timer t;
  fleet.start();
  wait_all(futs);
  const double waited = t.seconds();
  fleet.stop();
  ASSERT_EQ(log.batches, std::vector<size_t>{2});
  // The oldest request's deadline bounds the wait: the worker must have
  // actually waited for peers (>= ~deadline, minus scheduling slop).
  EXPECT_GE(waited, 0.02);
}

TEST(Batcher, ZeroDeadlineIsGreedy) {
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(8, /*deadline_ms=*/0);
  fleet.add_model(std::move(mc));
  fleet.start();
  metrics::Timer t;
  std::vector<std::future<void>> futs = submit_n(fleet, 0, 0, 1);
  wait_all(futs);
  EXPECT_LT(t.seconds(), 1.0);
  fleet.stop();
  EXPECT_EQ(log.batches, std::vector<size_t>{1});
}

TEST(Batcher, RejectsBeyondBoundedDepth) {
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(4, /*deadline_ms=*/10000, /*max_depth=*/3);
  fleet.add_model(std::move(mc));
  std::vector<std::future<void>> futs = submit_n(fleet, 0, 0, 3);
  EXPECT_FALSE(fleet.submit(0, req(3)));
  EXPECT_EQ(fleet.queue_depth(0), 3);
  // Drain semantics: stop() hands out the queued work -- without waiting
  // the 10 s deadline for a fourth peer -- before the worker exits...
  metrics::Timer t;
  fleet.start();
  fleet.stop();
  EXPECT_LT(t.seconds(), 5.0);
  wait_all(futs);
  EXPECT_EQ(log.batches, std::vector<size_t>{3});
  // ...and a stopped fleet admits nothing.
  EXPECT_FALSE(fleet.submit(0, req(4)));
}

TEST(Batcher, DeadlineReArmsAfterAnotherWorkerFlushes) {
  // Regression for the flush-deadline re-arm path: a worker parks on a
  // deadline computed from the oldest request; another worker pops that
  // request. The deadline must then be re-anchored to the CURRENT front --
  // a stale anchor would flush a freshly submitted request immediately (as
  // a batch of one) instead of letting it wait its own deadline_ms for
  // peers.
  ThreadGuard guard;
  runtime::set_threads(2);
  ServeLog log;
  Fleet fleet(workers(2));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(3, /*deadline_ms=*/80);
  fleet.add_model(std::move(mc));
  fleet.start();

  // Workers park with the deadline anchored to request 0.
  std::vector<std::future<void>> first = submit_n(fleet, 0, 0, 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  // Two more submissions complete a full batch that a worker takes
  // immediately -- request 0 leaves the queue.
  std::vector<std::future<void>> rest = submit_n(fleet, 0, 1, 2);
  wait_all(first);
  wait_all(rest);

  // A fresh request submitted now is anchored to its OWN submit time: it
  // must be held for ~deadline_ms waiting for peers, not flushed instantly
  // against request 0's long-gone deadline.
  metrics::Timer t;
  std::vector<std::future<void>> fresh = submit_n(fleet, 0, 3, 1);
  wait_all(fresh);
  const double waited = t.seconds();
  fleet.stop();
  ASSERT_EQ(log.batches, (std::vector<size_t>{3, 1}));
  EXPECT_EQ(log.order.back().second, 3u);
  EXPECT_GE(waited, 0.05);  // ~deadline_ms minus scheduling slop
}

TEST(Batcher, ZeroDeadlineStaysGreedyUnderConcurrentWorkers) {
  // deadline_ms = 0 degenerate case: the front's flush time is its own
  // submit time (always in the past), so workers never park on a deadline
  // -- even when several race over the same queue.
  ThreadGuard guard;
  runtime::set_threads(3);
  ServeLog log;
  Fleet fleet(workers(3));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(4, /*deadline_ms=*/0);
  fleet.add_model(std::move(mc));
  constexpr int kRequests = 32;
  fleet.start();
  metrics::Timer t;
  std::vector<std::future<void>> futs = submit_n(fleet, 0, 0, kRequests);
  fleet.stop();
  wait_all(futs);
  EXPECT_EQ(log.order.size(), static_cast<size_t>(kRequests));  // each once
  EXPECT_LT(t.seconds(), 5.0);  // greedy: nobody waited a deadline
}

TEST(Batcher, ShutdownWakesBlockedWorker) {
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("m", 0, &log, nullptr);
  mc.batcher = batcher(8, /*deadline_ms=*/10000);
  fleet.add_model(std::move(mc));
  fleet.start();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  metrics::Timer t;
  fleet.stop();  // the worker is parked on empty queues; stop must wake it
  EXPECT_LT(t.seconds(), 5.0);
  EXPECT_TRUE(log.batches.empty());
}

TEST(Server, AdmissionRejectsWhenQueueFull) {
  GateEngine engine;
  metrics::FleetStats stats;
  stats.add_model("gate");
  stats.begin();
  Fleet fleet(workers(1), &stats);
  fleet.add_model(borrowed(engine, batcher(1, 0, /*max_depth=*/2)));
  fleet.start();

  auto r1 = make_request(1, Tensor::ones(Shape{1}));
  ASSERT_TRUE(fleet.submit(0, r1));
  engine.started().wait();  // the single worker now holds r1, queue empty

  ASSERT_TRUE(fleet.submit(0, make_request(2, Tensor::ones(Shape{1}))));
  ASSERT_TRUE(fleet.submit(0, make_request(3, Tensor::ones(Shape{1}))));
  EXPECT_FALSE(fleet.submit(0, make_request(4, Tensor::ones(Shape{1}))));

  engine.open();
  fleet.stop();
  const metrics::ServeReport rep = stats.report().models[0];
  EXPECT_EQ(rep.submitted, 3u);
  EXPECT_EQ(rep.rejected, 1u);
  EXPECT_EQ(rep.completed, 3u);  // drain: queued work finished on stop()
}

TEST(Fleet, AddModelRejectsZeroMaxBatch) {
  // A zero max_batch would hand the worker an empty batch, which it reads
  // as shutdown: it would exit and leave accepted requests unserved.
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("zero-batch", 0, &log, nullptr);
  mc.batcher.max_batch = 0;
  try {
    fleet.add_model(std::move(mc));
    FAIL() << "max_batch = 0 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("zero-batch"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fleet.models(), 0);
}

TEST(Fleet, AddModelRejectsZeroMaxDepth) {
  // A zero max_depth would reject every submit.
  ServeLog log;
  Fleet fleet(workers(1));
  FleetModelConfig mc = tagging_model("zero-depth", 0, &log, nullptr);
  mc.batcher.max_depth = 0;
  try {
    fleet.add_model(std::move(mc));
    FAIL() << "max_depth = 0 accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("zero-depth"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(fleet.models(), 0);
}

TEST(Fleet, ModelIndexOutOfRangeThrows) {
  ServeLog log;
  Fleet fleet(workers(1));
  fleet.add_model(tagging_model("a", 0, &log, nullptr));
  fleet.add_model(tagging_model("b", 1, &log, nullptr));
  for (int bad : {-1, 2, 1000}) {
    EXPECT_THROW(fleet.submit(bad, req(0)), std::out_of_range) << bad;
    EXPECT_THROW(fleet.materialize(bad), std::out_of_range) << bad;
    EXPECT_THROW(fleet.materialized(bad), std::out_of_range) << bad;
    EXPECT_THROW(fleet.queue_depth(bad), std::out_of_range) << bad;
    EXPECT_THROW(fleet.model_name(bad), std::out_of_range) << bad;
  }
  try {
    fleet.queue_depth(-1);
    FAIL() << "queue_depth(-1) did not throw";
  } catch (const std::out_of_range& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("-1"), std::string::npos) << msg;
    EXPECT_NE(msg.find("2"), std::string::npos) << msg;  // models()
  }
  EXPECT_EQ(fleet.model_name(1), "b");
  EXPECT_EQ(fleet.queue_depth(0), 0);
}

TEST(Fleet, EnginesMaterializeLazilyAndOnce) {
  ServeLog log;
  std::atomic<int> built_a{0}, built_b{0};
  Fleet fleet(FleetConfig{});
  const int a = fleet.add_model(tagging_model("a", 0, &log, &built_a));
  const int b = fleet.add_model(tagging_model("b", 1, &log, &built_b));
  EXPECT_FALSE(fleet.materialized(a));
  EXPECT_FALSE(fleet.materialized(b));

  // Traffic only for model b: a's factory must never run.
  RequestPtr r = req(0);
  std::future<void> done = r->done.get_future();
  ASSERT_TRUE(fleet.submit(b, r));
  fleet.start();
  done.wait();
  fleet.stop();
  EXPECT_FALSE(fleet.materialized(a));
  EXPECT_TRUE(fleet.materialized(b));
  EXPECT_EQ(built_a.load(), 0);
  EXPECT_EQ(built_b.load(), 1);

  // Explicit materialize is idempotent.
  fleet.materialize(a);
  fleet.materialize(a);
  EXPECT_TRUE(fleet.materialized(a));
  EXPECT_EQ(built_a.load(), 1);
}

TEST(Fleet, AdmissionBoundsArePerModelQueue) {
  ServeLog log;
  metrics::FleetStats stats;
  stats.add_model("a");
  stats.add_model("b");
  Fleet fleet(FleetConfig{}, &stats);
  FleetModelConfig small = tagging_model("a", 0, &log, nullptr);
  small.batcher.max_depth = 2;
  const int a = fleet.add_model(std::move(small));
  const int b = fleet.add_model(tagging_model("b", 1, &log, nullptr));

  // Fill a's bounded queue before workers run; b is unaffected.
  std::vector<std::future<void>> futs;
  for (uint64_t i = 0; i < 2; ++i) {
    RequestPtr r = req(i);
    futs.push_back(r->done.get_future());
    ASSERT_TRUE(fleet.submit(a, r));
  }
  EXPECT_FALSE(fleet.submit(a, req(2)));  // a's queue full -> shed a only
  RequestPtr rb = req(3);
  futs.push_back(rb->done.get_future());
  EXPECT_TRUE(fleet.submit(b, rb));
  EXPECT_EQ(fleet.queue_depth(a), 2);
  EXPECT_EQ(fleet.queue_depth(b), 1);

  fleet.start();
  for (auto& f : futs) f.wait();
  fleet.stop();
  metrics::FleetReport rep = stats.report();
  EXPECT_EQ(rep.models[static_cast<size_t>(a)].rejected, 1);
  EXPECT_EQ(rep.models[static_cast<size_t>(a)].completed, 2);
  EXPECT_EQ(rep.models[static_cast<size_t>(b)].rejected, 0);
  EXPECT_EQ(rep.models[static_cast<size_t>(b)].completed, 1);
  EXPECT_EQ(rep.total.completed, 3);

  // Stopped fleets reject everything.
  EXPECT_FALSE(fleet.submit(b, req(9)));
}

TEST(Fleet, WeightedEdfDrainsHigherWeightClassFirst) {
  ThreadGuard guard;
  runtime::set_threads(1);  // one worker -> a strict serve order exists
  ServeLog log;
  Fleet fleet(FleetConfig{});
  // Same SLO deadline; "hot" preempts at half the slack via weight 2.
  const int hot =
      fleet.add_model(tagging_model("hot", 0, &log, nullptr, 10.0, 2.0));
  const int cold =
      fleet.add_model(tagging_model("cold", 1, &log, nullptr, 10.0, 1.0));

  // Interleave arrivals BEFORE starting workers, so both queues are aged
  // and flushable the moment the worker scans.
  std::vector<std::future<void>> futs;
  for (uint64_t i = 0; i < 8; ++i) {
    RequestPtr r = req(i);
    futs.push_back(r->done.get_future());
    ASSERT_TRUE(fleet.submit(i % 2 == 0 ? cold : hot, r));
  }
  fleet.start();
  for (auto& f : futs) f.wait();
  fleet.stop();

  // Virtual deadlines: hot = t_oldest + 5ms, cold = t_oldest + 10ms, and
  // the submissions are microseconds apart -- every hot batch outranks
  // every cold batch until hot is drained.
  ASSERT_EQ(log.order.size(), 8u);
  for (size_t i = 0; i < 4; ++i) EXPECT_EQ(log.order[i].first, 0) << i;
  for (size_t i = 4; i < 8; ++i) EXPECT_EQ(log.order[i].first, 1) << i;
}

TEST(Fleet, TraceTimelineIsDeterministic) {
  // The arrival timeline is pre-generated from (seed, phase, model), so two
  // identical runs offer the identical request sequence -- same per-model
  // totals regardless of replay jitter or thread count.
  TraceConfig trace;
  trace.phases = {{0.05, {400, 200}}, {0.05, {100, 800}}};
  std::vector<int64_t> counts[2];
  for (int run = 0; run < 2; ++run) {
    ServeLog log;
    Fleet fleet(FleetConfig{});
    fleet.add_model(tagging_model("a", 0, &log, nullptr));
    fleet.add_model(tagging_model("b", 1, &log, nullptr));
    fleet.start();
    std::vector<RequestFactory> make = {[](uint64_t id) { return req(id); },
                                        [](uint64_t id) { return req(id); }};
    counts[run] = run_trace_open_loop(fleet, make, trace);
    fleet.stop();
    ASSERT_EQ(counts[run].size(), 2u);
    EXPECT_GT(counts[run][0], 0);
    EXPECT_GT(counts[run][1], 0);
  }
  EXPECT_EQ(counts[0], counts[1]);
}

TEST(Fleet, ServeOutputsBitwiseIdenticalAcrossThreadCounts) {
  ThreadGuard guard;
  // Two real engines -- one fp32, one int8-committed -- served at
  // PF_THREADS=1 and PF_THREADS=4: every request's logits must be bitwise
  // identical (batch-composition-invariant forwards + per-model queues).
  constexpr int kReqs = 12;
  Rng xr(7);
  std::vector<Tensor> inputs;
  for (int i = 0; i < kReqs; ++i) inputs.push_back(xr.randn(Shape{3, 8, 8}));

  auto serve_all = [&](int threads) {
    runtime::set_threads(threads);
    Fleet fleet(workers(threads));
    for (int mdl = 0; mdl < 2; ++mdl) {
      FleetModelConfig mc;
      mc.name = mdl == 0 ? "fp32" : "int8";
      mc.factory = [mdl]() -> std::unique_ptr<Engine> {
        auto m = tiny_resnet(100, /*first_lowrank=*/2);
        if (mdl == 1) {
          m->train(false);
          quant::quantize_module(*m, quant::QuantSpec{});
          quant::commit(*m);
        }
        auto f = std::make_unique<FrozenModel>(std::move(m), "m");
        f->prime(Shape{3, 8, 8}, 4);
        return f;
      };
      mc.batcher.max_batch = 4;
      mc.batcher.deadline_ms = 0.5;
      fleet.add_model(std::move(mc));
    }
    fleet.start();
    std::vector<RequestPtr> reqs;
    std::vector<std::future<void>> futs;
    for (int i = 0; i < kReqs; ++i) {
      RequestPtr r = make_request(static_cast<uint64_t>(i),
                                  inputs[static_cast<size_t>(i)]);
      futs.push_back(r->done.get_future());
      EXPECT_TRUE(fleet.submit(i % 2, r));
      reqs.push_back(std::move(r));
    }
    for (auto& f : futs) f.wait();
    fleet.stop();
    std::vector<Tensor> outs;
    for (const RequestPtr& r : reqs) outs.push_back(r->output);
    return outs;
  };

  const std::vector<Tensor> out1 = serve_all(1);
  const std::vector<Tensor> out4 = serve_all(4);
  ASSERT_EQ(out1.size(), out4.size());
  for (size_t i = 0; i < out1.size(); ++i)
    EXPECT_TRUE(bitwise_equal(out1[i], out4[i])) << "request " << i;
}

TEST(Fleet, StatsBreakdownsPerModelAndAggregate) {
  metrics::FleetStats stats;
  EXPECT_EQ(stats.add_model("alpha"), 0);
  EXPECT_EQ(stats.add_model("beta"), 1);
  stats.begin();
  stats.record_submit(0);
  stats.record_submit(0);
  stats.record_submit(1);
  stats.record_reject(1);
  stats.record_batch(0, 2, 0);
  stats.record_batch(1, 1, 0);
  stats.record_done(0, 1.0);
  stats.record_done(0, 3.0);
  stats.record_done(1, 10.0);
  metrics::FleetReport rep = stats.report();
  ASSERT_EQ(rep.models.size(), 2u);
  EXPECT_EQ(rep.names[0], "alpha");
  EXPECT_EQ(rep.models[0].submitted, 2);
  EXPECT_EQ(rep.models[0].completed, 2);
  EXPECT_EQ(rep.models[1].rejected, 1);
  EXPECT_EQ(rep.total.submitted, 3);
  EXPECT_EQ(rep.total.completed, 3);
  EXPECT_EQ(rep.total.rejected, 1);
  // Aggregate percentiles come from one reservoir over all models.
  EXPECT_GE(rep.total.p99_ms, rep.models[0].p99_ms);
  EXPECT_EQ(rep.summary().empty(), false);
}

// ---------------- One-model serving end to end ----------------

TEST(Server, ConcurrentClientsGetBitwiseDeterministicResults) {
  // Per-request results must not depend on which batch a request landed in,
  // which worker served it, or what else was in flight. Serve a frozen
  // ResNet to 4 hammering clients, then check every response against the
  // solo single-request forward.
  FrozenModel frozen(tiny_resnet(6), "det-test");
  frozen.prime(Shape{3, 8, 8}, 4);

  metrics::FleetStats stats;
  stats.add_model("det-test");
  stats.begin();
  Fleet fleet(workers(2), &stats);
  fleet.add_model(borrowed(frozen, batcher(4, 1.0)));
  fleet.start();

  constexpr int kClients = 4, kPerClient = 8;
  // Deterministic per-request inputs, generated up front.
  std::vector<Tensor> inputs;
  for (int i = 0; i < kClients * kPerClient; ++i) {
    Rng rng(1000 + static_cast<uint64_t>(i));
    inputs.push_back(rng.randn(Shape{3, 8, 8}));
  }
  std::vector<Tensor> outputs(inputs.size());
  std::vector<std::thread> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < kPerClient; ++k) {
        const size_t i = static_cast<size_t>(c * kPerClient + k);
        RequestPtr r = make_request(i, inputs[i]);
        std::future<void> done = r->done.get_future();
        ASSERT_TRUE(fleet.submit(0, r));
        done.wait();
        outputs[i] = r->output;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  fleet.stop();

  for (size_t i = 0; i < inputs.size(); ++i) {
    Tensor solo = frozen.forward(inputs[i].reshape(Shape{1, 3, 8, 8}))
                      .reshape(Shape{outputs[i].numel()});
    EXPECT_TRUE(bitwise_equal(solo, outputs[i])) << "request " << i;
  }
  const metrics::ServeReport rep = stats.report().models[0];
  EXPECT_EQ(rep.completed, static_cast<uint64_t>(inputs.size()));
  EXPECT_EQ(rep.rejected, 0u);
  EXPECT_GE(rep.mean_batch, 1.0);
}

TEST(Server, ResultsAndBatchHistogramIdenticalAcrossThreadCounts) {
  // PF_THREADS determinism sweep for the serving path: with one worker and
  // the whole workload queued before start(), batch assembly is a pure
  // function of the request order -- so the batch histogram AND every
  // response must come out identical whether the kernel pool has 1 or 4
  // threads (worker-loop GEMMs take the inline-serial path either way).
  ThreadGuard tg;
  constexpr int kRequests = 14;  // 3 full batches of 4 + one partial of 2
  std::vector<Tensor> inputs;
  for (int i = 0; i < kRequests; ++i) {
    Rng rng(2000 + static_cast<uint64_t>(i));
    inputs.push_back(rng.randn(Shape{3, 8, 8}));
  }
  auto run = [&](int threads) {
    runtime::set_threads(threads);
    FrozenModel frozen(tiny_resnet(21, 2), "sweep-test");
    frozen.prime(Shape{3, 8, 8}, 4);
    metrics::FleetStats stats;
    stats.add_model("sweep-test");
    stats.begin();
    Fleet fleet(workers(1), &stats);
    // Greedy: take whatever is queued.
    fleet.add_model(borrowed(frozen, batcher(4, 0, /*max_depth=*/kRequests)));
    // Queue the complete workload before the worker exists.
    std::vector<RequestPtr> reqs;
    std::vector<std::future<void>> done;
    for (int i = 0; i < kRequests; ++i) {
      reqs.push_back(make_request(static_cast<uint64_t>(i),
                                  inputs[static_cast<size_t>(i)]));
      done.push_back(reqs.back()->done.get_future());
      EXPECT_TRUE(fleet.submit(0, reqs.back()));
    }
    fleet.start();
    wait_all(done);
    fleet.stop();
    std::vector<Tensor> outputs;
    for (const RequestPtr& r : reqs) outputs.push_back(r->output);
    return std::make_pair(outputs, stats.report().models[0].batch_hist);
  };
  const auto [out1, hist1] = run(1);
  const auto [out4, hist4] = run(4);

  EXPECT_EQ(hist1, hist4);
  ASSERT_EQ(hist1.size(), 5u);  // max recorded batch size 4
  EXPECT_EQ(hist1[4], 3u);
  EXPECT_EQ(hist1[2], 1u);
  ASSERT_EQ(out1.size(), out4.size());
  for (size_t i = 0; i < out1.size(); ++i)
    EXPECT_TRUE(bitwise_equal(out1[i], out4[i])) << "request " << i;
}

TEST(Server, ClosedLoopLoadGenCompletesAll) {
  FrozenLstm frozen(tiny_lstm(8), 5, "lstm-serve");
  frozen.prime(4);
  metrics::FleetStats stats;
  stats.add_model("lstm-serve");
  stats.begin();
  Fleet fleet(workers(2), &stats);
  fleet.add_model(borrowed(frozen, batcher(4, 0.5)));
  fleet.start();

  ClosedLoopConfig lg;
  lg.clients = 3;
  lg.requests_per_client = 6;
  const int64_t done = run_closed_loop(
      fleet, 0,
      [](uint64_t id) {
        Rng rng(id);
        std::vector<int64_t> toks(5);
        for (auto& t : toks) t = rng.uniform_int(50);
        return make_request(id, std::move(toks));
      },
      lg);
  fleet.stop();
  EXPECT_EQ(done, 18);
  const metrics::ServeReport rep = stats.report().models[0];
  EXPECT_EQ(rep.completed, 18u);
  EXPECT_GT(rep.throughput_rps, 0.0);
  EXPECT_GT(rep.p99_ms, 0.0);
  EXPECT_GE(rep.p99_ms, rep.p50_ms);
  // Histogram accounts for every completed request.
  uint64_t hist_total = 0;
  for (size_t s = 0; s < rep.batch_hist.size(); ++s)
    hist_total += rep.batch_hist[s] * static_cast<uint64_t>(s);
  EXPECT_EQ(hist_total, rep.completed);
}

TEST(Server, OpenLoopLoadGenRespectsAdmission) {
  FrozenModel frozen(tiny_resnet(9), "open-loop");
  frozen.prime(Shape{3, 8, 8}, 8);
  metrics::FleetStats stats;
  stats.add_model("open-loop");
  stats.begin();
  Fleet fleet(workers(1), &stats);
  fleet.add_model(borrowed(frozen, batcher(8, 1.0, /*max_depth=*/64)));
  fleet.start();

  OpenLoopConfig lg;
  lg.rate_rps = 2000;  // deliberately above service rate at this size
  lg.total_requests = 64;
  const int64_t done = run_open_loop(
      fleet, 0,
      [](uint64_t id) {
        Rng rng(id + 31);
        return make_request(id, rng.randn(Shape{3, 8, 8}));
      },
      lg);
  fleet.stop();
  const metrics::ServeReport rep = stats.report().models[0];
  EXPECT_EQ(static_cast<uint64_t>(done), rep.completed);
  EXPECT_EQ(rep.submitted + rep.rejected, 64u);
  EXPECT_GT(rep.mean_batch, 1.0);  // the backlog actually batched
}

}  // namespace
}  // namespace pf::serve
