// Fleet serving: the one request scheduler in src/serve. N engines x M
// workers on one runtime pool; a single-model deployment is a one-model
// fleet.
//
// A fleet hosts many serving artifacts -- fp32, quantized, delta-variant --
// behind one worker pool. Each model gets its own bounded request queue
// (per-model admission control, so one tenant's burst sheds that tenant's
// load instead of everyone's) and an SLO class {deadline_ms, weight}.
//
// Scheduling is weighted earliest-deadline-first over FLUSHABLE queues:
//  * a queue becomes flushable under the usual dynamic-batching rules
//    (max_batch queued, or its oldest request has waited the batcher
//    deadline; deadline_ms = 0 is greedy "take whatever is there");
//  * among flushable queues a worker picks the smallest *virtual* deadline
//      t_oldest + slo.deadline_ms / slo.weight
//    so a 2x-weight model tolerates half the slack before it preempts --
//    weighted admission across queues without starving anyone (every queue's
//    virtual deadline eventually becomes the minimum as it ages);
//  * ties break on the lowest model index, which (with the deterministic
//    arrival timeline below) keeps scheduling decisions reproducible.
//
// Engines materialize LAZILY: a model registers a factory, not an engine,
// and the factory runs at most once, at first dispatch (or an explicit
// materialize() call). N delta variants of one base therefore cost one base
// artifact plus N small deltas on disk, and only the variants that actually
// receive traffic ever occupy serving memory. A caller that owns its engine
// lends it through a non-owning pointer from its factory:
//   std::shared_ptr<Engine>(std::shared_ptr<void>{}, &engine)
//
// Worker model: start() launches one dispatcher std::thread whose only job
// is to issue a single runtime::parallel_for over the worker ids. Each chunk
// IS a worker loop, so the serving workers are literally the thread pool's
// threads (chunk i -> pool worker i; the dispatcher doubles as worker 0).
// Consequences, all intentional:
//  * worker count is clamped to runtime::threads() -- a pool thread runs
//    its chunks sequentially, so a second blocking loop queued behind a
//    first would never start;
//  * while the fleet runs, the pool's dispatch slot is occupied, so GEMMs
//    inside worker loops (and any parallel_for from client threads) take
//    the deterministic inline-serial path: parallelism comes from
//    *requests*, not from splitting one request's kernels. Per-request
//    outputs are batch-composition-invariant (row-partitioned GEMMs), so
//    serve outputs are bitwise identical across PF_THREADS per backend;
//  * runtime::set_threads() must not be called while a fleet is running
//    (it blocks on the dispatch slot until stop()).
//
// Lifecycle: submit() is safe from any thread; stop() stops admission,
// drains every queue, and joins. Rejected requests are never fulfilled --
// the submit() return value is the rejection signal.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "fault/fault.h"
#include "metrics/serve_stats.h"
#include "serve/batcher.h"
#include "serve/frozen.h"

namespace pf::serve {

struct SloClass {
  double deadline_ms = 50.0;  // latency objective (virtual-deadline slack)
  double weight = 1.0;        // admission weight; higher preempts sooner
};

// Factories returning std::unique_ptr<Engine> convert implicitly.
using EngineFactory = std::function<std::shared_ptr<Engine>()>;

struct FleetModelConfig {
  std::string name;
  EngineFactory factory;  // runs at most once (lazy materialization)
  BatcherConfig batcher;  // per-model flush rules + admission bound (>= 1)
  SloClass slo;
};

struct FleetConfig {
  int workers = 2;  // desired; clamped to runtime::threads() at start()
  // Deterministic fault schedule. With drop_requests(p) set, workers drop
  // each (id, attempt) pair with probability p instead of serving it; the
  // request's promise is still fulfilled with failed = true, so clients
  // observe the failure rather than hanging (see submit_with_retry).
  fault::Plan fault;
  // When non-empty, span tracing (trace/trace.h) is enabled at start() and
  // the merged timeline -- serve.queue / serve.flush / serve.forward /
  // serve.reply spans separating queueing delay from batch compute per
  // request -- is written here as chrome://tracing JSON at stop().
  std::string trace_path;
};

class Fleet {
 public:
  explicit Fleet(const FleetConfig& cfg,
                 metrics::FleetStats* stats = nullptr);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  // Registers a model; returns its index. Before start() only. Throws when
  // the factory is missing or batcher.max_batch / max_depth is below 1.
  int add_model(FleetModelConfig m);

  void start();
  void stop();  // idempotent: drain all queues, join, export the trace

  // The `model` arguments below throw std::out_of_range outside
  // [0, models()).

  // Enqueue a request for `model`. False = admission reject (that model's
  // queue full, or fleet stopped); rejected promises are never fulfilled.
  bool submit(int model, const RequestPtr& r);

  // Runs the factory now (idempotent, thread-safe). Useful to prime an
  // engine before traffic, and what the tests use to observe laziness.
  Engine& materialize(int model);
  bool materialized(int model) const;

  int models() const { return static_cast<int>(fleet_.size()); }
  // Workers actually running (post-clamp); 0 before start().
  int workers() const { return workers_running_; }
  int64_t queue_depth(int model) const;
  const std::string& model_name(int model) const;

 private:
  struct Model {
    FleetModelConfig cfg;
    std::deque<RequestPtr> q;
    std::once_flag once;
    std::shared_ptr<Engine> engine;
    std::atomic<bool> ready{false};
  };

  Model& at(int model) const;
  void worker_loop();
  // Pops the next batch under the weighted-EDF policy; empty batch = exit.
  std::vector<RequestPtr> next_batch(int* model_out);

  FleetConfig cfg_;
  metrics::FleetStats* stats_;
  std::vector<std::unique_ptr<Model>> fleet_;

  mutable std::mutex m_;
  std::condition_variable cv_;
  bool shutdown_ = false;

  std::thread dispatcher_;
  std::atomic<bool> started_{false};
  int workers_running_ = 0;
  bool trace_prev_ = false;  // tracer state to restore at stop()
};

// ---------------- Load generators ----------------

// Builds the i-th request (deterministic in `id` so runs are reproducible).
using RequestFactory = std::function<RequestPtr(uint64_t id)>;

// Submit to `model` with retry + exponential backoff: survives admission
// rejects and injected drops. Each attempt is a FRESH request from `make`
// (promises are single-use) carrying the same id and attempt = 0, 1, ... so
// the fault plan's drop coin is redrawn per attempt. Sleeps
// fault::backoff_ms between attempts. Returns the completed request, or
// nullptr when all `max_attempts` failed (the caller's load-shedding
// signal).
RequestPtr submit_with_retry(Fleet& fleet, int model,
                             const RequestFactory& make, uint64_t id,
                             int max_attempts = 4);

struct ClosedLoopConfig {
  int clients = 4;              // concurrent clients, each with 0 think time
  int requests_per_client = 32;
  // > 1 routes each request through submit_with_retry, so injected drops
  // and admission rejects are retried instead of shed.
  int max_attempts = 1;
};

// Closed loop: each client submits one request to `model`, waits for the
// response, then immediately submits the next -- throughput is
// offered-load-limited by the service rate (the classic "N outstanding
// requests" benchmark). Returns the number of completed requests.
int64_t run_closed_loop(Fleet& fleet, int model, const RequestFactory& make,
                        const ClosedLoopConfig& cfg);

struct OpenLoopConfig {
  double rate_rps = 200;    // fixed arrival rate, independent of service
  int total_requests = 256;
};

// Open loop: arrivals to `model` at a fixed rate whether or not the fleet
// keeps up, so queueing delay and admission rejects become visible (this
// is the arrival model SLO percentiles are defined against). Waits for all
// accepted requests before returning; returns the number completed.
int64_t run_open_loop(Fleet& fleet, int model, const RequestFactory& make,
                      const OpenLoopConfig& cfg);

// One phase of a multi-tenant traffic trace: per-model Poisson arrival
// rates held for `duration_s`. Chaining phases models diurnal shape
// (ramp / peak / trough) and per-tenant bursts (one model's rate spiking
// while the others idle).
struct TracePhase {
  double duration_s = 0.5;
  std::vector<double> rate_rps;  // one per fleet model; 0 = idle this phase
};

struct TraceConfig {
  std::vector<TracePhase> phases;
  uint64_t seed = 0xF1EE7ull;  // arrival-timeline RNG seed
};

// Pre-generates the merged deterministic arrival timeline (per-model Poisson
// gaps per phase, merged and stably ordered), then replays it open-loop:
// arrivals fire at their scheduled time whether or not the fleet keeps up.
// make[i] builds requests for model i. Waits for every accepted request;
// returns per-model completed counts.
std::vector<int64_t> run_trace_open_loop(
    Fleet& fleet, const std::vector<RequestFactory>& make,
    const TraceConfig& cfg);

}  // namespace pf::serve
