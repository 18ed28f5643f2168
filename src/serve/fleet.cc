#include "serve/fleet.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/thread_pool.h"
#include "tensor/rng.h"
#include "trace/trace.h"

namespace pf::serve {

using clock = std::chrono::steady_clock;

Fleet::Fleet(const FleetConfig& cfg, metrics::FleetStats* stats)
    : cfg_(cfg), stats_(stats) {}

Fleet::~Fleet() { stop(); }

int Fleet::add_model(FleetModelConfig m) {
  if (started_.load()) throw std::runtime_error("Fleet: add_model after start");
  if (!m.factory) throw std::runtime_error("Fleet: model needs a factory");
  // max_batch < 1 would hand a worker an empty batch (its exit signal);
  // max_depth < 1 would reject every submit.
  if (m.batcher.max_batch < 1 || m.batcher.max_depth < 1)
    throw std::runtime_error("Fleet: model '" + m.name +
                             "' needs batcher.max_batch >= 1 and "
                             "batcher.max_depth >= 1");
  auto state = std::make_unique<Model>();
  state->cfg = std::move(m);
  fleet_.push_back(std::move(state));
  return static_cast<int>(fleet_.size()) - 1;
}

void Fleet::start() {
  if (started_.exchange(true)) return;
  if (!cfg_.trace_path.empty()) {
    trace_prev_ = trace::enabled();
    trace::set_enabled(true);
    trace::drain();  // start the export from a clean timeline
  }
  const int n = std::max(1, std::min(cfg_.workers, runtime::threads()));
  workers_running_ = n;
  dispatcher_ = std::thread([this, n] {
    runtime::parallel_for(0, n, 1, [this](int64_t b, int64_t e) {
      for (int64_t i = b; i < e; ++i) worker_loop();
    });
  });
}

void Fleet::stop() {
  {
    std::lock_guard<std::mutex> lk(m_);
    shutdown_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  if (!cfg_.trace_path.empty() && started_.load()) {
    trace::write_chrome_json(cfg_.trace_path);
    trace::set_enabled(trace_prev_);
    cfg_.trace_path.clear();  // stop() is idempotent; export once
  }
}

Fleet::Model& Fleet::at(int model) const {
  if (model < 0 || model >= models())
    throw std::out_of_range("Fleet: model index " + std::to_string(model) +
                            " outside [0, " + std::to_string(models()) + ")");
  return *fleet_[static_cast<size_t>(model)];
}

bool Fleet::submit(int model, const RequestPtr& r) {
  Model& s = at(model);
  {
    std::lock_guard<std::mutex> lk(m_);
    if (shutdown_ ||
        static_cast<int64_t>(s.q.size()) >= s.cfg.batcher.max_depth) {
      if (stats_) stats_->record_reject(model);
      return false;
    }
    r->t_submit = clock::now();
    s.q.push_back(r);
  }
  cv_.notify_one();
  if (stats_) stats_->record_submit(model);
  return true;
}

Engine& Fleet::materialize(int model) {
  Model& s = at(model);
  std::call_once(s.once, [&s] {
    s.engine = s.cfg.factory();
    if (!s.engine) throw std::runtime_error("Fleet: factory returned null");
    s.ready.store(true, std::memory_order_release);
  });
  return *s.engine;
}

bool Fleet::materialized(int model) const {
  return at(model).ready.load(std::memory_order_acquire);
}

int64_t Fleet::queue_depth(int model) const {
  const Model& s = at(model);
  std::lock_guard<std::mutex> lk(m_);
  return static_cast<int64_t>(s.q.size());
}

const std::string& Fleet::model_name(int model) const {
  return at(model).cfg.name;
}

std::vector<RequestPtr> Fleet::next_batch(int* model_out) {
  std::unique_lock<std::mutex> lk(m_);
  // Flush span: from first seeing queued work to handing the batch out.
  // This is the batching delay (waiting for peers / the deadline), as
  // opposed to idle time parked on empty queues, which records no span.
  std::uint64_t t_flush = 0;
  for (;;) {
    const auto now = clock::now();
    // Scan the queues once: find the flushable queue with the smallest
    // virtual deadline, and the earliest wall-clock time a non-flushable
    // queue will become flushable (its oldest request's batch deadline).
    int best = -1;
    double best_vdl = 0;
    bool have_wait = false;
    clock::time_point earliest{};
    for (size_t i = 0; i < fleet_.size(); ++i) {
      const Model& s = *fleet_[i];
      if (s.q.empty()) continue;
      const auto& oldest = s.q.front()->t_submit;
      const bool full =
          static_cast<int64_t>(s.q.size()) >= s.cfg.batcher.max_batch;
      const auto flush_at =
          oldest + std::chrono::duration_cast<clock::duration>(
                       std::chrono::duration<double, std::milli>(
                           s.cfg.batcher.deadline_ms));
      // shutdown_ drains greedily: every non-empty queue is flushable.
      if (full || now >= flush_at || shutdown_) {
        const double vdl =
            std::chrono::duration<double, std::milli>(oldest - now).count() +
            s.cfg.slo.deadline_ms / std::max(1e-9, s.cfg.slo.weight);
        if (best < 0 || vdl < best_vdl) {  // tie: lowest index wins (scan order)
          best = static_cast<int>(i);
          best_vdl = vdl;
        }
      } else if (!have_wait || flush_at < earliest) {
        have_wait = true;
        earliest = flush_at;
      }
    }
    if (trace::enabled() && t_flush == 0 && (best >= 0 || have_wait))
      t_flush = trace::to_trace_ns(now);
    if (best >= 0) {
      Model& s = *fleet_[static_cast<size_t>(best)];
      const int64_t take = std::min<int64_t>(
          s.cfg.batcher.max_batch, static_cast<int64_t>(s.q.size()));
      std::vector<RequestPtr> batch;
      batch.reserve(static_cast<size_t>(take));
      for (int64_t k = 0; k < take; ++k) {
        batch.push_back(std::move(s.q.front()));
        s.q.pop_front();
      }
      *model_out = best;
      if (t_flush != 0)
        trace::emit("serve.flush", t_flush, trace::now_ns(), take);
      return batch;
    }
    if (shutdown_) return {};  // all queues drained
    if (have_wait)
      cv_.wait_until(lk, earliest);
    else
      cv_.wait(lk);
  }
}

void Fleet::worker_loop() {
  const bool dropping = cfg_.fault.drop_probability() > 0;
  std::vector<RequestPtr> live;
  for (;;) {
    int model = -1;
    std::vector<RequestPtr> batch = next_batch(&model);
    if (batch.empty()) return;  // shutdown, queues drained
    if (trace::enabled()) {
      // Per-request queueing delay: submit -> this worker picking the batch
      // up. Together with serve.forward below this separates time-in-queue
      // from batch compute for every request in the timeline.
      const std::uint64_t t_dequeue = trace::now_ns();
      for (const RequestPtr& r : batch)
        trace::emit("serve.queue", trace::to_trace_ns(r->t_submit), t_dequeue,
                    static_cast<std::int64_t>(r->id));
    }
    // Injected drops: the deterministic coin for (id, attempt) decides
    // which requests this batch "loses". Survivors are still served as one
    // batch; dropped requests are marked failed and their promises
    // fulfilled, so a waiting client observes the failure immediately.
    const std::vector<RequestPtr>* served = &batch;
    if (dropping) {
      live.clear();
      for (const RequestPtr& r : batch) {
        if (cfg_.fault.should_drop(r->id, r->attempt)) {
          r->failed = true;
          fault::record_drop();
        } else {
          live.push_back(r);
        }
      }
      served = &live;
    }
    const auto n = static_cast<std::int64_t>(served->size());
    if (n > 0) {
      Engine& engine = materialize(model);
      PF_TRACE_SCOPE_C("serve.forward", n);
      engine.forward_batch(*served);
    }
    const auto now = clock::now();
    if (stats_ && n > 0) stats_->record_batch(model, n, queue_depth(model));
    PF_TRACE_SCOPE_C("serve.reply", static_cast<std::int64_t>(batch.size()));
    for (const RequestPtr& r : batch) {
      if (stats_ && !r->failed)
        stats_->record_done(
            model, std::chrono::duration<double, std::milli>(now - r->t_submit)
                       .count());
      r->done.set_value();
    }
  }
}

// ---------------- Load generators ----------------

RequestPtr submit_with_retry(Fleet& fleet, int model,
                             const RequestFactory& make, uint64_t id,
                             int max_attempts) {
  const int attempts = std::max(1, max_attempts);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    if (attempt > 0) {
      fault::record_retry();
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          fault::backoff_ms(attempt)));
    }
    RequestPtr r = make(id);
    r->attempt = attempt;
    std::future<void> done = r->done.get_future();
    if (!fleet.submit(model, r)) continue;  // admission reject; back off
    done.wait();
    if (r->failed) continue;  // injected drop; back off, retry
    if (attempt > 0) fault::record_recovery();
    return r;
  }
  return nullptr;
}

int64_t run_closed_loop(Fleet& fleet, int model, const RequestFactory& make,
                        const ClosedLoopConfig& cfg) {
  std::atomic<int64_t> completed{0};
  std::vector<std::thread> clients;
  clients.reserve(static_cast<size_t>(cfg.clients));
  for (int c = 0; c < cfg.clients; ++c) {
    clients.emplace_back([&, c] {
      for (int k = 0; k < cfg.requests_per_client; ++k) {
        const uint64_t id = static_cast<uint64_t>(c) *
                                static_cast<uint64_t>(
                                    cfg.requests_per_client) +
                            static_cast<uint64_t>(k);
        if (cfg.max_attempts > 1) {
          if (submit_with_retry(fleet, model, make, id, cfg.max_attempts))
            completed.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        RequestPtr r = make(id);
        std::future<void> done = r->done.get_future();
        if (!fleet.submit(model, r)) continue;  // shed; keep offering load
        done.wait();
        if (!r->failed)
          completed.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return completed.load();
}

int64_t run_open_loop(Fleet& fleet, int model, const RequestFactory& make,
                      const OpenLoopConfig& cfg) {
  const auto interval = std::chrono::duration_cast<clock::duration>(
      std::chrono::duration<double>(1.0 / std::max(1e-9, cfg.rate_rps)));
  std::vector<std::pair<RequestPtr, std::future<void>>> inflight;
  inflight.reserve(static_cast<size_t>(cfg.total_requests));
  auto next = clock::now();
  for (int i = 0; i < cfg.total_requests; ++i) {
    std::this_thread::sleep_until(next);
    next += interval;
    RequestPtr r = make(static_cast<uint64_t>(i));
    std::future<void> done = r->done.get_future();
    if (fleet.submit(model, r)) inflight.emplace_back(r, std::move(done));
  }
  int64_t completed = 0;
  for (auto& [r, f] : inflight) {
    f.wait();
    if (!r->failed) ++completed;  // injected drops don't count as served
  }
  return completed;
}

// ---------------- Trace-driven open-loop load generator ----------------

std::vector<int64_t> run_trace_open_loop(
    Fleet& fleet, const std::vector<RequestFactory>& make,
    const TraceConfig& cfg) {
  const size_t n_models = static_cast<size_t>(fleet.models());
  if (make.size() != n_models)
    throw std::runtime_error("run_trace_open_loop: one factory per model");

  // Pre-generate the merged arrival timeline so replay jitter cannot change
  // WHICH requests arrive (only, slightly, when): per model per phase, draw
  // Poisson gaps from a stream seeded by (seed, model, phase), then sort by
  // (time, model, sequence) -- fully deterministic.
  struct Event {
    double t_s;
    int model;
    uint64_t seq;
  };
  std::vector<Event> events;
  double phase_start = 0;
  for (size_t p = 0; p < cfg.phases.size(); ++p) {
    const TracePhase& ph = cfg.phases[p];
    if (ph.rate_rps.size() != n_models)
      throw std::runtime_error("run_trace_open_loop: phase rate per model");
    for (size_t mdl = 0; mdl < n_models; ++mdl) {
      const double rate = ph.rate_rps[mdl];
      if (rate <= 0) continue;
      Rng rng(cfg.seed ^ (0x9E3779B97F4A7C15ull * (p * n_models + mdl + 1)));
      double t = phase_start;
      for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate;
        if (t >= phase_start + ph.duration_s) break;
        events.push_back({t, static_cast<int>(mdl), 0});
      }
    }
    phase_start += ph.duration_s;
  }
  std::stable_sort(events.begin(), events.end(),
                   [](const Event& a, const Event& b) {
                     return a.t_s != b.t_s ? a.t_s < b.t_s
                                           : a.model < b.model;
                   });
  std::vector<uint64_t> next_id(n_models, 0);
  for (Event& e : events) e.seq = next_id[static_cast<size_t>(e.model)]++;

  // Replay.
  std::vector<std::pair<RequestPtr, std::future<void>>> inflight;
  std::vector<int> inflight_model;
  inflight.reserve(events.size());
  inflight_model.reserve(events.size());
  const auto t0 = clock::now();
  for (const Event& e : events) {
    std::this_thread::sleep_until(
        t0 + std::chrono::duration_cast<clock::duration>(
                 std::chrono::duration<double>(e.t_s)));
    RequestPtr r = make[static_cast<size_t>(e.model)](e.seq);
    std::future<void> done = r->done.get_future();
    if (fleet.submit(e.model, r)) {
      inflight.emplace_back(r, std::move(done));
      inflight_model.push_back(e.model);
    }
  }
  std::vector<int64_t> completed(n_models, 0);
  for (size_t i = 0; i < inflight.size(); ++i) {
    inflight[i].second.wait();
    if (!inflight[i].first->failed)
      ++completed[static_cast<size_t>(inflight_model[i])];
  }
  return completed;
}

}  // namespace pf::serve
