// Overhead benchmark for pf::trace (src/trace).
//
// Measures (1) the raw cost of one PF_TRACE_SCOPE with the tracer disabled
// (the price every instrumented hot path pays on normal runs) and enabled,
// (2) how many spans a real training step records, (3) the implied
// disabled-tracer share of a step -- the "off-path is free" claim, gated at
// <= 1% and recorded in EXPERIMENTS.md -- plus a direct traced-vs-untraced
// wall-clock A/B of the same run. It then exports the two timeline
// artifacts the issue asks for: pf_trace_train.json (full Algorithm 1 run
// with warm-up -> SVD -> fine-tune plus one shm data-parallel epoch, so
// pool dispatch, kernels, reduce, and SVD spans share one timeline) and
// pf_trace_serve.json (batched serving via FleetConfig::trace_path), and
// prints the ASCII flame summary for the training timeline.
#include "common.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <future>
#include <vector>

#include "runtime/shm_cluster.h"
#include "runtime/thread_pool.h"
#include "serve/frozen.h"
#include "serve/fleet.h"
#include "trace/trace.h"

using namespace bench;

namespace {

// Cost of one Scope under the current tracer state. When disabled the body
// is one relaxed atomic load + branch; the load is observable behavior, so
// the loop cannot be folded away.
double scope_ns(int64_t reps) {
  metrics::Timer t;
  for (int64_t i = 0; i < reps; ++i) {
    PF_TRACE_SCOPE("bench.scope");
  }
  return t.seconds() * 1e9 / static_cast<double>(reps);
}

}  // namespace

int main() {
  banner("bench_trace: span-tracing overhead + timeline artifacts",
         "tooling (no paper table)",
         "chrome://tracing JSON over the scaled CPU substrate");

  runtime::set_threads(2);
  trace::set_enabled(false);

  // ---- 1. Raw Scope cost. ----
  const double off_ns = scope_ns(5'000'000);
  trace::set_enabled(true);
  trace::reset();
  const double on_ns = scope_ns(1'000'000);
  trace::reset();
  trace::set_enabled(false);
  std::printf("\nPF_TRACE_SCOPE cost: disabled %.2f ns/scope, enabled %.1f "
              "ns/scope\n", off_ns, on_ns);

  // ---- 2. Same training run, tracer hard-off vs recording. ----
  auto ds = cifar_like(/*classes=*/10, /*hw=*/16, /*train=*/64, /*test=*/32);
  core::VisionTrainConfig cfg = resnet_recipe(/*epochs=*/2, /*warmup=*/1);
  cfg.batch = 16;
  cfg.threads = 2;
  const auto vanilla = make_resnet18(0.125, 0);
  const auto hybrid = make_resnet18(0.125, 2);
  const double steps =
      cfg.epochs * std::ceil(static_cast<double>(64) / cfg.batch);

  metrics::Timer t_off;
  core::train_vision(vanilla, hybrid, ds, cfg);
  const double secs_off = t_off.seconds();

  trace::set_enabled(true);
  trace::reset();
  metrics::Timer t_on;
  core::train_vision(vanilla, hybrid, ds, cfg);
  const double secs_on = t_on.seconds();
  std::vector<trace::Event> events = trace::drain();
  const double spans_per_step = static_cast<double>(events.size()) / steps;

  // One shm data-parallel epoch in the same timeline so shm.compute /
  // shm.reduce spans appear next to the trainer's.
  runtime::ShmClusterConfig scfg;
  scfg.workers = 2;
  scfg.train.epochs = 1;
  scfg.train.global_batch = 16;
  scfg.train.seed = 5;
  runtime::ShmDataParallelTrainer shm(make_resnet18(0.125, 0), nullptr, scfg);
  shm.train_epoch(ds, 0);
  const std::vector<trace::Event> shm_events = trace::drain();
  events.insert(events.end(), shm_events.begin(), shm_events.end());
  trace::set_enabled(false);

  {
    std::ofstream os("pf_trace_train.json", std::ios::binary);
    os << trace::to_chrome_json(events);
  }
  std::printf("[trace] training timeline: %zu spans, %llu dropped, exported "
              "pf_trace_train.json\n", events.size(),
              static_cast<unsigned long long>(trace::dropped()));

  // ---- 3. Disabled-overhead gate. ----
  const double step_ns_off = secs_off / steps * 1e9;
  const double est_pct = 100.0 * off_ns * spans_per_step / step_ns_off;
  const double ab_pct = 100.0 * (secs_on - secs_off) / secs_off;
  std::printf("\ntraining: %.0f spans/step, untraced step %.2f ms\n",
              spans_per_step, step_ns_off / 1e6);
  std::printf("disabled-tracer overhead: %.2f ns/scope x %.0f spans/step = "
              "%.4f%% of step time -- %s (gate: <= 1%%)\n", off_ns,
              spans_per_step, est_pct, est_pct <= 1.0 ? "PASS" : "FAIL");
  std::printf("recording-tracer A/B on the same run: %.3fs -> %.3fs "
              "(%+.1f%%)\n", secs_off, secs_on, ab_pct);

  // ---- 4. Serving timeline via FleetConfig::trace_path. ----
  Rng rng(7);
  serve::FrozenModel frozen(make_resnet18(0.125, 2)(rng), "bench-trace");
  frozen.prime(Shape{3, 16, 16}, 8);
  serve::FleetConfig sv;
  sv.workers = 2;
  sv.trace_path = "pf_trace_serve.json";
  serve::Fleet fleet(sv);
  serve::FleetModelConfig mc;
  mc.name = frozen.name();
  mc.factory = [&frozen] {
    return std::shared_ptr<serve::Engine>(std::shared_ptr<void>{}, &frozen);
  };
  mc.batcher.max_batch = 8;
  fleet.add_model(std::move(mc));
  fleet.start();
  std::vector<serve::RequestPtr> reqs;
  std::vector<std::future<void>> done;
  for (int i = 0; i < 32; ++i) {
    Rng in(100 + static_cast<uint64_t>(i));
    reqs.push_back(serve::make_request(static_cast<uint64_t>(i),
                                       in.randn(Shape{3, 16, 16})));
    done.push_back(reqs.back()->done.get_future());
    fleet.submit(0, reqs.back());
  }
  for (std::future<void>& f : done) f.wait();
  fleet.stop();
  std::printf("[trace] serve timeline: 32 requests, exported "
              "pf_trace_serve.json (serve.queue / serve.flush / "
              "serve.forward / serve.reply per batch)\n");

  std::printf("\nTraining flame summary (self time):\n%s\n",
              trace::flame_summary(events).c_str());
  std::printf(
      "Load either JSON in chrome://tracing or https://ui.perfetto.dev.\n");
  return est_pct <= 1.0 ? 0 : 1;
}
