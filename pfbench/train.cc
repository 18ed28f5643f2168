// train-rn18 stage: Algorithm 1 on one process through core::train_vision
// (vanilla warm-up, warm_start SVD, hybrid fine-tune, a snapshot per
// epoch). One unit is one such fixed-work run; runs repeat at the same seed.
#include <cmath>
#include <cstring>
#include <filesystem>

#include "autograd/ops.h"
#include "core/checkpoint.h"
#include "core/factorize.h"
#include "core/trainer.h"
#include "metrics/metrics.h"
#include "optim/optim.h"
#include "runtime/thread_pool.h"
#include "stages.h"
#include "trace/trace.h"

namespace pfbench {

using namespace pf;

namespace {

core::VisionTrainConfig train_config(const World& w) {
  core::VisionTrainConfig cfg;
  cfg.epochs = kWarmupEpochs + kHybridEpochs;
  cfg.warmup_epochs = kWarmupEpochs;
  cfg.batch = kTrainBatch;
  cfg.seed = w.seed;
  cfg.threads = 1;
  cfg.lr_milestones = {1 << 20};
  cfg.checkpoint_dir = w.workdir + "/train_snapshot";
  return cfg;
}

uint64_t bits(double v) {
  uint64_t b;
  std::memcpy(&b, &v, sizeof(b));
  return b;
}

class TrainStage : public Stage {
 public:
  TrainStage(World& w, bool traced) : w_(w), traced_(traced), cfg_(train_config(w)) {}
  // Two runs at least, so the same-seed repeatability check always runs.
  int min_units() const override { return 2; }
  void unit() override {
    runtime::set_threads(1);
    traced_ ? traced_run() : untraced_run();
    ++runs_;
  }
  void report(Report& rep) override { traced_ ? traced_report(rep) : untraced_report(rep); }

 private:
  void untraced_run();
  void untraced_report(Report& rep);
  void traced_run();
  void traced_report(Report& rep);

  World& w_;
  bool traced_;
  core::VisionTrainConfig cfg_;
  int runs_ = 0;
  // Untraced.
  std::vector<double> vanilla_epoch_s_, hybrid_epoch_s_, wall_s_;
  std::vector<uint64_t> final_loss_bits_;
  int64_t epochs_ = 0, bad_epochs_ = 0;
  bool finite_ = true, improved_ = true;
  // Traced.
  struct StepTimes {
    std::vector<double> data_ms, fwd_ms, bwd_ms, step_ms, wall_ms, untimed_ms;
  };
  StepTimes ph_[2];  // [0] vanilla, [1] hybrid
  std::vector<double> warm_start_s_, snapshot_ms_, eval_ms_, gemm_ms_, lower_ms_;
  std::vector<double> on_step_ms_, off_step_ms_;
  uint64_t sys_allocs_ = 0;
  int64_t traced_steps_ = 0, steps_ = 0, bad_steps_ = 0;
};

void TrainStage::untraced_run() {
  const auto vanilla = [](Rng& r) { return make_resnet(false, r); };
  const auto hybrid = [](Rng& r) { return make_resnet(true, r); };
  std::filesystem::remove_all(cfg_.checkpoint_dir);
  const core::VisionResult r = core::train_vision(vanilla, hybrid, *w_.train_ds, cfg_);
  wall_s_.push_back(r.total_seconds);
  final_loss_bits_.push_back(bits(r.final_loss));
  for (const core::EpochRecord& e : r.epochs) {
    ++epochs_;
    const bool ok = std::isfinite(e.train_loss);
    if (!ok) ++bad_epochs_;
    finite_ = finite_ && ok;
    (e.low_rank_phase ? hybrid_epoch_s_ : vanilla_epoch_s_).push_back(e.seconds);
  }
  finite_ = finite_ && std::isfinite(r.final_loss);
  improved_ = improved_ && r.epochs.size() == static_cast<size_t>(cfg_.epochs) &&
              r.epochs.back().low_rank_phase &&
              r.epochs.back().train_loss < r.epochs.front().train_loss;
}

void TrainStage::untraced_report(Report& rep) {
  bool same = true;
  for (uint64_t b : final_loss_bits_) same = same && b == final_loss_bits_[0];
  rep.check(finite_, "train-rn18: every loss is finite");
  rep.check(improved_, "train-rn18: final hybrid loss is below the first epoch's");
  rep.check(same, "train-rn18: same-seed runs give bit-identical final_loss");
  rep.ops("train.epochs", epochs_, bad_epochs_);
  rep.ops("train.runs", runs_, 0);
  const double samples = static_cast<double>(kTrainSamples);
  rep.metric("train_vanilla_samples_per_s", samples / median(vanilla_epoch_s_),
             "samples/s");
  rep.metric("train_hybrid_samples_per_s", samples / median(hybrid_epoch_s_),
             "samples/s");
  rep.metric("train_wall_s", median(wall_s_), "s");
}

double span_self_ms(const std::vector<trace::Event>& ev, bool (*pick)(const char*)) {
  double ms = 0;
  for (const trace::FlameRow& r : trace::aggregate(ev))
    if (pick(r.name.c_str())) ms += r.self_ms;
  return ms;
}

bool is_lowering(const char* n) {
  return std::strcmp(n, "im2col") == 0 || std::strcmp(n, "col2im") == 0;
}

// Algorithm 1 again, as a loop over the modules' public calls so each one
// can be timed: data -> forward -> backward -> optimizer step, warm_start
// between the phases, evaluate_vision and save_snapshot after each epoch.
void TrainStage::traced_run() {
  const core::VisionTrainConfig& cfg = cfg_;
  const data::SyntheticImages& ds = *w_.train_ds;
  const int run = runs_;
  Rng rng(cfg.seed * 0x9E3779B9u + 17);
  std::unique_ptr<nn::UnaryModule> model = make_resnet(false, rng);
  auto opt = std::make_unique<optim::SGD>(model->parameters(), cfg.lr,
                                          cfg.momentum, cfg.weight_decay);
  for (int epoch = 0; epoch < cfg.epochs; ++epoch) {
    const bool hybrid_phase = epoch >= kWarmupEpochs;
    if (epoch == kWarmupEpochs) {
      std::unique_ptr<nn::UnaryModule> h = make_resnet(true, rng);
      const auto ts = Clock::now();
      core::warm_start(*model, *h, rng);
      warm_start_s_.push_back(seconds_since(ts));
      model = std::move(h);
      opt = std::make_unique<optim::SGD>(model->parameters(), cfg.lr,
                                         cfg.momentum, cfg.weight_decay);
    }
    StepTimes& st = ph_[hybrid_phase ? 1 : 0];
    model->train(true);
    auto ta = Clock::now();
    const std::vector<data::ImageBatch> batches =
        ds.train_batches(cfg.batch, epoch);
    const double data_ms = ms_between(ta, Clock::now()) /
                           static_cast<double>(batches.size());
    for (const data::ImageBatch& b : batches) {
      // Alternate steps run with layer timing and PF_TRACE spans on and
      // off, so the difference is the tracing overhead.
      const bool on = (steps_ + run) % 2 == 0;
      trace::set_enabled(on);
      const metrics::AllocStats a0 = metrics::alloc_stats();
      const auto s0 = Clock::now();
      model->zero_grad();
      const auto s1 = Clock::now();
      ag::Var logits = model->forward(ag::leaf(b.images));
      ag::Var loss = ag::cross_entropy(logits, b.labels);
      const auto s2 = Clock::now();
      ag::backward(loss);
      const auto s3 = Clock::now();
      opt->step();
      const auto s4 = Clock::now();
      ++steps_;
      if (!std::isfinite(loss->value[0])) ++bad_steps_;
      trace::set_enabled(false);
      const double wall = ms_between(s0, s4) + data_ms;
      (on ? on_step_ms_ : off_step_ms_).push_back(wall);
      if (!on) continue;
      sys_allocs_ += metrics::alloc_stats().sys_allocs - a0.sys_allocs;
      ++traced_steps_;
      st.data_ms.push_back(data_ms);
      st.fwd_ms.push_back(ms_between(s1, s2));
      st.bwd_ms.push_back(ms_between(s2, s3));
      st.step_ms.push_back(ms_between(s3, s4));
      st.wall_ms.push_back(wall);
      st.untimed_ms.push_back(ms_between(s0, s1));
      // The rings hold 32768 events per thread: drain every step.
      const std::vector<trace::Event> ev = trace::drain();
      gemm_ms_.push_back(span_self_ms(ev, trace::is_gemm_span));
      lower_ms_.push_back(span_self_ms(ev, is_lowering));
    }
    auto te = Clock::now();
    core::evaluate_vision(*model, ds, cfg.batch);
    eval_ms_.push_back(ms_between(te, Clock::now()));
    core::TrainState state;
    state.next_epoch = epoch + 1;
    state.low_rank_phase = hybrid_phase;
    core::capture_optimizer(*opt, state);
    te = Clock::now();
    core::save_snapshot(*model, state, cfg.checkpoint_dir);
    snapshot_ms_.push_back(ms_between(te, Clock::now()));
  }
  trace::drain();
}

void TrainStage::traced_report(Report& rep) {
  rep.check(bad_steps_ == 0, "train-rn18 (traced): every loss is finite");
  rep.check(trace::dropped() == 0, "train-rn18 (traced): no trace events dropped");
  rep.ops("train.steps", steps_, bad_steps_);

  const char* phase[2] = {"vanilla", "hybrid"};
  std::vector<double> data_all;
  for (int p = 0; p < 2; ++p) {
    const StepTimes& st = ph_[p];
    data_all.insert(data_all.end(), st.data_ms.begin(), st.data_ms.end());
    const double fwd = median(st.fwd_ms);
    rep.metric(std::string("autograd.fwd_ms.") + phase[p], fwd, "ms");
    rep.metric(std::string("autograd.bwd_ms.") + phase[p], median(st.bwd_ms), "ms");
    rep.metric(std::string("optim.step_ms.") + phase[p], median(st.step_ms), "ms");
    rep.metric(std::string("models.fwd_gflops.") + phase[p],
               2.0 * static_cast<double>(forward_macs(p == 1)) * kTrainBatch /
                   (fwd * 1e-3) / 1e9,
               "GFLOP/s");
  }
  rep.metric("data.batch_ms", median(data_all), "ms");
  rep.metric("kernels.gemm_ms_per_step", median(gemm_ms_), "ms");
  rep.metric("kernels.im2col_ms_per_step", median(lower_ms_), "ms");
  rep.metric("runtime.sys_allocs_per_step",
             static_cast<double>(sys_allocs_) / static_cast<double>(traced_steps_),
             "count");
  rep.metric("core.warm_start_s", median(warm_start_s_), "s");
  rep.metric("core.snapshot_ms", median(snapshot_ms_), "ms");
  rep.metric("core.eval_ms", median(eval_ms_), "ms");

  // Coverage: timed calls (data, forward, backward, optimizer) against the
  // step wall; the untimed residual is zero_grad plus the loop itself.
  double timed = 0, wall = 0, untimed = 0;
  for (const StepTimes& st : ph_) {
    for (size_t i = 0; i < st.wall_ms.size(); ++i) {
      timed += st.data_ms[i] + st.fwd_ms[i] + st.bwd_ms[i] + st.step_ms[i];
      wall += st.wall_ms[i];
      untimed += st.untimed_ms[i];
    }
  }
  rep.metric("coverage.train.timed_share", timed / wall, "ratio");
  rep.metric("coverage.train.untimed_ms_per_step",
             untimed / static_cast<double>(traced_steps_), "ms");
  rep.metric("trace.overhead_pct.train",
             100.0 * (median(on_step_ms_) / median(off_step_ms_) - 1.0), "%");
}

}  // namespace

std::unique_ptr<Stage> make_train_stage(World& w, bool traced) {
  return std::make_unique<TrainStage>(w, traced);
}

}  // namespace pfbench
