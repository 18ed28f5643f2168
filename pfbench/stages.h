// The benchmark's three stages -- single-process Pufferfish training,
// 4-worker shared-memory data parallelism and two-model fleet serving -- and
// the set-up they share. Each stage drives the library's public entry
// points (core::train_vision, runtime::ShmDataParallelTrainer,
// serve::Fleet) in units of work and reports into a Report. With `traced`
// set, a stage instead times calls into each module's public functions from
// here and reports per-layer metrics; untraced stages record end-to-end
// metrics only.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "compress/compressor.h"
#include "data/synthetic.h"
#include "models/resnet.h"
#include "runtime/shm_cluster.h"
#include "serve/frozen.h"

namespace pfbench {

// Problem sizes. ResNet-18 at width 0.25 on 32x32 CIFAR-like images: the
// deepest layers are 128-channel at 4x4.
inline constexpr double kWidth = 0.25;
inline constexpr double kRankRatio = 0.25;
inline constexpr int kFirstLowRankBlock = 2;
inline constexpr int64_t kHw = 32;
inline constexpr int64_t kTrainBatch = 32;
inline constexpr int64_t kTrainSamples = 64;   // per train-rn18 epoch
inline constexpr int kWarmupEpochs = 2;        // vanilla epochs per run
inline constexpr int kHybridEpochs = 2;        // fine-tune epochs per run
inline constexpr int kDpWorkers = 4;
inline constexpr int64_t kDpGlobalBatch = 64;
inline constexpr int64_t kDpSamples = 128;     // per train-dp4 epoch
inline constexpr int64_t kPowerSgdRank = 2;
inline constexpr int kServeWorkers = 2;
inline constexpr int64_t kServeMaxBatch = 8;
inline constexpr double kServeDeadlineMs = 2.0;
inline constexpr double kSloMs = 50.0;  // the Fleet "standard" class

std::unique_ptr<pf::nn::UnaryModule> make_resnet(bool hybrid, pf::Rng& rng);
int64_t forward_macs(bool hybrid);  // per 32x32 sample

// Forwards to a wrapped reducer, optionally recording what each call cost.
class TimingReducer : public pf::compress::Reducer {
 public:
  explicit TimingReducer(std::unique_ptr<pf::compress::Reducer> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  pf::Tensor reduce(const std::vector<pf::Tensor>& grads,
                    const std::vector<pf::Shape>& shapes,
                    pf::compress::ReduceStats* stats) override;
  pf::compress::ReducerState state() const override { return inner_->state(); }
  void set_state(const pf::compress::ReducerState& st) override {
    inner_->set_state(st);
  }

  bool timing = false;
  double encode_s = 0, decode_s = 0;  // sums of the calls made while timing

 private:
  std::unique_ptr<pf::compress::Reducer> inner_;
};

// Everything a run builds before its first timed operation.
struct World {
  uint64_t seed = 0;
  std::string workdir;
  std::unique_ptr<pf::data::SyntheticImages> train_ds, dp_ds;
  std::unique_ptr<pf::runtime::ShmDataParallelTrainer> dp_hybrid, dp_powersgd;
  TimingReducer* powersgd = nullptr;  // owned by dp_powersgd
  int64_t hybrid_params = 0;
  int64_t powersgd_bytes_expected = 0;
  std::unique_ptr<pf::serve::FrozenModel> fp32, int8;
  std::vector<pf::Tensor> inputs;  // serving request inputs, seeded
  // Set-up parts, timed from here.
  double ckpt_load_ms = 0, quantize_ms = 0, prime_ms = 0;
};

std::unique_ptr<World> setup_world(uint64_t seed, const std::string& workdir);

// One of the three stages. A run interleaves the stages' units so that each
// metric's samples spread over the whole run, not one slice of it.
class Stage {
 public:
  virtual ~Stage() = default;
  // Runs one indivisible piece of work (a training run, an epoch pair, a
  // load window).
  virtual void unit() = 0;
  // Units needed before the stage can report.
  virtual int min_units() const = 0;
  // True once a stage with a fixed plan has done all of it.
  virtual bool finished() const { return false; }
  virtual void report(Report& rep) = 0;
};

// `budget_s` is the stage's share of the run; the serving stage plans its
// windows from it.
std::unique_ptr<Stage> make_train_stage(World& w, bool traced);
std::unique_ptr<Stage> make_dp_stage(World& w, bool traced);
std::unique_ptr<Stage> make_serve_stage(World& w, double budget_s, bool traced);
// Standalone layer probes for the traced run (nn, kernels, runtime ring,
// frozen engines).
void layer_probes(World& w, Report& rep);

}  // namespace pfbench
