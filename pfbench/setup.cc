// Set-up shared by all stages: seeded data, the two data-parallel arms, and
// the two serving engines (v1 checkpoint load, int8 quantize + commit,
// prime).
#include <algorithm>
#include <filesystem>

#include "core/factorize.h"
#include "nn/serialize.h"
#include "quant/quantize.h"
#include "stages.h"

namespace pfbench {

using namespace pf;

std::unique_ptr<nn::UnaryModule> make_resnet(bool hybrid, Rng& rng) {
  models::ResNetCifarConfig c;
  c.width_mult = kWidth;
  c.rank_ratio = kRankRatio;
  c.first_lowrank_block = hybrid ? kFirstLowRankBlock : 0;
  return std::make_unique<models::ResNet18Cifar>(c, rng);
}

int64_t forward_macs(bool hybrid) {
  Rng rng(1);
  auto m = make_resnet(hybrid, rng);
  return static_cast<models::ResNet18Cifar&>(*m).forward_macs(kHw, kHw);
}

Tensor TimingReducer::reduce(const std::vector<Tensor>& grads,
                             const std::vector<Shape>& shapes,
                             compress::ReduceStats* stats) {
  Tensor out = inner_->reduce(grads, shapes, stats);
  if (timing) {
    encode_s += stats->encode_seconds;
    decode_s += stats->decode_seconds;
  }
  return out;
}

namespace {

data::SyntheticImages::Config images(uint64_t seed, int64_t train,
                                     int64_t test) {
  data::SyntheticImages::Config c;
  c.hw = kHw;
  c.train_size = train;
  c.test_size = test;
  c.seed = seed;
  return c;
}

// PowerSGD's payload per worker, derived from the parameter shapes alone:
// matrices send rank-r P and Q factors, 1-D parameters ride along dense.
int64_t powersgd_bytes(nn::Module& m) {
  int64_t bytes = 0;
  for (nn::Param* p : m.parameters()) {
    const Shape& s = p->var->value.shape();
    const int64_t n = shape_numel(s);
    if (s.size() < 2) {
      bytes += 4 * n;
    } else {
      const int64_t rows = s[0], cols = n / rows;
      const int64_t r = std::min({kPowerSgdRank, rows, cols});
      bytes += 4 * r * (rows + cols);
    }
  }
  return bytes;
}

}  // namespace

std::unique_ptr<World> setup_world(uint64_t seed, const std::string& workdir) {
  auto w = std::make_unique<World>();
  w->seed = seed;
  w->workdir = workdir;
  std::filesystem::create_directories(workdir);

  w->train_ds = std::make_unique<data::SyntheticImages>(
      images(seed * 3 + 1, kTrainSamples, 64));
  w->dp_ds = std::make_unique<data::SyntheticImages>(
      images(seed * 3 + 2, kDpSamples, 16));

  runtime::ShmClusterConfig cc;
  cc.workers = kDpWorkers;
  cc.train.global_batch = kDpGlobalBatch;
  cc.train.threads = 1;
  cc.train.seed = seed;
  cc.train.lr_milestones = {1 << 20};  // constant lr: epochs stay alike
  w->dp_hybrid = std::make_unique<runtime::ShmDataParallelTrainer>(
      [](Rng& r) { return make_resnet(true, r); }, nullptr, cc);
  auto timing = std::make_unique<TimingReducer>(
      std::make_unique<compress::PowerSgdReducer>(kPowerSgdRank, seed + 7));
  w->powersgd = timing.get();
  w->dp_powersgd = std::make_unique<runtime::ShmDataParallelTrainer>(
      [](Rng& r) { return make_resnet(false, r); }, std::move(timing), cc);
  w->hybrid_params = w->dp_hybrid->model().num_params();
  w->powersgd_bytes_expected = powersgd_bytes(w->dp_powersgd->model());

  // Serving artifacts: a hybrid warm-started from a seeded vanilla model by
  // the paper's SVD, written as a v1 checkpoint and loaded back twice.
  Rng rng(seed * 0x9E3779B9ull + 5);
  auto vanilla = make_resnet(false, rng);
  auto hybrid = make_resnet(true, rng);
  core::warm_start(*vanilla, *hybrid, rng);
  const std::string ckpt = workdir + "/hybrid_v1.ckpt";
  nn::save_checkpoint(*hybrid, ckpt, 1);

  Rng shape_rng(1);
  w->fp32 = std::make_unique<serve::FrozenModel>(make_resnet(true, shape_rng),
                                                 "hybrid-fp32", ckpt);
  auto q = make_resnet(true, shape_rng);
  auto t0 = Clock::now();
  nn::load_checkpoint(*q, ckpt);
  w->ckpt_load_ms = seconds_since(t0) * 1e3;
  t0 = Clock::now();
  quant::quantize_module(*q, quant::QuantSpec{});
  quant::commit(*q);
  w->quantize_ms = seconds_since(t0) * 1e3;
  w->int8 = std::make_unique<serve::FrozenModel>(std::move(q), "hybrid-int8");

  t0 = Clock::now();
  const Shape sample{3, kHw, kHw};
  w->fp32->prime(sample, kServeMaxBatch);
  w->int8->prime(sample, kServeMaxBatch);
  w->prime_ms = seconds_since(t0) * 1e3;

  Rng in_rng(seed * 0x2545F4914F6CDD1Dull + 9);
  for (int i = 0; i < 64; ++i) w->inputs.push_back(in_rng.randn(sample));
  return w;
}

}  // namespace pfbench
