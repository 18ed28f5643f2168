// Standalone layer probes for the traced run: nn convolutions at the
// shapes Pufferfish factorizes (next to the Table 1 MAC ratio), the active
// kernel backend's GEMM on the deep im2col shape, the shm ring all-reduce
// at the hybrid's payload, and the frozen serving engines at batch 1 and 8.
#include "autograd/ops.h"
#include "kernels/kernels.h"
#include "nn/layers.h"
#include "runtime/shm_cluster.h"
#include "runtime/thread_pool.h"
#include "stages.h"

namespace pfbench {

using namespace pf;

namespace {

constexpr int kReps = 15;

struct ConvTimes {
  double fwd_ms, bwd_ms;
};

// Median forward and backward (input and weight gradients) time of one
// layer on a (kTrainBatch, c, hw, hw) input.
ConvTimes time_layer(nn::UnaryModule& layer, int64_t c, int64_t hw, Rng& rng) {
  const Tensor x = rng.randn(Shape{kTrainBatch, c, hw, hw});
  std::vector<double> fwd, bwd;
  for (int i = 0; i < kReps + 1; ++i) {
    layer.zero_grad();
    ag::Var in = ag::leaf(x, true);
    const auto t0 = Clock::now();
    ag::Var y = layer.forward(in);
    const auto t1 = Clock::now();
    ag::backward(y, Tensor::ones(y->value.shape()));
    const auto t2 = Clock::now();
    if (i == 0) continue;  // first call fills the buffer pool
    fwd.push_back(ms_between(t0, t1));
    bwd.push_back(ms_between(t1, t2));
  }
  return {median(fwd), median(bwd)};
}

double gflops(double flop, double ms) { return flop / (ms * 1e-3) / 1e9; }

}  // namespace

void layer_probes(World& w, Report& rep) {
  runtime::set_threads(1);
  Rng rng(w.seed + 99);
  const double n = static_cast<double>(kTrainBatch);

  // Dense 3x3 convs: shallow 16->16 @32x32 and deep 128->128 @4x4;
  // low-rank deep at rank 32 = 0.25 x 128.
  nn::Conv2d shallow(16, 16, 3, 1, 1, rng);
  nn::Conv2d deep(128, 128, 3, 1, 1, rng);
  nn::LowRankConv2d lowrank(128, 128, 3, 1, 1, 32, rng);
  const double macs_shallow = 16.0 * 16 * 9 * 32 * 32;
  const double macs_deep = 128.0 * 128 * 9 * 4 * 4;
  const double macs_lowrank = (32.0 * 128 * 9 + 128.0 * 32) * 4 * 4;
  const ConvTimes ts = time_layer(shallow, 16, 32, rng);
  const ConvTimes td = time_layer(deep, 128, 4, rng);
  const ConvTimes tl = time_layer(lowrank, 128, 4, rng);
  // Backward computes both the input and the weight gradient: 2x forward.
  rep.metric("nn.conv_shallow_fwd_gflops", gflops(2 * macs_shallow * n, ts.fwd_ms), "GFLOP/s");
  rep.metric("nn.conv_shallow_bwd_gflops", gflops(4 * macs_shallow * n, ts.bwd_ms), "GFLOP/s");
  rep.metric("nn.conv_deep_fwd_gflops", gflops(2 * macs_deep * n, td.fwd_ms), "GFLOP/s");
  rep.metric("nn.conv_deep_bwd_gflops", gflops(4 * macs_deep * n, td.bwd_ms), "GFLOP/s");
  rep.metric("nn.lowrank_deep_fwd_gflops", gflops(2 * macs_lowrank * n, tl.fwd_ms), "GFLOP/s");
  rep.metric("nn.lowrank_deep_bwd_gflops", gflops(4 * macs_lowrank * n, tl.bwd_ms), "GFLOP/s");
  rep.metric("nn.lowrank_deep_mac_ratio", macs_deep / macs_lowrank, "ratio");
  rep.metric("nn.lowrank_deep_fwd_speedup", td.fwd_ms / tl.fwd_ms, "ratio");

  // Backend GEMM on the deep layer's per-sample im2col shape:
  // W (128 x 1152) x col (1152 x 16).
  {
    const int64_t m = 128, k = 128 * 9, nn_ = 16;
    const Tensor a = rng.randn(Shape{m, k}), b = rng.randn(Shape{k, nn_});
    Tensor c(Shape{m, nn_});
    const kernels::Backend& be = kernels::active();
    std::vector<double> ms;
    for (int rep_i = 0; rep_i < kReps; ++rep_i) {
      const auto t0 = Clock::now();
      for (int i = 0; i < 200; ++i) be.gemm_nn(a.data(), b.data(), c.data(), m, k, nn_);
      ms.push_back(ms_between(t0, Clock::now()) / 200);
    }
    rep.metric("kernels.gemm_gflops.deep",
               gflops(2.0 * static_cast<double>(m * k * nn_), median(ms)), "GFLOP/s");
  }

  // The ring all-reduce the hybrid arm runs, at the hybrid's payload.
  {
    std::vector<double> s;
    for (int i = 0; i < 5; ++i)
      s.push_back(runtime::timed_ring_allreduce(kDpWorkers, w.hybrid_params,
                                                256 << 10, 10));
    rep.metric("runtime.ring_allreduce_gbps",
               4.0 * static_cast<double>(w.hybrid_params) / median(s) / 1e9, "GB/s");
  }

  // Frozen engines at the batch sizes the fleet forms at low load (1) and
  // near capacity (8), single-threaded like a fleet worker.
  const serve::FrozenModel* engines[2] = {w.fp32.get(), w.int8.get()};
  const char* names[2] = {"fp32", "int8"};
  for (int e = 0; e < 2; ++e) {
    double t[2];
    const int64_t sizes[2] = {1, kServeMaxBatch};
    for (int s = 0; s < 2; ++s) {
      std::vector<Tensor> xs;
      for (int64_t i = 0; i < sizes[s]; ++i)
        xs.push_back(w.inputs[static_cast<size_t>(i)].reshape(Shape{1, 3, kHw, kHw}));
      const Tensor x = concat(xs, 0);
      std::vector<double> ms;
      for (int i = 0; i < 3 * kReps; ++i) {
        const auto t0 = Clock::now();
        engines[e]->forward(x);
        ms.push_back(ms_between(t0, Clock::now()));
      }
      t[s] = median(ms);
      rep.metric(std::string("engine.fwd_ms.") + names[e] + ".b" +
                     std::to_string(sizes[s]),
                 t[s], "ms");
    }
    rep.metric(std::string("engine.batch_gain.") + names[e],
               static_cast<double>(kServeMaxBatch) * t[0] / t[1], "ratio");
  }

  // Set-up parts (timed inside setup_world).
  rep.metric("ckpt.load_ms", w.ckpt_load_ms, "ms");
  rep.metric("quant.quantize_ms", w.quantize_ms, "ms");
  rep.metric("serve.prime_ms", w.prime_ms, "ms");
}

}  // namespace pfbench
