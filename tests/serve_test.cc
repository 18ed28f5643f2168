// Serving building-block tests: frozen-engine bitwise equivalence with
// module eval forwards, packed-arena parameters, zero-allocation steady
// state, and the ServeStats / Reservoir telemetry. Scheduling, admission
// and end-to-end concurrent-client determinism are tested through the
// fleet in fleet_test.cc. The whole file also runs under PF_THREADS=4
// (ctest pf_tests_threads4) and ThreadSanitizer (ctest pf_tests_tsan).
#include "serve/frozen.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <vector>

#include "core/eval.h"
#include "metrics/metrics.h"
#include "metrics/serve_stats.h"
#include "models/resnet.h"
#include "nn/serialize.h"
#include "runtime/buffer_pool.h"

namespace pf::serve {
namespace {

std::string tmp_path(const char* name) {
  // getpid(): the same test code runs concurrently in the plain binary and
  // the sanitizer ctest entries; a shared /tmp name lets one process
  // clobber the other's files mid-run.
  return std::string(::testing::TempDir()) + name + "." +
         std::to_string(::getpid());
}

std::unique_ptr<nn::UnaryModule> tiny_resnet(uint64_t seed,
                                             int first_lowrank = 0) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;
  cfg.first_lowrank_block = first_lowrank;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

std::unique_ptr<models::LstmLm> tiny_lstm(uint64_t seed, int64_t rank = 0) {
  Rng rng(seed);
  models::LstmLmConfig cfg = models::LstmLmConfig::tiny(rank);
  cfg.vocab = 50;
  cfg.hidden = 16;
  return std::make_unique<models::LstmLm>(cfg, rng);
}

bool bitwise_equal(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

// ---------------- Frozen engines ----------------

TEST(Frozen, VisionBitwiseIdenticalToModuleEvalForward) {
  // Reference module: perturb BN stats with a train-mode forward, then
  // checkpoint it.
  auto ref = tiny_resnet(1);
  Rng rng(7);
  ref->train(true);
  ref->forward(ag::leaf(rng.randn(Shape{2, 3, 8, 8})));
  const std::string path = tmp_path("frozen_vision.ckpt");
  nn::save_checkpoint(*ref, path);

  // Module eval forward (the trainer's path).
  Tensor x = rng.randn(Shape{3, 3, 8, 8});
  core::EvalModeGuard eg(*ref);
  Tensor want = core::eval_forward(*ref, x);

  // Frozen artifact: differently seeded module + checkpoint load + packing.
  FrozenModel frozen(tiny_resnet(999), "resnet18-test", path);
  Tensor got = frozen.forward(x);
  EXPECT_TRUE(bitwise_equal(want, got));
  EXPECT_EQ(frozen.num_params(), ref->num_params());
  std::remove(path.c_str());
}

TEST(Frozen, HybridLowRankBitwiseIdentical) {
  auto ref = tiny_resnet(2, /*first_lowrank=*/2);
  const std::string path = tmp_path("frozen_hybrid.ckpt");
  nn::save_checkpoint(*ref, path);
  Rng rng(11);
  Tensor x = rng.randn(Shape{2, 3, 8, 8});
  core::EvalModeGuard eg(*ref);
  Tensor want = core::eval_forward(*ref, x);
  FrozenModel frozen(tiny_resnet(998, 2), "hybrid-test", path);
  EXPECT_TRUE(bitwise_equal(want, frozen.forward(x)));
  std::remove(path.c_str());
}

TEST(Frozen, LstmBitwiseIdenticalToModuleEvalForward) {
  auto ref = tiny_lstm(3, /*rank=*/4);
  const std::string path = tmp_path("frozen_lstm.ckpt");
  nn::save_checkpoint(*ref, path);

  const int64_t t = 6, b = 3;
  std::vector<int64_t> ids(static_cast<size_t>(t * b));
  Rng rng(13);
  for (auto& id : ids) id = rng.uniform_int(50);

  core::EvalModeGuard eg(*ref);
  Tensor want = core::eval_forward_lm(*ref, ids, t, b, nullptr);
  FrozenLstm frozen(tiny_lstm(997, 4), t, "lstm-test", path);
  EXPECT_TRUE(bitwise_equal(want, frozen.forward(ids, t, b)));
  std::remove(path.c_str());
}

TEST(Frozen, PackedArenaBacksParameters) {
  FrozenModel frozen(tiny_resnet(4), "packed-test");
  // The packed artifact is one contiguous float block covering every param.
  EXPECT_EQ(frozen.packed_bytes(),
            frozen.num_params() * static_cast<int64_t>(sizeof(float)));
  auto params = frozen.module().parameters();
  int64_t shared = 0;
  for (nn::Param* p : params) {
    EXPECT_FALSE(p->var->requires_grad);
    if (p->var->value.storage_refcount() > 1) ++shared;
  }
  // Every parameter is a view into the shared arena.
  EXPECT_EQ(shared, static_cast<int64_t>(params.size()));
  EXPECT_FALSE(frozen.module().is_training());
}

TEST(Frozen, SteadyStateServesWithZeroSysAllocs) {
  if (!runtime::BufferPool::instance().enabled())
    GTEST_SKIP() << "buffer pool disabled (PF_POOL_DISABLE)";
  FrozenModel frozen(tiny_resnet(5), "alloc-test");
  frozen.prime(Shape{3, 8, 8}, 4);
  Rng rng(17);
  Tensor x = rng.randn(Shape{4, 3, 8, 8});
  frozen.forward(x);  // one more warm pass with the real input resident
  metrics::reset_alloc_stats(false);
  for (int i = 0; i < 20; ++i) frozen.forward(x);
  const metrics::AllocStats s = metrics::alloc_stats();
  EXPECT_EQ(s.sys_allocs, 0u) << "steady-state request hit the system "
                                 "allocator";
  EXPECT_EQ(s.cow_unshares, 0u) << "steady-state request paid a COW copy";
  EXPECT_GT(s.allocations, 0u);  // it did run, all from the free lists
}

// ---------------- ServeStats / Reservoir ----------------

TEST(ServeStats, ReservoirExactQuantilesBelowCapacity) {
  metrics::Reservoir res(4096);
  for (int i = 1; i <= 1000; ++i) res.add(i);
  EXPECT_EQ(res.count(), 1000);
  EXPECT_DOUBLE_EQ(res.quantile(0.0), 1.0);
  EXPECT_DOUBLE_EQ(res.quantile(1.0), 1000.0);
  EXPECT_NEAR(res.quantile(0.5), 500.0, 1.0);
  EXPECT_NEAR(res.quantile(0.99), 990.0, 1.0);
  EXPECT_DOUBLE_EQ(res.max_seen(), 1000.0);
  EXPECT_NEAR(res.mean(), 500.5, 1e-9);
}

TEST(ServeStats, ReservoirEvictionStaysInRange) {
  metrics::Reservoir res(64);
  for (int i = 1; i <= 10000; ++i) res.add(i);
  EXPECT_EQ(res.count(), 10000);
  const double p50 = res.quantile(0.5);
  EXPECT_GT(p50, 2000.0);  // a uniform sample cannot collapse to the head
  EXPECT_LT(p50, 8000.0);
  EXPECT_DOUBLE_EQ(res.max_seen(), 10000.0);
}

TEST(ServeStats, ReportAggregates) {
  metrics::ServeStats stats;
  stats.begin();
  for (int i = 0; i < 10; ++i) stats.record_submit();
  stats.record_reject();
  stats.record_batch(4, 2);
  stats.record_batch(6, 0);
  for (int i = 0; i < 10; ++i) stats.record_done(1.0 + i);
  const metrics::ServeReport r = stats.report();
  EXPECT_EQ(r.submitted, 10u);
  EXPECT_EQ(r.rejected, 1u);
  EXPECT_EQ(r.completed, 10u);
  EXPECT_EQ(r.batches, 2u);
  EXPECT_DOUBLE_EQ(r.mean_batch, 5.0);
  EXPECT_DOUBLE_EQ(r.mean_depth, 1.0);
  EXPECT_EQ(r.max_depth, 2);
  ASSERT_EQ(r.batch_hist.size(), 7u);
  EXPECT_EQ(r.batch_hist[4], 1u);
  EXPECT_EQ(r.batch_hist[6], 1u);
  EXPECT_GT(r.elapsed_s, 0.0);
  EXPECT_FALSE(r.summary().empty());
}

}  // namespace
}  // namespace pf::serve
