#include "dist/cluster.h"

#include <gtest/gtest.h>

#include "models/resnet.h"
#include "plan/comm_sim.h"

namespace pf::dist {
namespace {

// The alpha-beta ring model the modeled trainer prices every step with:
// plan::comm_sim on the paper's EC2 links.
const HardwareProfile kLink = HardwareProfile::cloud_10g();

double allreduce_s(int64_t bytes, int p, int messages = 1) {
  return plan::collective_seconds(plan::Coll::kAllreduce, bytes, p, kLink,
                                  messages);
}

double allgather_s(int64_t bytes, int p) {
  return plan::collective_seconds(plan::Coll::kAllgather, bytes, p, kLink);
}

TEST(CostModel, AllreduceScalesWithBytes) {
  EXPECT_LT(allreduce_s(1 << 20, 8), allreduce_s(16 << 20, 8));
}

TEST(CostModel, LatencyTermScalesWithCalls) {
  // Packing 100 layers into 1 call (paper Section 4.1) beats 100 calls.
  const double packed = allreduce_s(25 << 20, 16, 1);
  const double unpacked = allreduce_s(25 << 20, 16, 100);
  EXPECT_LT(packed, unpacked);
  EXPECT_NEAR(unpacked - packed, 99 * 2 * 15 * kLink.alpha_s, 1e-9);
}

TEST(CostModel, AllgatherGrowsFasterWithNodes) {
  // Same payload: allgather's bandwidth term scales with (p-1), allreduce's
  // saturates at 2 -- the paper's argument for why SIGNUM underperforms.
  const int64_t bytes = 25 << 20;
  const double ar_ratio = allreduce_s(bytes, 16) / allreduce_s(bytes, 2);
  const double ag_ratio = allgather_s(bytes, 16) / allgather_s(bytes, 2);
  EXPECT_GT(ag_ratio, ar_ratio);
}

TEST(CostModel, CompressedAllgatherCanStillLose) {
  // 32x compressed allgather vs dense allreduce at 16 nodes: the (p-1)
  // factor eats much of the compression.
  const int64_t dense = 100 << 20;
  const double t_dense_ar = allreduce_s(dense, 16);
  const double t_sign_ag = allgather_s(dense / 32, 16);
  EXPECT_LT(t_sign_ag, t_dense_ar);          // still wins on raw comm...
  EXPECT_GT(t_sign_ag, t_dense_ar / 32.0);   // ...but far less than 32x
}

TEST(DdpOverlap, BoundedBelowByComputeAndComm) {
  const double compute = 1.0;
  const int64_t bytes = 100 << 20;
  const double t = plan::overlap_epoch_seconds(compute, bytes, 8, kLink);
  EXPECT_GE(t, compute);
  // Total is at most compute + full comm (no overlap at all).
  EXPECT_LE(t, compute + allreduce_s(bytes, 8, 4) + 1e-6);
}

TEST(DdpOverlap, SmallGradsFullyHidden) {
  const double t = plan::overlap_epoch_seconds(10.0, 1 << 20, 4, kLink);
  EXPECT_NEAR(t, 10.0, 0.05);
}

TEST(DdpOverlap, SmallerModelNeverSlower) {
  const double t_big = plan::overlap_epoch_seconds(1.0, 100 << 20, 16, kLink);
  const double t_small = plan::overlap_epoch_seconds(0.7, 60 << 20, 16, kLink);
  EXPECT_LT(t_small, t_big);
}

class NodesP : public ::testing::TestWithParam<int> {};

TEST_P(NodesP, AllreduceTimeIncreasesWithNodes) {
  EXPECT_LT(allreduce_s(25 << 20, GetParam()),
            allreduce_s(25 << 20, GetParam() * 2));
}

INSTANTIATE_TEST_SUITE_P(Sweep, NodesP, ::testing::Values(2, 4, 8));

// ---- Cluster training semantics. ----

data::SyntheticImages tiny_data() {
  data::SyntheticImages::Config dc;
  dc.num_classes = 4;
  dc.hw = 8;
  dc.train_size = 32;
  dc.test_size = 16;
  dc.augment = false;
  return data::SyntheticImages(dc);
}

std::unique_ptr<nn::UnaryModule> tiny_model(uint64_t seed) {
  Rng rng(seed);
  models::ResNetCifarConfig cfg;
  cfg.width_mult = 0.0625;  // 4-16-... channels
  cfg.num_classes = 4;
  return std::make_unique<models::ResNet18Cifar>(cfg, rng);
}

// BN-free MLP: data-parallel equivalence holds exactly only without
// per-replica batch statistics (true of real DDP as well).
std::unique_ptr<nn::UnaryModule> mlp_model(uint64_t seed) {
  Rng rng(seed);
  auto s = std::make_unique<nn::Sequential>();
  s->emplace<nn::Flatten>();
  s->emplace<nn::Linear>(3 * 8 * 8, 16, rng);
  s->emplace<nn::ReLU>();
  s->emplace<nn::Linear>(16, 4, rng);
  return s;
}

TEST(DataParallelTrainer, AllreduceMatchesSingleNodeLargeBatch) {
  // Data-parallel SGD with exact-mean allreduce over k workers is
  // mathematically identical to single-process training with the global
  // batch (for models without per-replica batch statistics). This is the
  // core correctness property of the simulator.
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 2;
  cfg.global_batch = 16;
  cfg.lr = 0.05f;

  DataParallelTrainer single(mlp_model(3),
                             std::make_unique<compress::AllreduceReducer>(),
                             1, cfg);
  auto rec1 = single.train(ds);

  DataParallelTrainer multi(mlp_model(3),
                            std::make_unique<compress::AllreduceReducer>(),
                            4, cfg);
  auto rec4 = multi.train(ds);

  EXPECT_TRUE(allclose(single.model().flat_params(),
                       multi.model().flat_params(), 1e-3f, 1e-4f));
  EXPECT_NEAR(rec1.back().train_loss, rec4.back().train_loss, 1e-3);
}

TEST(DataParallelTrainer, TrainsToAboveChance) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 6;
  cfg.global_batch = 16;
  cfg.lr = 0.05f;
  DataParallelTrainer t(tiny_model(5),
                        std::make_unique<compress::AllreduceReducer>(), 4,
                        cfg);
  auto recs = t.train(ds);
  EXPECT_GT(recs.back().test_acc, 0.3);  // chance = 0.25
  EXPECT_LT(recs.back().train_loss, recs.front().train_loss);
}

TEST(DataParallelTrainer, BreakdownIsPopulated) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;
  DataParallelTrainer t(tiny_model(7),
                        std::make_unique<compress::SignumReducer>(), 4, cfg);
  auto rec = t.train_epoch(ds, 0);
  EXPECT_GT(rec.breakdown.compute_s, 0.0);
  EXPECT_GT(rec.breakdown.comm_s, 0.0);
  EXPECT_GT(rec.breakdown.encode_s, 0.0);
  EXPECT_GT(rec.breakdown.decode_s, 0.0);
  EXPECT_GT(rec.breakdown.bytes_per_worker, 0);
  EXPECT_NEAR(rec.breakdown.total(),
              rec.breakdown.compute_s + rec.breakdown.encode_s +
                  rec.breakdown.comm_s + rec.breakdown.decode_s +
                  rec.breakdown.other_s,
              1e-9);
  EXPECT_GT(t.cumulative_sim_seconds(), 0.0);
}

TEST(DataParallelTrainer, SmallerModelCommunicatesLess) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;

  DataParallelTrainer vanilla(tiny_model(9),
                              std::make_unique<compress::AllreduceReducer>(),
                              4, cfg);
  auto rv = vanilla.train_epoch(ds, 0);

  Rng rng(9);
  models::ResNetCifarConfig pcfg = models::ResNetCifarConfig::pufferfish();
  pcfg.width_mult = 0.0625;
  pcfg.num_classes = 4;
  DataParallelTrainer pf(std::make_unique<models::ResNet18Cifar>(pcfg, rng),
                         std::make_unique<compress::AllreduceReducer>(), 4,
                         cfg);
  auto rp = pf.train_epoch(ds, 0);

  EXPECT_LT(rp.breakdown.bytes_per_worker, rv.breakdown.bytes_per_worker);
  EXPECT_LT(rp.breakdown.comm_s, rv.breakdown.comm_s);
}

TEST(DataParallelTrainer, ReplaceModelMidRun) {
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = 16;
  DataParallelTrainer t(tiny_model(11),
                        std::make_unique<compress::AllreduceReducer>(), 2,
                        cfg);
  t.train_epoch(ds, 0);
  const double before = t.cumulative_sim_seconds();
  t.replace_model(tiny_model(12), nullptr);
  auto rec = t.train_epoch(ds, 1);
  EXPECT_GT(rec.cumulative_sim_seconds, before);
}

TEST(DataParallelTrainer, PowerSgdStepPricesTwoMessages) {
  // PowerSGD sends a P round and a Q round each step: the modeled trainer
  // prices its total payload as two allreduces of half the bytes each,
  // i.e. two latency terms plus one bandwidth term over the whole payload.
  auto ds = tiny_data();
  DistTrainConfig cfg;
  cfg.epochs = 1;
  cfg.global_batch = ds.train_size();  // one step
  DataParallelTrainer t(tiny_model(13),
                        std::make_unique<compress::PowerSgdReducer>(2, 3), 4,
                        cfg);
  const EpochBreakdown b = t.train_epoch(ds, 0).breakdown;
  const int64_t payload = b.bytes_per_worker;
  ASSERT_GT(payload, 0);
  EXPECT_EQ(b.comm_s,
            2 * plan::collective_seconds(plan::Coll::kAllreduce, payload / 2,
                                         4, kLink));
  // 2 alpha_ar + beta(payload) with alpha_ar = 2 (p-1) alpha and
  // beta(n) = 2 n (p-1) / p / B, on the paper's 10 Gbps / 50 us links.
  const double p = 4, alpha = 50e-6, bw = 10e9 / 8;
  const double expected = 2 * (2 * (p - 1) * alpha) +
                          2 * static_cast<double>(payload) * (p - 1) / p / bw;
  EXPECT_NEAR(b.comm_s, expected, 1e-12 * expected);
}

}  // namespace
}  // namespace pf::dist
