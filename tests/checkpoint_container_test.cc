// The shared checkpoint container (nn/serialize.h) under every artifact
// kind: v0/v1 model checkpoints, PUFFTST1/PUFFTST2 TrainState snapshots and
// PUFFCKP3 quantized / delta artifacts.
//
//  * Golden format: fixed tiny artifacts whose file bytes hash to constants
//    recorded from the previous, per-format writers -- the on-disk layout of
//    every format is pinned byte for byte.
//  * Hostile headers: crafted files that once escaped as std::bad_alloc /
//    std::length_error must fail as nn::CheckpointError naming the file.
//  * Seeded mutation fuzzing: byte flips, truncations and u64 field
//    rewrites over every artifact kind either load or throw
//    nn::CheckpointError -- never anything else.
#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <memory>
#include <ostream>
#include <random>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "nn/layers.h"
#include "nn/serialize.h"
#include "quant/qcheckpoint.h"
#include "quant/quantize.h"

namespace pf {
namespace {

std::string tmp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + name + "." +
         std::to_string(::getpid());
}

std::vector<char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::vector<char>& bytes) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t file_hash(const std::string& path) {
  const std::vector<char> bytes = read_file(path);
  return nn::fnv1a(bytes.data(), bytes.size());
}

// Values from a formula, not from Rng: the golden bytes must not depend on
// libm or on the kernel backend.
Tensor ramp(Shape shape, float scale) {
  Tensor t = Tensor::uninit(std::move(shape));
  for (int64_t i = 0; i < t.numel(); ++i)
    t.data()[i] = scale * static_cast<float>((i * 37) % 23 - 11);
  return t;
}

void fill_ramp(nn::Module& m, float scale) {
  for (Tensor* t : nn::checkpoint_tensors(m)) *t = ramp(t->shape(), scale);
}

std::unique_ptr<nn::Linear> golden_linear() {
  Rng rng(1);
  auto l = std::make_unique<nn::Linear>(5, 3, rng);
  fill_ramp(*l, 0.125f);
  return l;
}

// A tiny hybrid: a vanilla layer followed by a factorized one.
std::unique_ptr<nn::Sequential> golden_hybrid() {
  Rng rng(2);
  auto m = std::make_unique<nn::Sequential>();
  m->emplace<nn::Linear>(8, 6, rng);
  m->emplace<nn::LowRankLinear>(6, 4, 2, rng);
  fill_ramp(*m, 0.0625f);
  return m;
}

core::TrainState golden_state(nn::Module& model) {
  core::TrainState st;
  st.next_epoch = 3;
  st.global_step = 96;
  st.low_rank_phase = true;
  st.svd_seconds = 0.125;
  st.cumulative_seconds = 2.5;
  st.policy = core::RankPolicy::fixed(0.25).encode();
  st.rng = Rng(7).state();
  st.rng.has_cached = true;
  st.rng.cached = 0.75;
  st.worker_rngs = {Rng::stream(7, 0).state(), Rng::stream(7, 1).state()};
  st.opt_scalars = {5};
  st.opt_tensors = {ramp(Shape{3, 5}, 0.5f), ramp(Shape{3}, -0.25f)};
  st.layer_ranks = {4, 2};
  st.reducer.scalars = {1, 2};
  st.reducer.tensors = {ramp(Shape{2, 2}, 0.375f)};
  st.model_hash = core::hash_model(model);
  return st;
}

quant::DeltaModel golden_delta() {
  quant::DeltaModel d;
  quant::DeltaEntry low;
  low.lowrank = true;
  low.shape = {6, 4};
  low.u = ramp(Shape{6, 2}, 0.5f);
  low.v = ramp(Shape{4, 2}, 0.25f);
  d.entries.push_back(std::move(low));
  quant::DeltaEntry dense;
  dense.shape = {3};
  dense.dense = ramp(Shape{3}, 2.0f);
  d.entries.push_back(std::move(dense));
  return d;
}

// ---------------- golden format ----------------

TEST(CheckpointGolden, ModelCheckpointV0AndV1Bytes) {
  auto l = golden_linear();
  const std::string v0 = tmp_path("golden_v0.ckpt");
  const std::string v1 = tmp_path("golden_v1.ckpt");
  nn::save_checkpoint(*l, v0, 0);
  nn::save_checkpoint(*l, v1, 1);
  EXPECT_EQ(file_hash(v0), 0xb77f6312b09a65e2ull);
  EXPECT_EQ(file_hash(v1), 0x72fb1147dd3e8c8aull);
  for (const std::string& path : {v0, v1}) {
    Rng rng(3);
    nn::Linear back(5, 3, rng);
    nn::load_checkpoint(back, path);
    EXPECT_EQ(core::hash_model(back), core::hash_model(*l));
  }
  std::remove(v0.c_str());
  std::remove(v1.c_str());
}

TEST(CheckpointGolden, TrainStateV2Bytes) {
  auto l = golden_linear();
  const std::string path = tmp_path("golden_state.ckpt");
  core::save_train_state(golden_state(*l), path);
  EXPECT_EQ(core::hash_model(*l), 0xb1708ac81d82ac5aull);
  EXPECT_EQ(file_hash(path), 0x5682f0205d0fc2d7ull);
  const core::TrainState back = core::load_train_state(path);
  EXPECT_EQ(back.global_step, 96);
  EXPECT_EQ(back.worker_rngs.size(), 2u);
  EXPECT_EQ(back.opt_tensors.size(), 2u);
  EXPECT_EQ(back.layer_ranks, (std::vector<int64_t>{4, 2}));
  EXPECT_EQ(back.reducer.tensors.size(), 1u);
  EXPECT_EQ(back.model_hash, core::hash_model(*l));
  std::remove(path.c_str());
}

TEST(CheckpointGolden, QuantizedArtifactBytes) {
  auto m = golden_hybrid();
  quant::QuantSpec spec;
  spec.min_numel = 1;
  ASSERT_GT(quant::quantize_module(*m, spec), 0);
  const std::string path = tmp_path("golden_quant.ckpt");
  quant::save_quantized(*m, path);
  EXPECT_EQ(file_hash(path), 0x3560b9fbf11de3baull);
  auto back = golden_hybrid();
  quant::load_quantized(*back, path);
  EXPECT_EQ(quant::quantized_bytes(*back), quant::quantized_bytes(*m));
  std::remove(path.c_str());
}

TEST(CheckpointGolden, DeltaArtifactBytes) {
  const std::string path = tmp_path("golden_delta.ckpt");
  quant::save_delta(golden_delta(), path);
  EXPECT_EQ(file_hash(path), 0xd21b99b0735ebe61ull);
  const quant::DeltaModel back = quant::load_delta(path);
  EXPECT_EQ(back.bytes(), golden_delta().bytes());
  EXPECT_EQ(back.lowrank_entries(), 1);
  std::remove(path.c_str());
}

// ---------------- shared by the hostile and fuzz tests ----------------

enum class Kind { kModel, kState, kQuantized, kDelta };

void load_as(Kind kind, const std::string& path) {
  switch (kind) {
    case Kind::kModel:
      nn::load_checkpoint(*golden_linear(), path);
      break;
    case Kind::kState:
      (void)core::load_train_state(path);
      break;
    case Kind::kQuantized:
      quant::load_quantized(*golden_hybrid(), path);
      break;
    case Kind::kDelta:
      (void)quant::load_delta(path);
      break;
  }
}

constexpr uint64_t kTrainStateMagicV1 = 0x5055464654535431ull;
constexpr uint64_t kTrainStateMagicV2 = 0x5055464654535432ull;

// Raw little-endian file bytes, for headers no writer would produce.
struct Bytes {
  std::vector<char> b;
  Bytes& u8(uint8_t v) {
    b.push_back(static_cast<char>(v));
    return *this;
  }
  Bytes& u64(uint64_t v) {
    const char* p = reinterpret_cast<const char*>(&v);
    b.insert(b.end(), p, p + sizeof(v));
    return *this;
  }
  Bytes& words(size_t n, uint64_t v = 0) {
    for (size_t i = 0; i < n; ++i) u64(v);
    return *this;
  }
};

// Rewrites the checksum at `at` and the length after it so they match the
// payload that follows: a mutation then reaches the payload decoder
// instead of stopping at the checksum.
void reseal(std::vector<char>& b, size_t at) {
  const size_t payload = at + 2 * sizeof(uint64_t);
  const uint64_t header[2] = {nn::fnv1a(b.data() + payload, b.size() - payload),
                              b.size() - payload};
  std::memcpy(b.data() + at, header, sizeof(header));
}

// ---------------- hostile headers ----------------

struct HostileCase {
  const char* name;
  Kind kind;
  const char* field;  // what the error must name besides the path
  std::vector<char> (*bytes)();
};

void PrintTo(const HostileCase& c, std::ostream* os) { *os << c.name; }

constexpr size_t kQckptChecksumAt = 8 + 2;  // magic | version | kind

std::vector<char> delta_file(Bytes payload) {
  Bytes b;
  b.u64(quant::kQCheckpointMagic)
      .u8(quant::kQCheckpointVersion)
      .u8(quant::kArtifactDelta)
      .words(2);
  b.b.insert(b.b.end(), payload.b.begin(), payload.b.end());
  reseal(b.b, kQckptChecksumAt);
  return b.b;
}

const HostileCase kHostileCases[] = {
    {"v1_payload_1TiB", Kind::kModel, "payload length",
     [] {
       return Bytes{}
           .u64(nn::kCheckpointMagicV1)
           .u8(nn::kCheckpointVersion)
           .u64(0)
           .u64(1ull << 40)
           .b;
     }},
    {"v0_rank_2e61", Kind::kModel, "tensor shape",
     [] { return Bytes{}.u64(nn::kCheckpointMagicV0).u64(2).u64(1ull << 61).b; }},
    {"state_payload_1TiB", Kind::kState, "payload length",
     [] { return Bytes{}.u64(kTrainStateMagicV2).u64(0).u64(1ull << 40).b; }},
    {"state_workers_2e60", Kind::kState, "worker_rngs",
     [] {
       // epoch, step, phase, 2 f64, 4 policy words, model hash, 6 rng words
       Bytes b;
       b.u64(kTrainStateMagicV2).words(2).words(5 + 4 + 1 + 6).u64(1ull << 60);
       reseal(b.b, 8);
       return b.b;
     }},
    {"qckpt_payload_1TiB", Kind::kQuantized, "payload length",
     [] {
       return Bytes{}
           .u64(quant::kQCheckpointMagic)
           .u8(quant::kQCheckpointVersion)
           .u8(quant::kArtifactQuantized)
           .u64(0)
           .u64(1ull << 40)
           .b;
     }},
    {"delta_dense_2e20x2e20", Kind::kDelta, "delta dense",
     [] {
       return delta_file(Bytes{}.u64(1).u8(0).u64(2).u64(1ull << 20).u64(
           1ull << 20));
     }},
    {"delta_count_2e59", Kind::kDelta, "delta entries",
     [] { return delta_file(Bytes{}.u64(1ull << 59)); }},
};

class CheckpointHostile : public ::testing::TestWithParam<HostileCase> {};

TEST_P(CheckpointHostile, ThrowsTypedErrorNamingPathAndField) {
  const HostileCase& c = GetParam();
  const std::string path = tmp_path(std::string("hostile_") + c.name);
  write_file(path, c.bytes());
  try {
    load_as(c.kind, path);
    ADD_FAILURE() << "hostile file loaded";
  } catch (const nn::CheckpointError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(c.field), std::string::npos) << what;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "escaped as an untyped error: " << e.what();
  }
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(
    CheckpointHostileFiles, CheckpointHostile,
    ::testing::ValuesIn(kHostileCases),
    [](const ::testing::TestParamInfo<HostileCase>& info) {
      return std::string(info.param.name);
    });

// ---------------- mismatched architecture: all or nothing ----------------
//
// A file from a model that differs only in its last layer (100 classes vs
// 10, scaled down) fails at its last entries. The loaders check every entry
// before writing any, so the target model is exactly as it was.

std::unique_ptr<nn::Sequential> classifier(int64_t classes, float scale) {
  Rng rng(3);
  auto m = std::make_unique<nn::Sequential>();
  m->emplace<nn::Linear>(8, 6, rng);
  m->emplace<nn::LowRankLinear>(6, 4, 2, rng);
  m->emplace<nn::Linear>(4, classes, rng);
  fill_ramp(*m, scale);
  return m;
}

void expect_mismatch_leaves_model(nn::Module& target, const std::string& path,
                                  void (*load)(nn::Module&,
                                               const std::string&)) {
  const uint64_t before = core::hash_model(target);
  try {
    load(target, path);
    ADD_FAILURE() << "mismatched file loaded";
  } catch (const nn::CheckpointError& e) {
    EXPECT_NE(std::string(e.what()).find("tensor shape"), std::string::npos)
        << e.what();
  }
  EXPECT_EQ(core::hash_model(target), before);
}

TEST(CheckpointHostileMismatch, ModelLoadIsAllOrNothing) {
  const std::string path = tmp_path("mismatch_model.ckpt");
  nn::save_checkpoint(*classifier(10, 0.5f), path);
  auto target = classifier(3, 0.0625f);
  expect_mismatch_leaves_model(*target, path, nn::load_checkpoint);
  std::remove(path.c_str());
}

TEST(CheckpointHostileMismatch, QuantizedLoadIsAllOrNothing) {
  const std::string path = tmp_path("mismatch_quant.ckpt");
  auto source = classifier(10, 0.5f);
  quant::QuantSpec spec;
  spec.min_numel = 1;
  ASSERT_GT(quant::quantize_module(*source, spec), 0);
  quant::save_quantized(*source, path);
  auto target = classifier(3, 0.0625f);
  expect_mismatch_leaves_model(*target, path, quant::load_quantized);
  EXPECT_EQ(quant::quantized_bytes(*target), 0);  // no slot was filled
  std::remove(path.c_str());
}

// ---------------- seeded mutation fuzzing ----------------

struct Artifact {
  const char* name;
  Kind kind;
  int checksum_at;  // offset of the checksum word; -1 = unchecksummed v0
  std::vector<char> bytes;
};

// One small artifact of every kind, produced by the real writers (the
// legacy PUFFTST1 layout by hand over ByteWriter).
std::vector<Artifact> fuzz_artifacts() {
  const std::string path = tmp_path("fuzz_seed.ckpt");
  std::vector<Artifact> out;
  auto add = [&](const char* name, Kind kind, int checksum_at) {
    out.push_back({name, kind, checksum_at, read_file(path)});
  };
  auto l = golden_linear();
  nn::save_checkpoint(*l, path, 0);
  add("v0", Kind::kModel, -1);
  nn::save_checkpoint(*l, path, 1);
  add("v1", Kind::kModel, 8 + 1);
  {
    nn::ByteWriter w(nn::Frame{kTrainStateMagicV1});
    for (uint64_t v : {2, 9, 0}) w.u64(v);
    w.f64(0.5);
    w.f64(1.5);
    const std::array<uint64_t, 4> policy =
        core::RankPolicy::fixed(0.25).encode();
    for (size_t i = 0; i < 3; ++i) w.u64(policy[i]);  // v1: 3 words only
    w.u64(0);  // model hash
    for (uint64_t v : Rng(4).state().s) w.u64(v);
    w.u64(0);
    w.f64(0.0);
    w.u64(1);  // worker rngs
    for (int i = 0; i < 6; ++i) w.u64(static_cast<uint64_t>(i));
    w.u64(1);  // opt scalars
    w.u64(3);
    w.u64(1);  // opt tensors
    w.tensor(ramp(Shape{2, 2}, 0.5f));
    w.save(path);
  }
  add("PUFFTST1", Kind::kState, 8);
  core::save_train_state(golden_state(*l), path);
  add("PUFFTST2", Kind::kState, 8);
  auto h = golden_hybrid();
  quant::QuantSpec spec;
  spec.min_numel = 1;
  quant::quantize_module(*h, spec);
  quant::save_quantized(*h, path);
  add("PUFFCKP3_quantized", Kind::kQuantized, kQckptChecksumAt);
  quant::save_delta(golden_delta(), path);
  add("PUFFCKP3_delta", Kind::kDelta, kQckptChecksumAt);
  std::remove(path.c_str());
  return out;
}

TEST(CheckpointFuzz, SeedArtifactsLoad) {
  const std::string path = tmp_path("fuzz_clean.ckpt");
  for (const Artifact& a : fuzz_artifacts()) {
    write_file(path, a.bytes);
    EXPECT_NO_THROW(load_as(a.kind, path)) << a.name;
  }
  std::remove(path.c_str());
}

TEST(CheckpointFuzz, MutationsLoadOrThrowCheckpointError) {
  const std::string path = tmp_path("fuzz_mutant.ckpt");
  std::mt19937_64 gen(20210401);
  int failures = 0;
  int64_t probes = 0, rejected = 0;
  for (const Artifact& a : fuzz_artifacts()) {
    // A changed checksummed file must be refused; a resealed or v0 mutant
    // may legitimately load (it is a well-formed artifact).
    auto probe = [&](const std::vector<char>& m, bool must_reject,
                     const std::string& how) {
      write_file(path, m);
      ++probes;
      std::string error;
      try {
        load_as(a.kind, path);
        if (must_reject) error = "loaded";
      } catch (const nn::CheckpointError& e) {
        ++rejected;
        if (std::string(e.what()).find(path) == std::string::npos)
          error = std::string("error misses the path: ") + e.what();
      } catch (const std::exception& e) {
        error = std::string("untyped error: ") + e.what();
      }
      if (!error.empty() && ++failures <= 10)
        ADD_FAILURE() << a.name << " " << how << ": " << error;
    };
    auto check = [&](std::vector<char> m, const std::string& how) {
      const bool checksummed = a.checksum_at >= 0;
      probe(m, checksummed && m != a.bytes, how);
      const size_t at = static_cast<size_t>(a.checksum_at);
      if (checksummed && m.size() >= at + 2 * sizeof(uint64_t)) {
        reseal(m, at);
        probe(m, false, how + " resealed");
      }
    };
    const size_t n = a.bytes.size();
    for (size_t i = 0; i < n; ++i) {
      std::vector<char> m = a.bytes;
      m[i] = static_cast<char>(m[i] ^ static_cast<char>(1 + gen() % 255));
      check(m, "flip@" + std::to_string(i));
    }
    for (int k = 0; k < 64; ++k) {
      std::vector<char> m = a.bytes;
      for (uint64_t j = 2 + gen() % 3; j > 0; --j)
        m[gen() % n] = static_cast<char>(gen());
      check(m, "multiflip#" + std::to_string(k));
    }
    for (size_t len = 0; len < n; ++len)
      check(std::vector<char>(a.bytes.begin(), a.bytes.begin() + len),
            "truncate@" + std::to_string(len));
    // Every u64 length, count, rank and dim sits at some byte offset;
    // rewriting at every offset covers them all without a format map.
    for (size_t off = 0; off + sizeof(uint64_t) <= n; ++off)
      for (uint64_t v : {0ull, 1ull << 31, 1ull << 40, 1ull << 61, ~0ull}) {
        std::vector<char> m = a.bytes;
        std::memcpy(m.data() + off, &v, sizeof(v));
        check(m, "u64@" + std::to_string(off) + "=" + std::to_string(v));
      }
  }
  std::remove(path.c_str());
  EXPECT_EQ(failures, 0) << "of " << probes << " probes";
  EXPECT_GT(rejected, probes / 2);  // the mutants really are hostile
}

}  // namespace
}  // namespace pf
