#include "core/checkpoint.h"

#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <utility>

#include "nn/serialize.h"
#include "trace/trace.h"

namespace pf::core {

namespace {

// Frames of TrainState files: v1 ("PUFFTST1", 3-word policy, no
// layer_ranks / reducer state) is read-only legacy; v2 ("PUFFTST2") is
// what save_train_state writes.
constexpr nn::Frame kTrainStateV1{0x5055464654535431ull};
constexpr nn::Frame kTrainStateV2{0x5055464654535432ull};

constexpr size_t kRngBytes = 6 * sizeof(uint64_t);

void put_rng(nn::ByteWriter& w, const Rng::State& st) {
  for (uint64_t s : st.s) w.u64(s);
  w.u64(st.has_cached ? 1 : 0);
  w.f64(st.cached);
}

Rng::State read_rng(nn::ByteReader& r) {
  Rng::State st;
  for (uint64_t& s : st.s) s = r.u64("rng state");
  st.has_cached = r.u64("rng state") != 0;
  st.cached = r.f64("rng state");
  return st;
}

void put_ints(nn::ByteWriter& w, const std::vector<int64_t>& v) {
  w.u64(v.size());
  for (int64_t x : v) w.u64(static_cast<uint64_t>(x));
}

std::vector<int64_t> read_ints(nn::ByteReader& r, const char* field) {
  std::vector<int64_t> v(r.count(field, sizeof(uint64_t)));
  for (int64_t& x : v) x = static_cast<int64_t>(r.u64(field));
  return v;
}

void put_tensors(nn::ByteWriter& w, const std::vector<Tensor>& ts) {
  w.u64(ts.size());
  for (const Tensor& t : ts) w.tensor(t);
}

// No reserve(): each tensor is read (and bounds-checked) before it is kept.
std::vector<Tensor> read_tensors(nn::ByteReader& r, const char* field) {
  std::vector<Tensor> ts;
  for (size_t n = r.count(field, sizeof(uint64_t)); n > 0; --n)
    ts.push_back(r.tensor(field));
  return ts;
}

}  // namespace

uint64_t hash_model(nn::Module& model) {
  // Chain FNV over each tensor's bytes; seeding with the running hash keeps
  // tensor boundaries significant.
  uint64_t h = 0xCBF29CE484222325ull;
  for (const Tensor* t : nn::checkpoint_tensors(model)) {
    h ^= nn::fnv1a(reinterpret_cast<const char*>(t->data()),
                   static_cast<size_t>(t->numel()) * sizeof(float));
    h *= 0x100000001B3ull;
  }
  return h;
}

void capture_optimizer(optim::Optimizer& opt, TrainState& st) {
  st.opt_scalars = opt.state_scalars();
  st.opt_tensors.clear();
  for (Tensor* t : opt.state_tensors()) {
    // Deep copy: the optimizer keeps mutating its buffers after the
    // snapshot is taken.
    Tensor copy = Tensor::uninit(t->shape());
    std::memcpy(copy.data(), std::as_const(*t).data(),
                static_cast<size_t>(t->numel()) * sizeof(float));
    st.opt_tensors.push_back(std::move(copy));
  }
}

void restore_optimizer(optim::Optimizer& opt, const TrainState& st) {
  std::vector<Tensor*> slots = opt.state_tensors();
  if (slots.size() != st.opt_tensors.size())
    throw std::runtime_error(
        "train state: optimizer slot count mismatch (snapshot " +
        std::to_string(st.opt_tensors.size()) + ", optimizer " +
        std::to_string(slots.size()) + ") -- resuming with a different "
        "optimizer configuration than the one that produced the snapshot");
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i]->shape() != st.opt_tensors[i].shape())
      throw std::runtime_error("train state: optimizer slot shape mismatch");
    std::memcpy(slots[i]->data(), std::as_const(st.opt_tensors[i]).data(),
                static_cast<size_t>(slots[i]->numel()) * sizeof(float));
  }
  opt.set_state_scalars(st.opt_scalars);
}

void save_train_state(const TrainState& st, const std::string& path) {
  nn::ByteWriter w(kTrainStateV2);
  w.u64(static_cast<uint64_t>(st.next_epoch));
  w.u64(static_cast<uint64_t>(st.global_step));
  w.u64(st.low_rank_phase ? 1 : 0);
  w.f64(st.svd_seconds);
  w.f64(st.cumulative_seconds);
  for (uint64_t p : st.policy) w.u64(p);
  w.u64(st.model_hash);
  put_rng(w, st.rng);
  w.u64(st.worker_rngs.size());
  for (const Rng::State& r : st.worker_rngs) put_rng(w, r);
  put_ints(w, st.opt_scalars);
  put_tensors(w, st.opt_tensors);
  // v2 tail: moving per-layer ranks + stateful-reducer buffers.
  put_ints(w, st.layer_ranks);
  put_ints(w, st.reducer.scalars);
  put_tensors(w, st.reducer.tensors);
  w.save(path);
}

TrainState load_train_state(const std::string& path) {
  nn::ByteReader r(path);
  const bool v1 = r.frame({kTrainStateV1, kTrainStateV2}) == 0;
  TrainState st;
  st.next_epoch = static_cast<int64_t>(r.u64("next_epoch"));
  st.global_step = static_cast<int64_t>(r.u64("global_step"));
  st.low_rank_phase = r.u64("low_rank_phase") != 0;
  st.svd_seconds = r.f64("svd_seconds");
  st.cumulative_seconds = r.f64("cumulative_seconds");
  // v1 wrote 3 policy words; the 4-word layouts of the legacy kinds are
  // their 3-word layouts zero-extended, so reading 3 + leaving word 3 at 0
  // decodes identically.
  for (size_t i = 0; i < (v1 ? 3u : 4u); ++i) st.policy[i] = r.u64("policy");
  if (v1 && st.policy[0] >= 2)
    r.fail("policy", "v1 snapshot carries kind word " +
                         std::to_string(st.policy[0]) +
                         ", which no v1 writer could produce (corrupt file)");
  st.model_hash = r.u64("model_hash");
  st.rng = read_rng(r);
  st.worker_rngs.resize(r.count("worker_rngs", kRngBytes));
  for (Rng::State& w : st.worker_rngs) w = read_rng(r);
  st.opt_scalars = read_ints(r, "opt_scalars");
  st.opt_tensors = read_tensors(r, "opt_tensors");
  if (!v1) {
    st.layer_ranks = read_ints(r, "layer_ranks");
    st.reducer.scalars = read_ints(r, "reducer scalars");
    st.reducer.tensors = read_tensors(r, "reducer tensors");
  }
  return st;
}

SnapshotPaths snapshot_paths(const std::string& dir) {
  return {dir + "/model.ckpt", dir + "/state.ckpt"};
}

bool snapshot_exists(const std::string& dir) {
  const SnapshotPaths p = snapshot_paths(dir);
  return std::filesystem::exists(p.model) && std::filesystem::exists(p.state);
}

void save_snapshot(nn::Module& model, TrainState st, const std::string& dir) {
  PF_TRACE_SCOPE_C("ckpt.save", st.next_epoch);
  std::filesystem::create_directories(dir);
  const SnapshotPaths p = snapshot_paths(dir);
  st.model_hash = hash_model(model);
  nn::save_checkpoint(model, p.model);
  save_train_state(st, p.state);
}

TrainState load_snapshot(nn::Module& model, const std::string& dir) {
  PF_TRACE_SCOPE("ckpt.load");
  const SnapshotPaths p = snapshot_paths(dir);
  TrainState st = load_train_state(p.state);
  nn::load_checkpoint(model, p.model);
  if (hash_model(model) != st.model_hash)
    throw std::runtime_error(
        "train state: torn snapshot in " + dir +
        " (weights and state are from different epochs -- the writer "
        "crashed between the two files); restart from scratch or an older "
        "snapshot");
  return st;
}

}  // namespace pf::core
