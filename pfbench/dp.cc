// train-dp4 stage: runtime::ShmDataParallelTrainer with 4 workers, epochs
// alternating between the hybrid on the ring path and vanilla with
// PowerSGD rank 2 on the reducer path.
#include <cmath>

#include "runtime/thread_pool.h"
#include "stages.h"
#include "trace/trace.h"

namespace pfbench {

using namespace pf;

namespace {

struct Arm {
  const char* name = "";
  runtime::ShmDataParallelTrainer* trainer = nullptr;
  int64_t bytes_expected = 0, bytes_seen = 0;
  std::vector<double> wall_s;  // breakdown.wall_s (training, no eval)
  // Traced epochs only.
  std::vector<double> compute_s, comm_s, other_s, share, call_s, untimed_s;
  std::vector<double> encode_s, decode_s;
  std::vector<double> on_wall_s, off_wall_s;
  bool bytes_ok = true, finite = true;
  int64_t epochs = 0, bad = 0;
};

class DpStage : public Stage {
 public:
  DpStage(World& w, bool traced) : w_(w), traced_(traced) {
    arms_[0].name = "hybrid";
    arms_[0].trainer = w.dp_hybrid.get();
    arms_[0].bytes_expected = 4 * w.hybrid_params;  // the whole flat gradient
    arms_[1].name = "powersgd";
    arms_[1].trainer = w.dp_powersgd.get();
    arms_[1].bytes_expected = w.powersgd_bytes_expected;
  }
  // Three epochs per arm at least, so the median is not the cold first one.
  int min_units() const override { return 3; }
  void unit() override;
  void report(Report& rep) override;

 private:
  World& w_;
  bool traced_;
  Arm arms_[2];
  int epoch_ = 0;
};

// One epoch of each arm.
void DpStage::unit() {
  runtime::set_threads(1);
  for (Arm& a : arms_) {
    // Traced runs alternate layer timing on and off per epoch pair, so the
    // difference is the tracing overhead.
    const bool on = traced_ && epoch_ % 2 == 0;
    trace::set_enabled(on);
    w_.powersgd->timing = on;
    const double enc0 = w_.powersgd->encode_s, dec0 = w_.powersgd->decode_s;
    const auto tc = Clock::now();
    const dist::DistEpochRecord r = a.trainer->train_epoch(*w_.dp_ds, epoch_);
    const double call = seconds_since(tc);
    trace::set_enabled(false);
    trace::drain();
    w_.powersgd->timing = false;
    const dist::EpochBreakdown& b = r.breakdown;
    ++a.epochs;
    if (!std::isfinite(r.train_loss)) {
      ++a.bad;
      a.finite = false;
    }
    a.bytes_seen = b.bytes_per_worker;
    a.bytes_ok = a.bytes_ok && b.bytes_per_worker == a.bytes_expected;
    a.wall_s.push_back(b.wall_s);
    if (!traced_) continue;
    (on ? a.on_wall_s : a.off_wall_s).push_back(b.wall_s);
    if (!on) continue;
    a.compute_s.push_back(b.compute_s);
    a.comm_s.push_back(b.comm_s);
    a.other_s.push_back(b.other_s);
    a.share.push_back(b.comm_s / b.wall_s);
    a.call_s.push_back(call);
    a.untimed_s.push_back(call - (b.compute_s + b.comm_s + b.encode_s + b.decode_s));
    a.encode_s.push_back(w_.powersgd->encode_s - enc0);
    a.decode_s.push_back(w_.powersgd->decode_s - dec0);
  }
  ++epoch_;
}

void DpStage::report(Report& rep) {
  const int64_t steps_per_epoch = kDpSamples / kDpGlobalBatch;
  for (Arm& a : arms_) {
    rep.check(a.finite, std::string("train-dp4 ") + a.name + ": every loss is finite");
    rep.check(a.bytes_ok, std::string("train-dp4 ") + a.name +
                              ": bytes per worker equal " +
                              std::to_string(a.bytes_expected));
    rep.ops(std::string("dp.epochs.") + a.name, a.epochs, a.bad);
    rep.ops(std::string("dp.steps.") + a.name, a.epochs * steps_per_epoch,
            a.bad * steps_per_epoch);
  }
  const double global = static_cast<double>(kDpSamples);
  if (!traced_) {
    rep.metric("dp_hybrid_samples_per_s", global / median(arms_[0].wall_s), "samples/s");
    rep.metric("dp_powersgd_samples_per_s", global / median(arms_[1].wall_s),
               "samples/s");
    return;
  }
  double call = 0, untimed = 0;
  size_t epochs = 0;
  double on_wall = 0, off_wall = 0;
  for (Arm& a : arms_) {
    const std::string n = a.name;
    rep.metric("shm.compute_s." + n, median(a.compute_s), "s");
    rep.metric("shm.comm_s." + n, median(a.comm_s), "s");
    rep.metric("shm.other_s." + n, median(a.other_s), "s");
    rep.metric("shm.comm_share." + n, median(a.share), "ratio");
    rep.metric("shm.bytes_per_worker." + n, static_cast<double>(a.bytes_seen), "B");
    for (size_t i = 0; i < a.call_s.size(); ++i) {
      call += a.call_s[i];
      untimed += a.untimed_s[i];
    }
    epochs += a.call_s.size();
    on_wall += median(a.on_wall_s);
    off_wall += median(a.off_wall_s);
  }
  rep.metric("compress.encode_s.powersgd", median(arms_[1].encode_s), "s");
  rep.metric("compress.decode_s.powersgd", median(arms_[1].decode_s), "s");
  rep.metric("coverage.dp.timed_share", 1.0 - untimed / call, "ratio");
  rep.metric("coverage.dp.untimed_s_per_epoch", untimed / static_cast<double>(epochs), "s");
  rep.metric("trace.overhead_pct.dp", 100.0 * (on_wall / off_wall - 1.0), "%");
}

}  // namespace

std::unique_ptr<Stage> make_dp_stage(World& w, bool traced) {
  return std::make_unique<DpStage>(w, traced);
}

}  // namespace pfbench
