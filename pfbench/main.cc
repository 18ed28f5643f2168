// pfbench: the repository benchmark program.
//
//   pfbench --workload <train-rn18|train-dp4|serve-fleet> --seed <n>
//           --seconds <s> --trace <0|1> --workdir <dir>
//
// Every run builds the same world (set-up is repeated three times and its
// median reported as setup_s), then runs all three stages so that every
// end-to-end metric is reported by every workload. The workload decides
// where the load goes: its own stage gets the largest share of the measured
// time (see kShares). --trace 1 swaps the end-to-end measurement for the
// per-layer one (calls into each module timed from this package) plus
// standalone layer probes. The last stdout line is the JSON result.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.h"
#include "kernels/kernels.h"
#include "stages.h"

namespace {

const char* const kWorkloads[] = {"train-rn18", "train-dp4", "serve-fleet"};
// Share of the measured time per stage (train, dp, serve), by workload. A
// workload's own stage gets 0.4 and each guest stage 0.3: every metric is
// gated on every workload, and a guest stage with less time left too few
// samples to hold its bound against host noise.
constexpr double kShares[3][3] = {
    {0.4, 0.3, 0.3}, {0.3, 0.4, 0.3}, {0.3, 0.3, 0.4}};
constexpr int kSetupReps = 3;

struct Options {
  std::string workload, workdir = ".bench_build/pfbench-run";
  uint64_t seed = 0;
  double seconds = 0;
  int trace = -1;
};

bool parse(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    char* end = nullptr;
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), &end, 10);
      if (*end) return false;
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), &end);
      if (*end) return false;
    } else if (k == "--trace") {
      if (v != "0" && v != "1") return false;
      o->trace = v == "1";
    } else if (k == "--workdir") {
      o->workdir = v;
    } else {
      return false;
    }
  }
  bool known = false;
  for (const char* w : kWorkloads) known = known || o->workload == w;
  return argc % 2 == 1 && known && o->seconds > 0 && o->trace >= 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pfbench;
  Options o;
  if (!parse(argc, argv, &o)) {
    std::fprintf(stderr,
                 "usage: pfbench --workload <train-rn18|train-dp4|serve-fleet> "
                 "--seed <n> --seconds <s> --trace <0|1> [--workdir <dir>]\n");
    return 2;
  }
  try {
    std::vector<double> setup_s;
    std::unique_ptr<World> world;
    for (int i = 0; i < kSetupReps; ++i) {
      world.reset();
      const auto t0 = Clock::now();
      world = setup_world(o.seed, o.workdir);
      setup_s.push_back(seconds_since(t0));
    }

    const bool traced = o.trace == 1;
    int wl = 0;
    while (o.workload != kWorkloads[wl]) ++wl;
    const double* weight = kShares[wl];
    std::unique_ptr<Stage> stages[3] = {
        make_train_stage(*world, traced),
        make_dp_stage(*world, traced),
        make_serve_stage(*world, o.seconds * weight[2], traced),
    };
    // Interleave the stages' units, each time running the stage furthest
    // below its share, until the time is spent and every stage has enough
    // units. A unit that would overrun the time is not started.
    Report rep;
    double spent[3] = {0, 0, 0}, last[3] = {0, 0, 0};
    int units[3] = {0, 0, 0};
    const auto t0 = Clock::now();
    for (;;) {
      int pick = -1;
      bool mins_met = true;
      for (int i = 0; i < 3; ++i) {
        if (stages[i]->finished()) continue;
        mins_met = mins_met && units[i] >= stages[i]->min_units();
        if (pick < 0 || spent[i] / weight[i] < spent[pick] / weight[pick]) pick = i;
      }
      if (pick < 0) break;
      if (mins_met && seconds_since(t0) + last[pick] > o.seconds) break;
      const auto tu = Clock::now();
      stages[pick]->unit();
      last[pick] = seconds_since(tu);
      spent[pick] += last[pick];
      ++units[pick];
    }
    for (auto& st : stages) st->report(rep);
    if (traced)
      layer_probes(*world, rep);
    else
      rep.metric("setup_s", median(setup_s), "s");

    std::map<std::string, std::string> host = host_record();
    host["kernels_backend"] = pf::kernels::backend_name();
    const char* env_threads = std::getenv("PF_THREADS");
    host["PF_THREADS"] = env_threads ? env_threads : "unset";
    host["stage_threads"] = "train-rn18=1,train-dp4=4x1,serve-fleet=2";
    host["workload"] = o.workload;
    host["seed"] = std::to_string(o.seed);
    host["seconds"] = std::to_string(o.seconds);
    host["trace"] = std::to_string(o.trace);
    rep.print(host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "pfbench: %s\n", e.what());
    return 1;
  }
  return 0;
}
