// Serving request and per-model flush configuration.
//
// Pufferfish's serving win is a *compute* win, and compute on a CPU (or any
// accelerator) is only cheap in batches -- a server that forwards every
// request alone leaves most of the factorized model's speedup on the table.
// BatcherConfig states the standard dynamic-batching contract that
// serve::Fleet enforces per model:
//
//  * flush on FULLNESS: as soon as max_batch requests are queued, a worker
//    gets a full batch immediately;
//  * flush on DEADLINE: otherwise the batch closes when the *oldest* queued
//    request has waited deadline_ms, so one straggler request never waits
//    more than the configured bound for peers that may never arrive
//    (deadline_ms = 0 degenerates to greedy "take whatever is there");
//  * BACKPRESSURE: the queue depth is bounded; submissions beyond max_depth
//    are rejected at admission (load shedding) instead of growing an
//    unbounded queue whose tail latency is unbounded too.
#pragma once

#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "tensor/tensor.h"

namespace pf::serve {

// One inference request. Exactly one of `input` (vision engines: one sample,
// e.g. (C, H, W)) or `tokens` (LM engines: a fixed-length prefix) is set.
// The fleet writes `output` (the logits row for this request) and then
// fulfils `done`; clients wait on the future and read `output`.
struct Request {
  uint64_t id = 0;
  Tensor input;
  std::vector<int64_t> tokens;
  // Retry generation (0 = first try). A retried request is a *fresh*
  // Request object -- std::promise is single-use -- carrying the same id
  // with attempt+1; fault injection draws a fresh coin per attempt.
  int attempt = 0;

  Tensor output;
  // Set by the fleet when an injected fault dropped this request instead
  // of serving it; `done` is still fulfilled so clients never hang. Check
  // after waiting (see submit_with_retry in serve/fleet.h).
  bool failed = false;
  std::promise<void> done;
  std::chrono::steady_clock::time_point t_submit{};
};
using RequestPtr = std::shared_ptr<Request>;

RequestPtr make_request(uint64_t id, Tensor input);
RequestPtr make_request(uint64_t id, std::vector<int64_t> tokens);

struct BatcherConfig {
  int64_t max_batch = 8;    // flush as soon as this many are queued
  double deadline_ms = 2.0; // max time the oldest request waits for peers
  int64_t max_depth = 256;  // admission bound; submissions beyond it reject
};

}  // namespace pf::serve
