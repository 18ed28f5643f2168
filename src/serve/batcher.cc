#include "serve/batcher.h"

namespace pf::serve {

RequestPtr make_request(uint64_t id, Tensor input) {
  auto r = std::make_shared<Request>();
  r->id = id;
  r->input = std::move(input);
  return r;
}

RequestPtr make_request(uint64_t id, std::vector<int64_t> tokens) {
  auto r = std::make_shared<Request>();
  r->id = id;
  r->tokens = std::move(tokens);
  return r;
}

}  // namespace pf::serve
