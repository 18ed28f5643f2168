#include "runtime/thread_pool.h"

#include <charconv>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "trace/trace.h"

namespace pf::runtime {

namespace {

// Marks threads that belong to the pool (or are executing a chunk job), so
// nested parallel calls run inline instead of deadlocking on the pool.
thread_local bool tl_in_pool_job = false;

int env_default_threads() {
  const char* s = std::getenv("PF_THREADS");
  return s ? parse_threads(s, "PF_THREADS") : 1;
}

// N-1 persistent workers; the dispatching thread acts as worker 0.
class Pool {
 public:
  explicit Pool(int n) : n_(n) {
    workers_.reserve(static_cast<size_t>(n - 1));
    for (int i = 1; i < n; ++i)
      workers_.emplace_back([this, i] { worker_main(i); });
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(m_);
      stop_ = true;
    }
    cv_job_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  int size() const { return n_; }

  // Runs job(worker_id) on all n_ threads (callers thread included) and
  // returns when every worker finished. One job at a time.
  void run(const std::function<void(int)>& job) {
    {
      std::lock_guard<std::mutex> lk(m_);
      job_ = &job;
      ++generation_;
      running_ = n_ - 1;
    }
    cv_job_.notify_all();
    const bool prev = tl_in_pool_job;
    tl_in_pool_job = true;
    job(0);
    tl_in_pool_job = prev;
    std::unique_lock<std::mutex> lk(m_);
    cv_done_.wait(lk, [this] { return running_ == 0; });
    job_ = nullptr;
  }

 private:
  void worker_main(int idx) {
    tl_in_pool_job = true;
    uint64_t seen = 0;
    for (;;) {
      const std::function<void(int)>* job;
      {
        std::unique_lock<std::mutex> lk(m_);
        cv_job_.wait(lk, [&] { return stop_ || generation_ != seen; });
        if (stop_) return;
        seen = generation_;
        job = job_;
      }
      (*job)(idx);
      {
        std::lock_guard<std::mutex> lk(m_);
        if (--running_ == 0) cv_done_.notify_all();
      }
    }
  }

  const int n_;
  std::vector<std::thread> workers_;
  std::mutex m_;
  std::condition_variable cv_job_, cv_done_;
  const std::function<void(int)>* job_ = nullptr;
  uint64_t generation_ = 0;
  int running_ = 0;
  bool stop_ = false;
};

// Global pool state. `g_state_mutex` guards resizing; `g_dispatch_mutex`
// serializes dispatchers -- a contender that fails the try_lock (another
// thread mid-dispatch) just walks its chunks inline.
std::mutex g_state_mutex;
std::mutex g_dispatch_mutex;
std::unique_ptr<Pool> g_pool;
int g_threads = 0;  // 0 = not yet initialized from env

int ensure_threads_locked() {
  if (g_threads == 0) g_threads = env_default_threads();
  return g_threads;
}

}  // namespace

int parse_threads(const std::string& text, const std::string& source) {
  int n = 0;
  const char* end = text.data() + text.size();
  const auto [p, ec] = std::from_chars(text.data(), end, n);
  if (ec != std::errc() || p != end || n < 1 || n > kMaxThreads)
    throw std::invalid_argument(
        source + "='" + text + "': expected a thread count in [1, " +
        std::to_string(kMaxThreads) + "]");
  return n;
}

int threads() {
  std::lock_guard<std::mutex> lk(g_state_mutex);
  return ensure_threads_locked();
}

void set_threads(int n) {
  // Taking the dispatch mutex first guarantees no job is mid-flight on the
  // pool we are about to destroy.
  std::lock_guard<std::mutex> dlk(g_dispatch_mutex);
  std::lock_guard<std::mutex> lk(g_state_mutex);
  g_threads = n >= 1 ? n : env_default_threads();
  g_pool.reset();  // rebuilt lazily at the next dispatch
}

namespace detail {

int64_t chunk_width(int64_t grain) { return grain >= 1 ? grain : 1; }

void run_chunks(int64_t begin, int64_t end, int64_t grain,
                const std::function<void(int64_t, int64_t, int64_t)>& fn) {
  if (end <= begin) return;
  const int64_t w = chunk_width(grain);
  const int64_t n_chunks = (end - begin + w - 1) / w;

  auto serial = [&] {
    for (int64_t c = 0; c < n_chunks; ++c) {
      const int64_t b = begin + c * w;
      fn(c, b, std::min(b + w, end));
    }
  };

  if (n_chunks == 1 || tl_in_pool_job) {
    serial();
    return;
  }

  // Another thread is mid-dispatch (concurrent shm-cluster workers): run
  // inline rather than queueing -- same chunks, same order, same result.
  // Acquiring the dispatch lock before touching the pool also keeps the
  // pool alive against a concurrent set_threads().
  if (!g_dispatch_mutex.try_lock()) {
    serial();
    return;
  }
  Pool* pool = nullptr;
  {
    std::lock_guard<std::mutex> lk(g_state_mutex);
    const int n = ensure_threads_locked();
    if (n > 1) {
      if (!g_pool || g_pool->size() != n) g_pool = std::make_unique<Pool>(n);
      pool = g_pool.get();
    }
  }
  if (!pool) {
    g_dispatch_mutex.unlock();
    serial();
    return;
  }
  const int n_workers = pool->size();
  {
    PF_TRACE_SCOPE_C("pool.dispatch", n_chunks);
    pool->run([&](int worker) {
      PF_TRACE_SCOPE_C("pool.worker", worker);
      // Static round-robin assignment: worker t owns chunks t, t+T, t+2T, ...
      for (int64_t c = worker; c < n_chunks; c += n_workers) {
        const int64_t b = begin + c * w;
        fn(c, b, std::min(b + w, end));
      }
    });
  }
  g_dispatch_mutex.unlock();
}

}  // namespace detail

}  // namespace pf::runtime
