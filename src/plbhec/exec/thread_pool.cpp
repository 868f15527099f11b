#include "plbhec/exec/thread_pool.hpp"

#include <algorithm>
#include <exception>
#include <string>

#include "plbhec/obs/counters.hpp"

namespace plbhec::exec {

namespace detail {

/// Heap-allocated unit of pool work; executed exactly once, then deleted by
/// the executing thread (or by the pool destructor if never executed).
struct TaskNode {
  std::function<void()> run;
};

StealDeque::Array::Array(std::size_t cap)
    : capacity(cap),
      slots(std::make_unique<std::atomic<TaskNode*>[]>(cap)) {}

StealDeque::StealDeque() {
  auto initial = std::make_unique<Array>(64);
  array_.store(initial.get(), std::memory_order_relaxed);
  retired_.push_back(std::move(initial));
}

StealDeque::~StealDeque() = default;

StealDeque::Array* StealDeque::grow(Array* old, std::int64_t top,
                                    std::int64_t bottom) {
  auto bigger = std::make_unique<Array>(old->capacity * 2);
  for (std::int64_t i = top; i < bottom; ++i) bigger->put(i, old->get(i));
  Array* raw = bigger.get();
  array_.store(raw, std::memory_order_release);
  retired_.push_back(std::move(bigger));  // old arrays stay alive for thieves
  return raw;
}

void StealDeque::push(TaskNode* task) {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed);
  const std::int64_t t = top_.load(std::memory_order_acquire);
  Array* a = array_.load(std::memory_order_relaxed);
  if (b - t > static_cast<std::int64_t>(a->capacity) - 1) a = grow(a, t, b);
  a->put(b, task);
  // Publishes the slot to thieves, whose acquire load of bottom_ pairs with
  // this store. A release store rather than a standalone release fence: the
  // same instructions on x86-64, and ThreadSanitizer models it.
  bottom_.store(b + 1, std::memory_order_release);
}

TaskNode* StealDeque::pop() {
  const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
  Array* a = array_.load(std::memory_order_relaxed);
  bottom_.store(b, std::memory_order_relaxed);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  std::int64_t t = top_.load(std::memory_order_relaxed);
  TaskNode* task = nullptr;
  if (t <= b) {
    task = a->get(b);
    if (t == b) {
      // Last element: race the thieves for it.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed))
        task = nullptr;
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
  } else {
    bottom_.store(b + 1, std::memory_order_relaxed);
  }
  return task;
}

TaskNode* StealDeque::steal() {
  std::int64_t t = top_.load(std::memory_order_acquire);
  std::atomic_thread_fence(std::memory_order_seq_cst);
  const std::int64_t b = bottom_.load(std::memory_order_acquire);
  if (t >= b) return nullptr;
  Array* a = array_.load(std::memory_order_acquire);
  TaskNode* task = a->get(t);
  if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                    std::memory_order_relaxed))
    return nullptr;  // lost the race to the owner or another thief
  return task;
}

namespace {

/// Set while a thread is a pool worker, so enqueue() can use its own deque.
struct WorkerIdentity {
  ThreadPool* pool = nullptr;
  std::size_t index = 0;
};
thread_local WorkerIdentity tls_worker;

}  // namespace

}  // namespace detail

ThreadPool::ThreadPool(unsigned workers) {
  deques_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    deques_.push_back(std::make_unique<detail::StealDeque>());
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i)
    threads_.emplace_back([this, i] { worker_loop(i); });
}

ThreadPool::~ThreadPool() {
  stop_.store(true, std::memory_order_release);
  {
    std::lock_guard lock(sleep_mutex_);
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
  // Drop never-executed tasks (fire-and-forget submissions at shutdown).
  for (auto& d : deques_)
    while (detail::TaskNode* n = d->pop()) delete n;
  for (detail::TaskNode* n : inject_) delete n;
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(
      std::max(1u, std::thread::hardware_concurrency()) - 1u);
  return pool;
}

void ThreadPool::enqueue(detail::TaskNode* node) {
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  auto& id = detail::tls_worker;
  if (id.pool == this) {
    deques_[id.index]->push(node);
  } else {
    injected_.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard lock(inject_mutex_);
    inject_.push_back(node);
  }
  pending_.fetch_add(1, std::memory_order_release);
}

void ThreadPool::notify_workers(std::size_t count) {
  if (threads_.empty()) return;
  {
    std::lock_guard lock(sleep_mutex_);
  }
  if (count > 1)
    sleep_cv_.notify_all();
  else
    sleep_cv_.notify_one();
}

detail::TaskNode* ThreadPool::try_acquire(std::size_t self) {
  if (detail::TaskNode* t = deques_[self]->pop()) return t;
  {
    std::lock_guard lock(inject_mutex_);
    if (!inject_.empty()) {
      detail::TaskNode* t = inject_.front();
      inject_.pop_front();
      return t;
    }
  }
  const std::size_t n = deques_.size();
  for (std::size_t sweep = 0; sweep < 2; ++sweep) {
    for (std::size_t i = 1; i < n; ++i) {
      const std::size_t victim = (self + i) % n;
      if (detail::TaskNode* t = deques_[victim]->steal()) {
        steals_.fetch_add(1, std::memory_order_relaxed);
        return t;
      }
    }
  }
  return nullptr;
}

void ThreadPool::worker_loop(std::size_t index) {
  detail::tls_worker = {this, index};
  while (true) {
    detail::TaskNode* task = try_acquire(index);
    if (task != nullptr) {
      pending_.fetch_sub(1, std::memory_order_relaxed);
      tasks_executed_.fetch_add(1, std::memory_order_relaxed);
      task->run();
      delete task;
      if (in_flight_.fetch_sub(1, std::memory_order_acq_rel) == 1) {
        std::lock_guard lock(idle_mutex_);
        idle_cv_.notify_all();
      }
      continue;
    }
    std::unique_lock lock(sleep_mutex_);
    sleep_cv_.wait(lock, [this] {
      return stop_.load(std::memory_order_acquire) ||
             pending_.load(std::memory_order_acquire) > 0;
    });
    if (stop_.load(std::memory_order_acquire) &&
        pending_.load(std::memory_order_acquire) <= 0)
      return;
  }
}

void ThreadPool::submit(std::function<void()> fn) {
  enqueue(new detail::TaskNode{std::move(fn)});
  notify_workers(1);
}

void ThreadPool::wait_idle() {
  std::unique_lock lock(idle_mutex_);
  idle_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_acquire) == 0;
  });
}

PoolStats ThreadPool::stats() const {
  PoolStats s;
  s.tasks_executed = tasks_executed_.load(std::memory_order_relaxed);
  s.steals = steals_.load(std::memory_order_relaxed);
  s.injected = injected_.load(std::memory_order_relaxed);
  s.parallel_fors = parallel_fors_.load(std::memory_order_relaxed);
  return s;
}

void ThreadPool::publish_counters(obs::CounterRegistry& registry,
                                  std::string_view prefix) const {
  const PoolStats s = stats();
  const std::string p(prefix);
  registry.set(p + "tasks_executed", s.tasks_executed);
  registry.set(p + "steals", s.steals);
  registry.set(p + "injected", s.injected);
  registry.set(p + "parallel_fors", s.parallel_fors);
}

void ThreadPool::parallel_for(
    std::size_t begin, std::size_t end, std::size_t grain,
    const std::function<void(std::size_t, std::size_t)>& body) {
  if (end <= begin) return;
  parallel_fors_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t total = end - begin;
  if (grain == 0)
    grain = std::max<std::size_t>(
        1, total / (8u * static_cast<std::size_t>(concurrency())));
  const std::size_t nchunks = (total + grain - 1) / grain;
  if (nchunks <= 1 || workers() == 0) {
    body(begin, end);
    return;
  }

  struct ForContext {
    const std::function<void(std::size_t, std::size_t)>* body = nullptr;
    std::size_t begin = 0, end = 0, grain = 0, nchunks = 0;
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::atomic<bool> cancelled{false};
    std::mutex mutex;  ///< guards eptr and the completion wait
    std::condition_variable done_cv;
    std::exception_ptr eptr;
  };
  auto ctx = std::make_shared<ForContext>();
  ctx->body = &body;
  ctx->begin = begin;
  ctx->end = end;
  ctx->grain = grain;
  ctx->nchunks = nchunks;

  auto run_chunks = [](ForContext& c) {
    for (;;) {
      const std::size_t i = c.next.fetch_add(1, std::memory_order_relaxed);
      if (i >= c.nchunks) break;
      if (!c.cancelled.load(std::memory_order_relaxed)) {
        try {
          const std::size_t lo = c.begin + i * c.grain;
          const std::size_t hi = std::min(lo + c.grain, c.end);
          (*c.body)(lo, hi);
        } catch (...) {
          c.cancelled.store(true, std::memory_order_relaxed);
          std::lock_guard lock(c.mutex);
          if (!c.eptr) c.eptr = std::current_exception();
        }
      }
      if (c.done.fetch_add(1, std::memory_order_acq_rel) + 1 == c.nchunks) {
        std::lock_guard lock(c.mutex);
        c.done_cv.notify_all();
      }
    }
  };

  // Runner tasks let idle workers join in; any runner arriving after the
  // chunk cursor is exhausted exits immediately, so leftover runners in the
  // deques are harmless (the shared_ptr keeps the context alive for them).
  const std::size_t runners =
      std::min<std::size_t>(workers(), nchunks - 1);
  for (std::size_t r = 0; r < runners; ++r)
    enqueue(new detail::TaskNode{[ctx, run_chunks] { run_chunks(*ctx); }});
  notify_workers(runners);

  run_chunks(*ctx);

  std::unique_lock lock(ctx->mutex);
  ctx->done_cv.wait(lock, [&] {
    return ctx->done.load(std::memory_order_acquire) == ctx->nchunks;
  });
  if (ctx->eptr) std::rethrow_exception(ctx->eptr);
}

}  // namespace plbhec::exec
