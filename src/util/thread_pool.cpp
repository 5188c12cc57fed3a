#include "util/thread_pool.hpp"

#include <cstdlib>
#include <stdexcept>
#include <string>

namespace gddr::util {

ThreadPool::ThreadPool(int num_threads) {
  if (num_threads <= 1) return;  // inline pool
  workers_.reserve(static_cast<std::size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    const MutexLock lock(mutex_);
    stopping_ = true;
  }
  cv_.notify_all();
  for (auto& w : workers_) w.join();
}

std::future<void> ThreadPool::submit(std::function<void()> task) {
  tasks_submitted_.fetch_add(1, std::memory_order_relaxed);
  std::packaged_task<void()> packaged(std::move(task));
  std::future<void> future = packaged.get_future();
  if (workers_.empty()) {
    packaged();  // inline pool: run on the calling thread
    return future;
  }
  {
    const MutexLock lock(mutex_);
    queue_.push_back(std::move(packaged));
  }
  cv_.notify_one();
  return future;
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::packaged_task<void()> task;
    {
      MutexLock lock(mutex_);
      while (!wake_ready_locked()) cv_.wait(lock);
      if (queue_.empty()) return;  // stopping_ and drained
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();  // exceptions land in the associated future
  }
}

int default_worker_count() {
  if (const char* env = std::getenv("GDDR_WORKERS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<int>(parsed);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? static_cast<int>(hw) : 1;
}

int consume_workers_flag(int& argc, char** argv) {
  int workers = default_worker_count();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    std::string value;
    int consumed = 0;
    if (arg == "--workers") {
      if (i + 1 >= argc) {
        throw std::invalid_argument("--workers expects a value");
      }
      value = argv[i + 1];
      consumed = 2;
    } else if (arg.rfind("--workers=", 0) == 0) {
      value = arg.substr(10);
      consumed = 1;
    } else {
      continue;
    }
    const long parsed = std::strtol(value.c_str(), nullptr, 10);
    if (parsed <= 0) {
      throw std::invalid_argument("--workers expects a positive integer");
    }
    workers = static_cast<int>(parsed);
    for (int j = i; j + consumed < argc; ++j) argv[j] = argv[j + consumed];
    argc -= consumed;
    break;
  }
  return workers;
}

void parallel_for(ThreadPool* pool, std::size_t n,
                  const std::function<void(std::size_t)>& fn) {
  if (pool == nullptr || pool->size() <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  std::vector<std::future<void>> futures;
  futures.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    futures.push_back(pool->submit([&fn, i] { fn(i); }));
  }
  // Wait for everything before rethrowing so no task is left touching
  // caller state after parallel_for returns.
  std::exception_ptr first_error;
  for (auto& f : futures) {
    try {
      f.get();
    } catch (...) {
      if (!first_error) first_error = std::current_exception();
    }
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gddr::util
