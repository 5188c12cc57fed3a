// Open-loop request generation with due-time latency accounting.
//
// An open loop sends each request at its scheduled time whether or not
// earlier requests have finished, as independent users do.  Latency is
// measured from the time a request was *due*, not from when the
// generator got round to sending it, so a stall anywhere — in the
// server or in the generator itself — shows up in the latency of every
// request that fell due during it.  How late the generator sent each
// request is kept separately as generator lag, a validity check on the
// run.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common.hpp"
#include "util/rng.hpp"

namespace perfbench {

// Due offsets (ns from the start of the loop) of Poisson arrivals at
// `rate` per second over `seconds`.
std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           gddr::util::Rng& rng);

class OpenLoop {
 public:
  explicit OpenLoop(std::vector<std::int64_t> due_offsets_ns);
  OpenLoop(const OpenLoop&) = delete;
  OpenLoop& operator=(const OpenLoop&) = delete;

  std::size_t size() const { return offsets_.size(); }

  // Runs the schedule on the calling thread: waits until request i is
  // due, then calls send(i).  While the next request is more than
  // kIdleGuardNs away it calls idle(), which does one bounded piece of
  // bookkeeping and returns false when it has nothing to do.  Neither
  // send nor idle may block on the server.
  template <typename Send, typename Idle>
  void run(Send&& send, Idle&& idle) {
    start_ns_ = now_ns() + kLeadNs;
    for (std::size_t i = 0; i < offsets_.size(); ++i) {
      const std::int64_t due = start_ns_ + offsets_[i];
      while (due - now_ns() > kIdleGuardNs && idle()) {
      }
      wait_until(due);
      sent_ns_[i] = now_ns();
      send(i);
    }
  }
  template <typename Send>
  void run(Send&& send) {
    run(std::forward<Send>(send), [] { return false; });
  }

  // Marks request i complete now.  Safe from any thread, once per i.
  void complete(std::size_t i) {
    ready_ns_[i].store(now_ns(), std::memory_order_release);
  }

  bool completed(std::size_t i) const {
    return ready_ns_[i].load(std::memory_order_acquire) != 0;
  }
  std::int64_t due_ns(std::size_t i) const { return start_ns_ + offsets_[i]; }
  std::int64_t ready_ns(std::size_t i) const {
    return ready_ns_[i].load(std::memory_order_acquire);
  }
  // Due-to-ready latency of a completed request, in microseconds.
  double latency_us(std::size_t i) const {
    return static_cast<double>(ready_ns(i) - due_ns(i)) * 1e-3;
  }
  // How late the generator sent request i, in microseconds.
  double lag_us(std::size_t i) const {
    return static_cast<double>(sent_ns_[i] - due_ns(i)) * 1e-3;
  }

 private:
  // Spins until `deadline`.  A sleeping generator's wake-up on a host
  // shared with other tenants can be late by milliseconds, which would
  // be charged to every request due meanwhile; spinning keeps the
  // generator's own core awake for the length of a phase.
  static void wait_until(std::int64_t deadline);

  static constexpr std::int64_t kLeadNs = 2'000'000;
  static constexpr std::int64_t kIdleGuardNs = 300'000;

  std::vector<std::int64_t> offsets_;
  std::vector<std::int64_t> sent_ns_;
  std::unique_ptr<std::atomic<std::int64_t>[]> ready_ns_;
  std::int64_t start_ns_ = 0;
};

}  // namespace perfbench
