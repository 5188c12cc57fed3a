// Circuit breaker gating the serving ladder's learned rung.
//
// A policy that is persistently failing (NaN output, repeated deadline
// blowouts, simulation rejects) should not be paid for on every request:
// after `failure_threshold` consecutive failures the breaker trips open
// and the router skips straight to the fallback rungs.  While open, the
// breaker re-admits a single probe request after an exponentially growing
// backoff (half-open state); the probe's outcome decides between closing
// (recovery) and re-opening with a grown backoff (kBackoffMultiplier,
// capped at kMaxBackoff; both in breaker.cpp).
//
// Admission hands out an RAII Probe token rather than a bare bool: if the
// admitted request dies between admission and its verdict (an exception
// unwinding through the rung, a worker crash-path), the token's
// destructor records the failure, so a lost probe can never wedge the
// breaker half-open.  As a second belt, a half-open probe that has not
// reported within kProbeTimeout (breaker.cpp) is presumed dead on the
// next admission attempt: the breaker re-opens with a grown backoff and
// the late verdict (if it ever arrives) is discarded as stale via a
// generation counter.
//
// Time is always passed in as a steady_clock time_point so tests can
// replay exact schedules without sleeping.
//
// Thread safety: one breaker is shared by every serve::Engine worker.
// state() is a lock-free atomic read; admissions and verdicts take an
// internal mutex (they are per-request, never on a hot inner loop).
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>

#include "util/sync.hpp"

namespace gddr::serve {

struct CircuitBreakerConfig {
  // Consecutive rung-1 failures that trip the breaker open.
  int failure_threshold = 3;
  // Backoff before the first half-open probe; grows after every failed
  // probe up to kMaxBackoff (breaker.cpp), so it must be positive and at
  // most kMaxBackoff.
  std::chrono::microseconds initial_backoff{100'000};
};

enum class BreakerState { kClosed, kOpen, kHalfOpen };

const char* to_string(BreakerState state);

class CircuitBreaker {
 public:
  using Clock = std::chrono::steady_clock;

  explicit CircuitBreaker(const CircuitBreakerConfig& config);

  // RAII admission token.  Engaged (true) means the request may use the
  // guarded rung and MUST report a verdict: call succeed() or fail(), or
  // let the destructor record a failure at the admission timestamp.
  // Disengaged (false) means the rung is denied.  Move-only.
  class Probe {
   public:
    Probe() = default;
    Probe(Probe&& other) noexcept { swap(other); }
    Probe& operator=(Probe&& other) noexcept {
      if (this != &other) {
        resolve_as_abandoned();
        swap(other);
      }
      return *this;
    }
    Probe(const Probe&) = delete;
    Probe& operator=(const Probe&) = delete;
    ~Probe() { resolve_as_abandoned(); }

    explicit operator bool() const { return breaker_ != nullptr; }

    void succeed(Clock::time_point now);
    void fail(Clock::time_point now);

   private:
    friend class CircuitBreaker;
    Probe(CircuitBreaker* breaker, std::uint64_t generation,
          Clock::time_point admitted)
        : breaker_(breaker), generation_(generation), admitted_(admitted) {}

    void swap(Probe& other) noexcept {
      std::swap(breaker_, other.breaker_);
      std::swap(generation_, other.generation_);
      std::swap(admitted_, other.admitted_);
    }
    // A token destroyed without a verdict is a failed request.
    void resolve_as_abandoned();

    CircuitBreaker* breaker_ = nullptr;
    std::uint64_t generation_ = 0;
    Clock::time_point admitted_{};
  };

  // May this request use the guarded rung?  Closed: engaged token.
  // Open: engaged token once the backoff has elapsed (transitions to
  // half-open, exactly one probe).  Half-open: disengaged — unless the
  // in-flight probe is past its timeout, in which case it is presumed
  // dead and the open-state rules apply afresh.
  Probe admit(Clock::time_point now) GDDR_EXCLUDES(mu_);

  BreakerState state() const {
    return static_cast<BreakerState>(
        state_.load(std::memory_order_acquire));
  }

  struct Stats {
    long trips = 0;           // closed -> open transitions
    long probes = 0;          // half-open admissions
    long reopens = 0;         // failed probes (half-open -> open)
    long recoveries = 0;      // successful probes (half-open -> closed)
    long probe_timeouts = 0;  // probes presumed dead past kProbeTimeout
    int consecutive_failures = 0;
  };
  // Returns a copy: the breaker is shared across workers, so a reference
  // into live state would race with concurrent verdicts.
  Stats stats() const GDDR_EXCLUDES(mu_) {
    const util::MutexLock lock(mu_);
    return stats_;
  }

 private:
  // report() takes mu_ itself; the *_locked helpers require it held.
  void report(std::uint64_t generation, bool success, Clock::time_point now)
      GDDR_EXCLUDES(mu_);
  void open_locked(Clock::time_point now) GDDR_REQUIRES(mu_);
  void grow_backoff_locked() GDDR_REQUIRES(mu_);
  void expire_dead_probe_locked(Clock::time_point now) GDDR_REQUIRES(mu_);

  const CircuitBreakerConfig config_;
  mutable util::Mutex mu_{util::LockRank::kCircuitBreaker, "serve/breaker"};
  // Mirrors the mutex-guarded state for lock-free state() readers; written
  // only with mu_ held, read anywhere (hence atomic, not guarded).
  std::atomic<int> state_{static_cast<int>(BreakerState::kClosed)};
  // Bumped on every state transition; verdicts from an earlier generation
  // (pre-trip requests, timed-out probes) are discarded as stale.
  std::uint64_t generation_ GDDR_GUARDED_BY(mu_) = 0;
  std::chrono::microseconds backoff_ GDDR_GUARDED_BY(mu_);
  Clock::time_point open_until_ GDDR_GUARDED_BY(mu_) = {};
  Clock::time_point probe_deadline_ GDDR_GUARDED_BY(mu_) = {};
  Stats stats_ GDDR_GUARDED_BY(mu_);
};

}  // namespace gddr::serve
