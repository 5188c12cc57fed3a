#include "serve/breaker.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/metrics.hpp"

namespace gddr::serve {

namespace {
// Backoff growth factor per failed probe, and its ceiling.
constexpr double kBackoffMultiplier = 2.0;
constexpr std::chrono::microseconds kMaxBackoff{5'000'000};
// A half-open probe that has not reported a verdict within this window
// is presumed dead: the next admission attempt re-opens the breaker
// (with grown backoff) instead of waiting forever.
constexpr std::chrono::microseconds kProbeTimeout{1'000'000};
}  // namespace

const char* to_string(BreakerState state) {
  switch (state) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

void CircuitBreaker::Probe::succeed(Clock::time_point now) {
  if (breaker_ == nullptr) return;
  breaker_->report(generation_, true, now);
  breaker_ = nullptr;
}

void CircuitBreaker::Probe::fail(Clock::time_point now) {
  if (breaker_ == nullptr) return;
  breaker_->report(generation_, false, now);
  breaker_ = nullptr;
}

void CircuitBreaker::Probe::resolve_as_abandoned() {
  if (breaker_ == nullptr) return;
  // The request died between admission and verdict.  The admission
  // timestamp is the only time this token holds (destructors take no
  // clock argument, and reading the real clock here would break
  // sleep-free test schedules), and a failure's exact timestamp only
  // seeds the backoff window — conservative is fine.
  breaker_->report(generation_, false, admitted_);
  breaker_ = nullptr;
}

CircuitBreaker::CircuitBreaker(const CircuitBreakerConfig& config)
    : config_(config), backoff_(config.initial_backoff) {
  if (config.failure_threshold <= 0) {
    throw std::invalid_argument("CircuitBreaker: non-positive threshold");
  }
  if (config.initial_backoff.count() <= 0 ||
      config.initial_backoff > kMaxBackoff) {
    throw std::invalid_argument("CircuitBreaker: bad backoff configuration");
  }
}

CircuitBreaker::Probe CircuitBreaker::admit(Clock::time_point now) {
  const util::MutexLock lock(mu_);
  if (state() == BreakerState::kHalfOpen) {
    expire_dead_probe_locked(now);
  }
  switch (state()) {
    case BreakerState::kClosed:
      return Probe(this, generation_, now);
    case BreakerState::kOpen:
      if (now < open_until_) return Probe{};
      ++generation_;
      state_.store(static_cast<int>(BreakerState::kHalfOpen),
                   std::memory_order_release);
      ++stats_.probes;
      // Transition counters are exported here, at the single point of
      // truth, because the breaker is shared across serving workers —
      // per-worker before/after stat diffing would double-count.
      obs::count("serve/breaker/probe");
      probe_deadline_ = now + kProbeTimeout;
      return Probe(this, generation_, now);
    case BreakerState::kHalfOpen:
      // A live probe is still in flight between admit() and its verdict.
      return Probe{};
  }
  return Probe{};
}

void CircuitBreaker::report(std::uint64_t generation, bool success,
                            Clock::time_point now) {
  const util::MutexLock lock(mu_);
  if (generation != generation_) {
    // A verdict from before the last transition: a pre-trip request
    // finishing late, or a timed-out probe finally reporting.  Acting on
    // it would let a dead era flip the breaker, so it is dropped.
    return;
  }
  if (success) {
    if (state() == BreakerState::kHalfOpen) {
      ++stats_.recoveries;
      obs::count("serve/breaker/recovery");
      ++generation_;
    }
    state_.store(static_cast<int>(BreakerState::kClosed),
                 std::memory_order_release);
    stats_.consecutive_failures = 0;
    backoff_ = config_.initial_backoff;
    return;
  }
  if (state() == BreakerState::kHalfOpen) {
    ++stats_.reopens;
    obs::count("serve/breaker/reopen");
    // The probe failed: back off harder before the next one.
    grow_backoff_locked();
    open_locked(now);
    return;
  }
  ++stats_.consecutive_failures;
  if (state() == BreakerState::kClosed &&
      stats_.consecutive_failures >= config_.failure_threshold) {
    ++stats_.trips;
    obs::count("serve/breaker/trip");
    open_locked(now);
  }
}

void CircuitBreaker::open_locked(Clock::time_point now) {
  ++generation_;
  state_.store(static_cast<int>(BreakerState::kOpen),
               std::memory_order_release);
  open_until_ = now + backoff_;
}

void CircuitBreaker::expire_dead_probe_locked(Clock::time_point now) {
  if (now < probe_deadline_) return;
  // The admitted probe never reported: presume it dead so the breaker
  // cannot wedge half-open.  Its late verdict (if any) is now stale.
  ++stats_.probe_timeouts;
  ++stats_.reopens;
  obs::count("serve/breaker/probe_timeout");
  obs::count("serve/breaker/reopen");
  grow_backoff_locked();
  open_locked(now);
}

void CircuitBreaker::grow_backoff_locked() {
  const auto grown = std::chrono::microseconds(static_cast<long long>(
      static_cast<double>(backoff_.count()) * kBackoffMultiplier));
  backoff_ = std::min(grown, kMaxBackoff);
}

}  // namespace gddr::serve
