#include "lifecycle/promoter.hpp"

#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"

namespace gddr::lifecycle {
namespace {

// Shadow win-rate a candidate needs to advance to canary.
constexpr double kMinWinRate = 0.5;
// Candidate rung-1 failures tolerated per phase (NaN/Inf output is
// always an instant rollback, independent of this budget).
constexpr long kMaxCandidateFailures = 0;

ShadowConfig shadow_config(const PromoterConfig& config) {
  ShadowConfig sc;
  sc.fraction = config.shadow_fraction;
  sc.router = config.router;
  return sc;
}

}  // namespace

const char* to_string(PromoteState state) {
  switch (state) {
    case PromoteState::kIdle:
      return "idle";
    case PromoteState::kStaged:
      return "staged";
    case PromoteState::kShadow:
      return "shadow";
    case PromoteState::kCanary:
      return "canary";
    case PromoteState::kLive:
      return "live";
    case PromoteState::kRolledBack:
      return "rolled_back";
  }
  return "?";
}

Promoter::Promoter(ModelRegistry& registry, serve::Engine& engine,
                   PromoterConfig config)
    : registry_(registry),
      engine_(engine),
      config_(config),
      shadow_(shadow_config(config)) {
  if (config_.promote_after < 1) {
    throw std::invalid_argument("Promoter: promote_after must be >= 1");
  }
  if (config_.canary_decisions < 1) {
    throw std::invalid_argument("Promoter: canary_decisions must be >= 1");
  }
}

void Promoter::stage(std::uint64_t version) {
  const util::MutexLock lock(mu_);
  if (state_ == PromoteState::kStaged || state_ == PromoteState::kShadow ||
      state_ == PromoteState::kCanary) {
    throw std::logic_error(
        "Promoter: a promotion is already in flight (state " +
        std::string(to_string(state_)) + ")");
  }
  state_ = PromoteState::kStaged;
  std::shared_ptr<const core::GnnPolicy> candidate;
  try {
    candidate = registry_.load(version);
  } catch (...) {
    // A candidate that cannot even load never reaches traffic; this is
    // not a rollback (nothing was serving), just a failed stage.
    state_ = PromoteState::kIdle;
    throw;
  }
  candidate_ = std::move(candidate);
  candidate_version_ = version;
  staged_at_ = Clock::now();
  canary_served_ = 0;
  canary_failures_ = 0;
  shadow_.arm(candidate_, version);
  state_ = PromoteState::kShadow;
}

void Promoter::observe(const serve::RouteRequest& request,
                       const serve::DecisionRecord& record) {
  const util::MutexLock lock(mu_);
  switch (state_) {
    case PromoteState::kShadow: {
      shadow_.observe(request, record);
      const ShadowStats s = shadow_.stats();
      if (s.nonfinite_outputs > 0) {
        rollback("candidate_nan");
        return;
      }
      if (s.candidate_failures > kMaxCandidateFailures) {
        rollback("shadow_candidate_failures");
        return;
      }
      if (s.mirrored >= config_.promote_after) {
        if (s.win_rate() >= kMinWinRate) {
          engine_.set_candidate(candidate_, candidate_version_,
                                config_.canary_fraction);
          state_ = PromoteState::kCanary;
        } else {
          rollback("shadow_win_rate_gate");
        }
      }
      break;
    }
    case PromoteState::kCanary: {
      if (!record.served_by_candidate ||
          record.policy_version != candidate_version_) {
        break;
      }
      if (record.nonfinite_policy_output) {
        rollback("candidate_nan");
        return;
      }
      if (record.rung != serve::Rung::kGnnPolicy) {
        if (++canary_failures_ > kMaxCandidateFailures) {
          rollback("canary_candidate_failures");
          return;
        }
      }
      ++canary_served_;
      if (canary_served_ >= config_.canary_decisions) promote();
      break;
    }
    case PromoteState::kIdle:
    case PromoteState::kStaged:
    case PromoteState::kLive:
    case PromoteState::kRolledBack:
      break;
  }
}

void Promoter::promote() {
  // Order matters for attribution: the canary is disarmed first so no
  // later batch is still marked candidate-served, then the hot swap
  // installs the candidate as live (workers adopt it at their next
  // batch boundary — zero downtime).
  engine_.clear_candidate();
  engine_.set_policy(candidate_, candidate_version_);
  shadow_.disarm();
  state_ = PromoteState::kLive;
  ++promotions_;
  obs::observe("lifecycle/promote_latency_us",
               std::chrono::duration<double, std::micro>(Clock::now() -
                                                         staged_at_)
                   .count());
}

void Promoter::rollback(const std::string& reason) {
  engine_.clear_candidate();
  shadow_.disarm();
  state_ = PromoteState::kRolledBack;
  ++rollbacks_;
  rollback_reason_ = reason;
  obs::count("lifecycle/rollbacks");
}

PromoteState Promoter::state() const {
  const util::MutexLock lock(mu_);
  return state_;
}

Promoter::Summary Promoter::summary() const {
  const util::MutexLock lock(mu_);
  Summary out;
  out.state = state_;
  out.candidate_version = candidate_version_;
  out.promotions = promotions_;
  out.rollbacks = rollbacks_;
  out.rollback_reason = rollback_reason_;
  out.canary_served = canary_served_;
  out.shadow = shadow_.stats();
  return out;
}

}  // namespace gddr::lifecycle
