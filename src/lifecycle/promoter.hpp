// Gate-keeping state machine that takes a published version to live.
//
//                 stage(v)
//   kIdle ───────────────────▶ kStaged ──▶ kShadow ──▶ kCanary ──▶ kLive
//                                │            │           │
//                                │ load fails │ gate fail │ gate fail
//                                ▼            ▼           ▼
//                              kIdle      kRolledBack  kRolledBack
//
// (kStaged is transient: stage() loads the candidate from the registry,
// arms the shadow evaluator and lands in kShadow before returning.)
//
// Gates, judged from live-traffic evidence fed through observe():
//  * Shadow phase — a candidate rung-1 failure rolls back at once.
//    After `promote_after` mirrored pairs the candidate advances to
//    canary iff its win-rate is at least kMinWinRate (promoter.cpp).
//  * Canary phase — a `canary_fraction` share of real micro-batches is
//    served by the candidate (serve::Engine::set_candidate).  After
//    `canary_decisions` candidate-served decisions without a rung-1
//    failure, the candidate is promoted: installed as the live policy
//    (zero-downtime hot swap) and recorded as the new last-good; a
//    failure rolls back.
//  * Any NaN/Inf action mean from the candidate — shadow or canary —
//    rolls back immediately, regardless of budgets.
//
// Rollback disarms the canary and the shadow mirror and leaves the
// incumbent exactly as it was; the candidate never becomes last-good.
// Promotion latency (stage → live) is exported as
// lifecycle/promote_latency_us; rollbacks count into lifecycle/rollbacks.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>

#include "lifecycle/registry.hpp"
#include "lifecycle/shadow.hpp"
#include "serve/engine.hpp"
#include "util/sync.hpp"

namespace gddr::lifecycle {

enum class PromoteState : int {
  kIdle = 0,
  kStaged,
  kShadow,
  kCanary,
  kLive,
  kRolledBack,
};

const char* to_string(PromoteState state);

struct PromoterConfig {
  // Share of live requests mirrored through the candidate in kShadow.
  double shadow_fraction = 0.2;
  // Share of real micro-batches served by the candidate in kCanary.
  double canary_fraction = 0.1;
  // Mirrored pairs required before the shadow gates are judged.
  long promote_after = 50;
  // Candidate-served decisions required to clear the canary.
  long canary_decisions = 20;
  // Serving pipeline for the shadow mirror router.
  serve::RouterConfig router;
};

class Promoter {
 public:
  // `registry` and `engine` must outlive the promoter.  Wire
  // observe() as the engine's decision observer (or call it from one).
  Promoter(ModelRegistry& registry, serve::Engine& engine,
           PromoterConfig config);

  // Loads `version` from the registry, arms shadow mirroring and enters
  // kShadow.  Throws util::IoError (state stays kIdle) when the load
  // fails.  Only legal from kIdle / kLive / kRolledBack — a promotion
  // already in flight must finish or roll back first.
  void stage(std::uint64_t version) GDDR_EXCLUDES(mu_);

  // Drives the state machine with one served decision.  Cheap for
  // non-candidate records outside the shadow sampling stride.
  void observe(const serve::RouteRequest& request,
               const serve::DecisionRecord& record) GDDR_EXCLUDES(mu_);

  PromoteState state() const GDDR_EXCLUDES(mu_);

  struct Summary {
    PromoteState state = PromoteState::kIdle;
    std::uint64_t candidate_version = 0;
    // Versions promoted to live / rolled back over the promoter's life.
    long promotions = 0;
    long rollbacks = 0;
    std::string rollback_reason;  // last rollback's cause ("" if none)
    long canary_served = 0;
    ShadowStats shadow;
  };
  Summary summary() const GDDR_EXCLUDES(mu_);

 private:
  using Clock = std::chrono::steady_clock;

  void promote() GDDR_REQUIRES(mu_);
  void rollback(const std::string& reason) GDDR_REQUIRES(mu_);

  ModelRegistry& registry_;
  serve::Engine& engine_;
  PromoterConfig config_;
  ShadowEvaluator shadow_;
  mutable util::Mutex mu_{util::LockRank::kPromoter, "lifecycle/promoter"};
  PromoteState state_ GDDR_GUARDED_BY(mu_) = PromoteState::kIdle;
  std::shared_ptr<const core::GnnPolicy> candidate_ GDDR_GUARDED_BY(mu_);
  std::uint64_t candidate_version_ GDDR_GUARDED_BY(mu_) = 0;
  Clock::time_point staged_at_ GDDR_GUARDED_BY(mu_){};
  long canary_served_ GDDR_GUARDED_BY(mu_) = 0;
  long canary_failures_ GDDR_GUARDED_BY(mu_) = 0;
  long promotions_ GDDR_GUARDED_BY(mu_) = 0;
  long rollbacks_ GDDR_GUARDED_BY(mu_) = 0;
  std::string rollback_reason_ GDDR_GUARDED_BY(mu_);
};

}  // namespace gddr::lifecycle
