// Off-critical-path candidate scoring against live traffic.
//
// A candidate policy must prove itself on *production* requests before
// it touches production answers.  The ShadowEvaluator mirrors a
// deterministic stride-sampled fraction of live served requests through
// the candidate (a private RobustRouter, so the candidate gets the full
// serving ladder, deadline budget and NaN screening the incumbent has)
// and scores each pair by simulated max link utilisation:
//
//   win  := candidate served from rung 1 AND its U_max is no worse than
//           the incumbent's (ties are wins — a clone of the incumbent
//           must be promotable);
//   loss := anything else, including the candidate falling off rung 1
//           (counted separately as a candidate failure, and a NaN/Inf
//           action mean separately again — the promoter treats that as
//           instant-rollback evidence).
//
// Deltas (incumbent U_max − candidate U_max; positive = candidate
// better) accumulate into a Welford RunningStat overall and per
// topology fingerprint, so a candidate that wins on one topology while
// regressing another is visible before promotion.  Candidate decision
// latencies feed a bounded window for the promoter's p99 gate.
//
// Invoked from serve::Engine's decision observer *after* the caller's
// future resolves — mirroring cost never adds to request latency, only
// to serving-thread throughput (bounded by the sampling fraction).
//
// Fault site: shadow_diverge forces a mirrored pair to score as a
// candidate loss (rehearses the gate-rejection path deterministically).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "core/policies.hpp"
#include "serve/engine.hpp"
#include "util/stats.hpp"
#include "util/sync.hpp"

namespace gddr::lifecycle {

struct ShadowConfig {
  // Fraction of live requests mirrored through the candidate; realised
  // as stride sampling (every round(1/fraction)-th observed request),
  // clamped to (0, 1].
  double fraction = 0.2;
  // The candidate's serving pipeline (deadlines, sanitiser, breaker).
  serve::RouterConfig router;
};

struct ShadowTopologyStats {
  std::uint64_t fingerprint = 0;
  long mirrored = 0;
  long wins = 0;
  util::RunningStat delta;  // incumbent U_max − candidate U_max
};

struct ShadowStats {
  long observed = 0;            // live records seen (mirrored or not)
  long mirrored = 0;            // pairs actually scored
  long wins = 0;
  long candidate_failures = 0;  // candidate fell off rung 1
  long nonfinite_outputs = 0;   // candidate produced NaN/Inf means
  util::RunningStat delta;
  // Over the candidate's latest kLatencyWindow (shadow.cpp) mirror
  // decisions.
  double p99_latency_us = 0.0;
  std::vector<ShadowTopologyStats> by_topology;

  double win_rate() const {
    return mirrored > 0 ? static_cast<double>(wins) / mirrored : 0.0;
  }
};

class ShadowEvaluator {
 public:
  explicit ShadowEvaluator(ShadowConfig config);

  // Starts mirroring through `candidate` (kept alive by the evaluator)
  // and resets all statistics.  `version` stamps the mirror decisions.
  void arm(std::shared_ptr<const core::GnnPolicy> candidate,
           std::uint64_t version) GDDR_EXCLUDES(mu_);
  void disarm() GDDR_EXCLUDES(mu_);
  bool armed() const GDDR_EXCLUDES(mu_);

  // Feed one live served decision (wired as — or called from — the
  // engine's DecisionObserver).  Canary records (served_by_candidate)
  // are ignored: they are real traffic, not shadow pairs.  Thread-safe.
  void observe(const serve::RouteRequest& request,
               const serve::DecisionRecord& incumbent) GDDR_EXCLUDES(mu_);

  ShadowStats stats() const GDDR_EXCLUDES(mu_);

 private:
  ShadowConfig config_;
  long stride_ = 1;
  mutable util::Mutex mu_{util::LockRank::kShadowEval, "lifecycle/shadow"};
  std::shared_ptr<const core::GnnPolicy> candidate_ GDDR_GUARDED_BY(mu_);
  // The candidate's private serving pipeline (own topology cache and
  // breaker: a failing candidate must not trip the incumbent's breaker).
  std::optional<serve::RobustRouter> router_ GDDR_GUARDED_BY(mu_);
  ShadowStats stats_ GDDR_GUARDED_BY(mu_);
  std::map<std::uint64_t, ShadowTopologyStats> buckets_ GDDR_GUARDED_BY(mu_);
  std::vector<double> latencies_us_ GDDR_GUARDED_BY(mu_);
  std::size_t latency_next_ GDDR_GUARDED_BY(mu_) = 0;
};

}  // namespace gddr::lifecycle
