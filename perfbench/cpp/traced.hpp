// Tracing decorators over the rl::Env and rl::Policy interfaces.
//
// Each forwards every call to the wrapped object unchanged and opens a
// span around the calls that do layer work, so a workload built over a
// decorated env or policy computes exactly what the undecorated one does
// (the benchmark checks this bit-for-bit) while the tracer sees the
// env-step and GNN-forward boundaries from outside the library.
#pragma once

#include <atomic>
#include <span>
#include <string>
#include <vector>

#include "rl/env.hpp"
#include "rl/policy.hpp"
#include "trace.hpp"

namespace perfbench {

class TracedEnv final : public gddr::rl::Env {
 public:
  explicit TracedEnv(gddr::rl::Env& inner) : inner_(inner) {}

  gddr::rl::Observation reset() override {
    const Scope scope("core.env_reset");
    return inner_.reset();
  }
  StepResult step(std::span<const double> action) override {
    const Scope scope("core.env_step");
    return inner_.step(action);
  }
  int action_dim() const override { return inner_.action_dim(); }
  std::vector<std::uint8_t> save_state() const override {
    return inner_.save_state();
  }
  void restore_state(std::span<const std::uint8_t> blob) override {
    inner_.restore_state(blob);
  }

 private:
  gddr::rl::Env& inner_;
};

// Safe for concurrent use exactly when the wrapped policy is: the only
// state it adds is an atomic row counter.
class TracedPolicy final : public gddr::rl::Policy {
 public:
  using Var = gddr::nn::Tape::Var;

  explicit TracedPolicy(gddr::rl::Policy& inner) : inner_(inner) {}

  int action_dim(const gddr::rl::Observation& obs) const override {
    return inner_.action_dim(obs);
  }
  Var action_mean(gddr::nn::Tape& tape,
                  const gddr::rl::Observation& obs) override {
    const Scope scope("gnn.action_mean");
    return inner_.action_mean(tape, obs);
  }
  Var value(gddr::nn::Tape& tape, const gddr::rl::Observation& obs) override {
    const Scope scope("gnn.value");
    return inner_.value(tape, obs);
  }
  Var log_std_row(gddr::nn::Tape& tape, int action_dim) override {
    return inner_.log_std_row(tape, action_dim);
  }
  std::vector<gddr::nn::Parameter*> parameters() override {
    return inner_.parameters();
  }
  std::string name() const override { return inner_.name(); }
  bool action_means(gddr::nn::Tape& tape,
                    const std::vector<const gddr::rl::Observation*>& obs,
                    Var& out) override {
    const Scope scope("gnn.action_means");
    batched_rows_.fetch_add(static_cast<long>(obs.size()));
    return inner_.action_means(tape, obs, out);
  }

  // Observations passed to action_means so far.
  long batched_rows() const { return batched_rows_.load(); }

 private:
  gddr::rl::Policy& inner_;
  std::atomic<long> batched_rows_{0};
};

}  // namespace perfbench
