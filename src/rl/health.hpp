// Numerical-health watchdog for PPO training.
//
// Long RL runs die of NaNs: one degenerate minibatch (exploding ratio,
// log of a denormal, poisoned reward) turns a gradient non-finite, the
// optimiser writes the NaNs into the weights, and every step after that
// is garbage — the run is lost even though 99.9% of it was healthy.  The
// watchdog makes the update loop self-healing instead:
//
//  * after every healthy optimiser step it captures an in-memory
//    snapshot of the parameters and the Adam state (the last-good
//    point);
//  * before each step it verifies the minibatch loss and every gradient
//    entry are finite, and after the step that the parameters still are;
//  * on any violation it rolls the parameters and optimiser back to the
//    last-good snapshot and shrinks the learning rate (a blow-up at lr
//    usually reproduces at lr; at lr/2 it usually does not), then lets
//    training continue.
//
// Event counters are surfaced through PpoIterationStats so monitoring
// can alert on a run that is limping rather than learning.
#pragma once

#include <cmath>
#include <span>
#include <vector>

#include "nn/optimizer.hpp"
#include "nn/tensor.hpp"

namespace gddr::rl {

// Shared numerical guard: true when every entry is finite.  The serving
// and lifecycle layers vet policy action means with the same predicate
// the training watchdog applies to gradients and weights, so "healthy"
// means one thing across the stack.
inline bool all_finite(std::span<const double> values) {
  for (const double v : values) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

class HealthMonitor {
 public:
  // `params` must outlive the monitor (they are the trainer's parameter
  // span).  The first snapshot is captured immediately, so a rollback is
  // valid before any step has happened.
  HealthMonitor(std::vector<nn::Parameter*> params,
                const nn::Adam& optimizer);

  // Records the current parameters + optimiser state as last-good.
  void capture(const nn::Adam& optimizer);

  // True when every entry of every gradient / parameter value is finite.
  bool gradients_finite() const;
  bool parameters_finite() const;

  // Restores the last-good snapshot into the parameters and `optimizer`
  // and shrinks its learning rate by kLrShrink, never below
  // kMinLearningRate (both in health.cpp): at that floor training goes on
  // (rollbacks still protect the weights) without the lr collapsing to
  // zero.  Returns the learning rate now in effect.
  double rollback(nn::Adam& optimizer);

  // Lifetime counters (monotone; survive across iterations).
  long nonfinite_events() const { return nonfinite_events_; }
  long rollbacks() const { return rollbacks_; }
  void note_nonfinite() { ++nonfinite_events_; }

 private:
  std::vector<nn::Parameter*> params_;
  std::vector<nn::Tensor> good_values_;
  nn::Adam::State good_optimizer_;
  long nonfinite_events_ = 0;
  long rollbacks_ = 0;
};

}  // namespace gddr::rl
