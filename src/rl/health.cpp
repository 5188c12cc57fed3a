#include "rl/health.hpp"

#include <algorithm>
#include <cmath>

namespace gddr::rl {
namespace {

// Learning-rate multiplier applied on each rollback.
constexpr double kLrShrink = 0.5;
// Floor under repeated shrinks.
constexpr double kMinLearningRate = 1e-7;

bool all_finite(std::span<const float> data) {
  for (const float v : data) {
    if (!std::isfinite(v)) return false;
  }
  return true;
}

}  // namespace

HealthMonitor::HealthMonitor(std::vector<nn::Parameter*> params,
                             const nn::Adam& optimizer)
    : params_(std::move(params)) {
  capture(optimizer);
}

void HealthMonitor::capture(const nn::Adam& optimizer) {
  good_values_.clear();
  good_values_.reserve(params_.size());
  for (const nn::Parameter* p : params_) good_values_.push_back(p->value);
  good_optimizer_ = optimizer.export_state(params_);
}

bool HealthMonitor::gradients_finite() const {
  for (const nn::Parameter* p : params_) {
    if (!all_finite(p->grad.data())) return false;
  }
  return true;
}

bool HealthMonitor::parameters_finite() const {
  for (const nn::Parameter* p : params_) {
    if (!all_finite(p->value.data())) return false;
  }
  return true;
}

double HealthMonitor::rollback(nn::Adam& optimizer) {
  for (std::size_t i = 0; i < params_.size(); ++i) {
    params_[i]->value = good_values_[i];
  }
  optimizer.import_state(good_optimizer_, params_);
  const double shrunk =
      std::max(kMinLearningRate, optimizer.learning_rate() * kLrShrink);
  optimizer.set_learning_rate(shrunk);
  ++rollbacks_;
  return shrunk;
}

}  // namespace gddr::rl
