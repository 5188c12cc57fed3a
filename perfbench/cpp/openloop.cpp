#include "openloop.hpp"

#include <cmath>

namespace perfbench {
namespace {

double exponential(double mean, gddr::util::Rng& rng) {
  return -mean * std::log(1.0 - rng.uniform());
}

}  // namespace

std::vector<std::int64_t> poisson_schedule(double rate, double seconds,
                                           gddr::util::Rng& rng) {
  std::vector<std::int64_t> out;
  double t = exponential(1.0 / rate, rng);
  while (t < seconds) {
    out.push_back(static_cast<std::int64_t>(t * 1e9));
    t += exponential(1.0 / rate, rng);
  }
  return out;
}

OpenLoop::OpenLoop(std::vector<std::int64_t> due_offsets_ns)
    : offsets_(std::move(due_offsets_ns)),
      sent_ns_(offsets_.size(), 0),
      ready_ns_(std::make_unique<std::atomic<std::int64_t>[]>(
          offsets_.size())) {
  for (std::size_t i = 0; i < offsets_.size(); ++i) ready_ns_[i].store(0);
}

void OpenLoop::wait_until(std::int64_t deadline) {
  while (now_ns() < deadline) {
  }
}

}  // namespace perfbench
