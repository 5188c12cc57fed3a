#include "rl/env.hpp"

#include <algorithm>

namespace gddr::rl {

namespace {

// Per-copy row count of a stacked attribute tensor.
int rows_per_copy(const nn::Tensor& t, int batch) { return t.rows() / batch; }

bool same_copy_shape(const nn::Tensor& a, int a_batch, const nn::Tensor& b,
                     int b_batch) {
  return a.cols() == b.cols() &&
         rows_per_copy(a, a_batch) == rows_per_copy(b, b_batch);
}

// Resizes `out` to the rows of every part's `member` and copies them in.
void stack_member(std::span<const Observation* const> parts,
                  nn::Tensor Observation::* member, nn::Tensor& out) {
  int rows = 0;
  for (const Observation* p : parts) rows += (p->*member).rows();
  out.reshape_zero(rows, (parts.front()->*member).cols());
  float* dst = out.data().data();
  for (const Observation* p : parts) {
    const auto src = (p->*member).data();
    dst = std::copy(src.begin(), src.end(), dst);
  }
}

}  // namespace

bool stackable(const Observation& a, const Observation& b) {
  return a.num_nodes == b.num_nodes && a.senders == b.senders &&
         a.receivers == b.receivers &&
         a.flat.size() / static_cast<std::size_t>(a.batch) ==
             b.flat.size() / static_cast<std::size_t>(b.batch) &&
         same_copy_shape(a.nodes, a.batch, b.nodes, b.batch) &&
         same_copy_shape(a.edges, a.batch, b.edges, b.batch) &&
         same_copy_shape(a.globals, a.batch, b.globals, b.batch);
}

bool stack_observations(std::span<const Observation* const> parts,
                        Observation& out) {
  if (parts.empty()) return false;
  const Observation& first = *parts.front();
  int batch = 0;
  for (const Observation* p : parts) {
    if (p->batch < 1 || !stackable(first, *p)) return false;
    batch += p->batch;
  }
  out.flat.clear();
  for (const Observation* p : parts) {
    out.flat.insert(out.flat.end(), p->flat.begin(), p->flat.end());
  }
  stack_member(parts, &Observation::nodes, out.nodes);
  stack_member(parts, &Observation::edges, out.edges);
  stack_member(parts, &Observation::globals, out.globals);
  out.senders = first.senders;
  out.receivers = first.receivers;
  out.num_nodes = first.num_nodes;
  out.batch = batch;
  return true;
}

}  // namespace gddr::rl
