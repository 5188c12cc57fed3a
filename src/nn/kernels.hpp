// Optimized tensor kernels + the tape workspace arena.
//
// This is the performance substrate under nn::Tape: register-blocked,
// cache-tiled matmul kernels (with separate NT / TN variants so matmul's
// backward never materializes an explicit transpose), a fused
// bias+activation kernel, a bucketed segment-sum that builds a reusable
// per-topology plan, and a size-class tensor pool (TensorArena) that lets
// a long-lived Tape recycle every value/grad buffer across iterations.
//
// Determinism contract (load-bearing — tests assert it):
//
//  * Every kernel accumulates each output element along a single
//    dependency chain in the same index order as the naive reference
//    triple loop (k ascending for NN, the shared dim ascending for
//    NT/TN, row-ascending within a segment bucket).  Tiling, packing and
//    register blocking change only the *iteration* order, never the
//    per-element *accumulation* order, so results are bit-identical to
//    the reference kernels in `kernels::ref`.  The same holds across the
//    4- and 8-lane builds (`kernels::w4`, `kernels::w8`): a vector lane is
//    one output element, and no build fuses multiply and add.
//  * Kernels are single-threaded.  Parallelism lives one level up, in
//    whole independent tapes (the PPO update runs one tape per minibatch
//    shard), so no kernel result depends on a worker count.
//
// Both builds and the reference kernels are exported so tests and
// bench_gnn_micro can assert w4 == w8 == reference exactly.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "nn/tensor.hpp"

namespace gddr::nn {

// Activation functions applied by the fused linear kernel (historically
// defined in mlp.hpp; it lives here so tape/kernels need not depend on
// the MLP module).
enum class Activation { kIdentity, kRelu, kTanh };

namespace kernels {

// ---------------------------------------------------------------------------
// Matmul family.  All matrices are dense row-major float with leading
// dimension equal to their column count.
// ---------------------------------------------------------------------------

// C (m x n) = A (m x k) * B (k x n).  C must not alias A or B.
void matmul_nn(int m, int k, int n, const float* a, const float* b,
               float* c);

// C (m x k) += G (m x n) * B^T with B stored (k x n) — the dA term of
// matmul's backward, consuming B in its natural layout.
void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c);

// C (k x n) += A^T * G with A stored (m x k), G stored (m x n) — the dB
// term of matmul's backward.
void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c);

// Fused y[r][c] = act(x[r][c] + bias[c]); bias is 1 x cols.  In-place
// (y == x) is supported; partial overlap is not.
void bias_act(int rows, int cols, const float* x, const float* bias, float* y,
              Activation act);

// d[i] = g[i] * act'(pre[i]) expressed via the post-activation value y[i]
// (sufficient for kIdentity / kRelu / kTanh).  In-place (d == g) is
// supported; partial overlap is not.
void act_grad(std::size_t n, const float* g, const float* y, float* d,
              Activation act);

// bias (1 x cols) += column sums of d (rows x cols).
void col_sum_acc(int rows, int cols, const float* d, float* bias);

// The matmul entry points above run one of two builds of the same
// kernel source, chosen once per process: w8 (8-lane AVX2) when the CPU
// has AVX2, w4 (4-lane SSE, the x86-64 baseline) otherwise.  Neither
// build fuses multiply and add, so both give bit-identical results.
// Both are exported so tests can assert w4 == w8 == ref; call w8 only
// when matmul_width() == 8.
namespace w4 {
void matmul_nn(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c);
void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c);
}  // namespace w4
namespace w8 {
void matmul_nn(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c);
void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c);
}  // namespace w8

// Lanes of the build the entry points dispatch to: 8 or 4.
int matmul_width();

// Naive reference kernels (the seed's triple loops, zero-skip included).
// Exported for equivalence tests and the bench_gnn_micro --json smoke.
namespace ref {
void matmul_nn(int m, int k, int n, const float* a, const float* b, float* c);
void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c);
void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c);
}  // namespace ref

// ---------------------------------------------------------------------------
// Bucketed segment sum.  The plan groups row indices by segment id once
// per graph topology; forward calls then stream each bucket without
// re-scanning the id vector, and the plan is shared across every forward
// pass on that topology (gnn::GraphSpec caches it).
// ---------------------------------------------------------------------------

struct SegmentPlan {
  int num_segments = 0;
  // Original per-row segment ids (backward scatter needs them unsorted).
  std::vector<int> segments;
  // Row indices grouped by segment, ascending within each bucket — the
  // same addition order as the naive unsorted scan, so forward sums are
  // bit-identical.
  std::vector<int> row_order;
  // Bucket boundaries into row_order; size num_segments + 1.  Segments
  // with no rows (empty buckets) have offsets[s] == offsets[s + 1].
  std::vector<int> offsets;

  int num_rows() const { return static_cast<int>(segments.size()); }
};

// Validates ids in [0, num_segments) and buckets them (counting sort, one
// pass).  Throws std::invalid_argument on an out-of-range id.
SegmentPlan build_segment_plan(std::vector<int> segments, int num_segments);

// out (num_segments x cols) = per-segment sums of in (num_rows x cols);
// out is overwritten (empty segments become zero rows).
void segment_sum(const SegmentPlan& plan, int cols, const float* in,
                 float* out);

// gin (num_rows x cols) += g[segments[i]] for every row i.
void segment_sum_grad(const SegmentPlan& plan, int cols, const float* g,
                      float* gin);

// ---------------------------------------------------------------------------
// TensorArena: a size-class pool of tensor buffers.  acquire() hands out a
// zero-filled tensor whose heap storage comes from the pool when a buffer
// of the right class is free; release() returns storage to the pool
// without freeing it.  A Tape drains its nodes into its arena at reset(),
// so steady-state forward/backward passes perform no heap allocation —
// the miss/reuse counters (surfaced as the nn/arena_bytes and
// nn/arena_reuse obs gauges) prove it.
//
// Not thread-safe: each Tape owns one arena and tapes are thread-private.
// ---------------------------------------------------------------------------

class TensorArena {
 public:
  // Zero-filled rows x cols tensor; reuses pooled storage when available.
  Tensor acquire(int rows, int cols);
  // Same-shaped copy of src (contents copied, not zeroed first).
  Tensor acquire_copy(const Tensor& src);
  // Returns t's storage to the pool.  Empty tensors are dropped.
  void release(Tensor&& t);

  // Cumulative bytes of fresh heap storage this arena allocated (misses
  // only — reuse adds nothing).  Steady state: flat.
  std::size_t bytes_allocated() const { return bytes_allocated_; }
  // Number of acquires served from the pool / from fresh allocations.
  std::uint64_t reuse_count() const { return reuse_; }
  std::uint64_t miss_count() const { return misses_; }
  // Buffers sitting in the free lists.  Right after a Tape::reset() that
  // is every buffer the arena owns, so it stays flat in steady state; a
  // buffer adopted from outside the arena would grow it on every reset.
  std::size_t pooled_count() const { return pooled_; }

 private:
  static constexpr int kClasses = 32;
  // Smallest pooled class: 2^6 = 64 floats (256 B).
  static constexpr int kMinClassLog2 = 6;

  // Smallest class whose capacity covers n elements.
  static int class_for_acquire(std::size_t n);
  // Largest class a buffer of this capacity can serve (floor log2), so a
  // tensor released here always satisfies acquires from its class.
  static int class_for_release(std::size_t capacity);

  Tensor take(std::size_t n);

  std::array<std::vector<Tensor>, kClasses> free_;
  std::size_t bytes_allocated_ = 0;
  std::uint64_t reuse_ = 0;
  std::uint64_t misses_ = 0;
  std::size_t pooled_ = 0;
};

}  // namespace kernels
}  // namespace gddr::nn
