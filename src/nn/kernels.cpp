#include "nn/kernels.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <stdexcept>

namespace gddr::nn::kernels {

namespace {

// Blocking factors for the micro-kernels.  They are deliberately small:
// one 8-wide accumulator (one ymm or two xmm registers) plus a handful of
// hoisted broadcasts is a shape the compiler vectorises cleanly.  A
// larger explicit register tile (4x8) measured ~2.5x *slower* here — the
// compiler spilled the tile and synthesised broadcasts through long
// shuffle chains.
constexpr int kMr = 4;   // C rows sharing one G pass in the TN kernel.
constexpr int kNr = 8;   // Panel width / accumulator width.
constexpr int kKu = 8;   // k-unroll of the NN kernel's AXPY chain.

// Per-thread packing scratch, reused across calls so packing performs no
// steady-state allocation; tapes running on different threads (update
// shards, collector and serving workers) each pack into their own.
std::vector<float>& pack_buffer() {
  thread_local std::vector<float> buf;
  return buf;
}

std::size_t padded_cols(int n) {
  return static_cast<std::size_t>((n + kNr - 1) / kNr) *
         static_cast<std::size_t>(kNr);
}

// Packs B^T: panel p holds B rows [p*kNr, p*kNr + kNr) laid out j-major,
// so element (p*kNr + jj, j) of B lives at p*n*kNr + j*kNr + jj.  Rows
// past k are zero-padded.
void pack_panels_transposed(int k, int n, const float* b,
                            std::vector<float>& packed) {
  const std::size_t kp = padded_cols(k);
  packed.assign(static_cast<std::size_t>(n) * kp, 0.0F);
  for (int kk = 0; kk < k; ++kk) {
    const float* row = b + static_cast<std::size_t>(kk) * n;
    const int p = kk / kNr;
    const int jj = kk % kNr;
    for (int j = 0; j < n; ++j) {
      packed[(static_cast<std::size_t>(p) * n + j) * kNr + jj] = row[j];
    }
  }
}

std::size_t flops_of(int m, int k, int n) {
  return static_cast<std::size_t>(m) * static_cast<std::size_t>(k) *
         static_cast<std::size_t>(n);
}

// The three row kernels below are written once and compiled twice: as
// plain code in w4:: (the x86-64 baseline, 4-lane SSE) and inlined into
// functions marked target("avx2") in w8:: (8-lane ymm).  always_inline
// makes each entry point inline its own copy, so the compiler vectorises
// that copy for the entry point's instruction set.  The target string
// leaves out "fma", and the build pins -ffp-contract=off on this file, so
// no copy can fuse a multiply and an add: both widths round every
// product and every sum separately, in the same per-element order.

// One vector register of floats: xmm (4 lanes) or ymm (8 lanes, AVX2
// only).  A kNr-wide panel is held in kNr / lanes of them.  (The sizes
// are spelled out: GCC 12 silently drops a vector_size that depends on a
// template parameter, which leaves a scalar float.)
using Lanes4 = float __attribute__((vector_size(16)));
using Lanes8 = float __attribute__((vector_size(32)));

// C = A * B.  Shaped as kKu fused AXPYs: each C row is zeroed, then for
// each block of kKu k-indices the row makes one pass, adding the kKu
// products *in k order* per element before storing.  The per-element
// chain is therefore exactly the naive ikj order, so the result equals
// ref::matmul_nn under == (the reference's zero-skip only drops +/-0
// additions), while C is read and written kKu-times less often than the
// naive loop.  B needs no packing here — its rows are already
// contiguous.  Pointers must not alias (fresh output buffer).
[[gnu::always_inline]] inline void matmul_nn_rows(
    int m, int k, int n, const float* __restrict a, const float* __restrict b,
    float* __restrict c) {
  if (m <= 0 || n <= 0) return;
  for (int i = 0; i < m; ++i) {
    const float* arow = a + static_cast<std::size_t>(i) * k;
    float* crow = c + static_cast<std::size_t>(i) * n;
    std::fill(crow, crow + n, 0.0F);
    int kk = 0;
    for (; kk + kKu <= k; kk += kKu) {
      const float a0 = arow[kk + 0];
      const float a1 = arow[kk + 1];
      const float a2 = arow[kk + 2];
      const float a3 = arow[kk + 3];
      const float a4 = arow[kk + 4];
      const float a5 = arow[kk + 5];
      const float a6 = arow[kk + 6];
      const float a7 = arow[kk + 7];
      const float* __restrict b0 = b + static_cast<std::size_t>(kk) * n;
      const float* __restrict b1 = b0 + n;
      const float* __restrict b2 = b1 + n;
      const float* __restrict b3 = b2 + n;
      const float* __restrict b4 = b3 + n;
      const float* __restrict b5 = b4 + n;
      const float* __restrict b6 = b5 + n;
      const float* __restrict b7 = b6 + n;
      for (int j = 0; j < n; ++j) {
        float x = crow[j];
        x += a0 * b0[j];
        x += a1 * b1[j];
        x += a2 * b2[j];
        x += a3 * b3[j];
        x += a4 * b4[j];
        x += a5 * b5[j];
        x += a6 * b6[j];
        x += a7 * b7[j];
        crow[j] = x;
      }
    }
    for (; kk < k; ++kk) {
      const float aik = arow[kk];
      const float* __restrict brow = b + static_cast<std::size_t>(kk) * n;
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

// C (m x k) += G (m x n) * B^T via B^T panels.  Tiny products don't
// amortise the packing pass; the reference loop accumulates in the
// identical per-element order, so falling back changes nothing
// observable.  Otherwise each panel's accumulator is *seeded from C* and
// stored back once, so per element (i, kk) the chain is C's prior value
// followed by j-ascending adds — the same chain the naive backward loop
// produces, with one C round-trip per panel instead of per j.  The
// packed layout makes the kNr lanes of each j contiguous (in B itself
// those lanes are n apart), so the panel loop is one broadcast, one
// multiply and one add per j and vector register.  Written as scalar
// code, the auto-vectoriser turned this loop into shuffle-heavy lane
// assembly that measured ~6x slower.
template <typename Lanes>
[[gnu::always_inline]] inline void matmul_nt_rows(
    int m, int n, int k, const float* __restrict g, const float* __restrict b,
    float* __restrict c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  if (flops_of(m, k, n) < 4096) {
    ref::matmul_nt_acc(m, n, k, g, b, c);
    return;
  }
  std::vector<float>& buffer = pack_buffer();
  pack_panels_transposed(k, n, b, buffer);
  const float* __restrict packed = buffer.data();
  constexpr int kLanes = static_cast<int>(sizeof(Lanes) / sizeof(float));
  constexpr int kVecs = kNr / kLanes;
  const int full = k / kNr;  // Panels entirely inside [0, k).
  for (int i = 0; i < m; ++i) {
    const float* grow = g + static_cast<std::size_t>(i) * n;
    float* crow = c + static_cast<std::size_t>(i) * k;
    for (int p = 0; p < full; ++p) {
      const int k0 = p * kNr;
      const float* __restrict bp =
          packed + static_cast<std::size_t>(p) * n * kNr;
      Lanes acc[kVecs];
      for (int v = 0; v < kVecs; ++v) {
        std::memcpy(&acc[v], crow + k0 + v * kLanes, sizeof(acc[v]));
      }
      for (int j = 0; j < n; ++j) {
        const float* __restrict brow = bp + static_cast<std::size_t>(j) * kNr;
        for (int v = 0; v < kVecs; ++v) {
          Lanes bv;
          std::memcpy(&bv, brow + v * kLanes, sizeof(bv));
          acc[v] += grow[j] * bv;
        }
      }
      for (int v = 0; v < kVecs; ++v) {
        std::memcpy(crow + k0 + v * kLanes, &acc[v], sizeof(acc[v]));
      }
    }
    // Tail panel: scalar per output element, same j-ascending chain.
    for (int kk = full * kNr; kk < k; ++kk) {
      const float* __restrict bcol = packed +
                                     static_cast<std::size_t>(full) * n * kNr +
                                     (kk - full * kNr);
      float acc = crow[kk];
      for (int j = 0; j < n; ++j) {
        acc += grow[j] * bcol[static_cast<std::size_t>(j) * kNr];
      }
      crow[kk] = acc;
    }
  }
}

// C (k x n) += A^T * G.  Four C rows share each pass over G; per element
// (kk, j) the m loop ascends in one chain, matching the naive backward
// loop.
[[gnu::always_inline]] inline void matmul_tn_rows(
    int m, int k, int n, const float* __restrict a, const float* __restrict g,
    float* __restrict c) {
  if (m <= 0 || k <= 0 || n <= 0) return;
  int kk = 0;
  for (; kk + kMr <= k; kk += kMr) {
    float* c0 = c + static_cast<std::size_t>(kk) * n;
    float* c1 = c0 + n;
    float* c2 = c1 + n;
    float* c3 = c2 + n;
    for (int mm = 0; mm < m; ++mm) {
      const float* arow = a + static_cast<std::size_t>(mm) * k + kk;
      const float* grow = g + static_cast<std::size_t>(mm) * n;
      const float a0 = arow[0];
      const float a1 = arow[1];
      const float a2 = arow[2];
      const float a3 = arow[3];
      for (int j = 0; j < n; ++j) {
        const float gj = grow[j];
        c0[j] += a0 * gj;
        c1[j] += a1 * gj;
        c2[j] += a2 * gj;
        c3[j] += a3 * gj;
      }
    }
  }
  for (; kk < k; ++kk) {
    float* crow = c + static_cast<std::size_t>(kk) * n;
    for (int mm = 0; mm < m; ++mm) {
      const float amk = a[static_cast<std::size_t>(mm) * k + kk];
      const float* grow = g + static_cast<std::size_t>(mm) * n;
      for (int j = 0; j < n; ++j) crow[j] += amk * grow[j];
    }
  }
}

// Chosen once per process; both widths give the same bits, so the choice
// only affects speed.
bool use_avx2() {
#if defined(__x86_64__) || defined(__i386__)
  static const bool avx2 = [] {
    __builtin_cpu_init();
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return avx2;
#else
  return false;
#endif
}

}  // namespace

namespace w4 {

void matmul_nn(int m, int k, int n, const float* a, const float* b,
               float* c) {
  matmul_nn_rows(m, k, n, a, b, c);
}

void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c) {
  matmul_nt_rows<Lanes4>(m, n, k, g, b, c);
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c) {
  matmul_tn_rows(m, k, n, a, g, c);
}

}  // namespace w4

// Off x86 there is no AVX2 copy to build; w8:: is the baseline code
// again and matmul_width() reports 4, so nothing dispatches to it.
#if defined(__x86_64__) || defined(__i386__)
#define GDDR_AVX2 __attribute__((target("avx2")))
#else
#define GDDR_AVX2
#endif

namespace w8 {

GDDR_AVX2 void matmul_nn(int m, int k, int n, const float* a, const float* b,
                         float* c) {
  matmul_nn_rows(m, k, n, a, b, c);
}

GDDR_AVX2 void matmul_nt_acc(int m, int n, int k, const float* g,
                             const float* b, float* c) {
  matmul_nt_rows<Lanes8>(m, n, k, g, b, c);
}

GDDR_AVX2 void matmul_tn_acc(int m, int k, int n, const float* a,
                             const float* g, float* c) {
  matmul_tn_rows(m, k, n, a, g, c);
}

}  // namespace w8

#undef GDDR_AVX2

int matmul_width() { return use_avx2() ? 8 : 4; }

void matmul_nn(int m, int k, int n, const float* a, const float* b,
               float* c) {
  if (use_avx2()) {
    w8::matmul_nn(m, k, n, a, b, c);
  } else {
    w4::matmul_nn(m, k, n, a, b, c);
  }
}

void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c) {
  if (use_avx2()) {
    w8::matmul_nt_acc(m, n, k, g, b, c);
  } else {
    w4::matmul_nt_acc(m, n, k, g, b, c);
  }
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c) {
  if (use_avx2()) {
    w8::matmul_tn_acc(m, k, n, a, g, c);
  } else {
    w4::matmul_tn_acc(m, k, n, a, g, c);
  }
}

void bias_act(int rows, int cols, const float* x, const float* bias, float* y,
              Activation act) {
  for (int i = 0; i < rows; ++i) {
    const float* xr = x + static_cast<std::size_t>(i) * cols;
    float* yr = y + static_cast<std::size_t>(i) * cols;
    switch (act) {
      case Activation::kIdentity:
        for (int j = 0; j < cols; ++j) yr[j] = xr[j] + bias[j];
        break;
      case Activation::kRelu:
        for (int j = 0; j < cols; ++j) {
          const float v = xr[j] + bias[j];
          yr[j] = v > 0.0F ? v : 0.0F;
        }
        break;
      case Activation::kTanh:
        for (int j = 0; j < cols; ++j) yr[j] = std::tanh(xr[j] + bias[j]);
        break;
    }
  }
}

void act_grad(std::size_t n, const float* g, const float* y, float* d,
              Activation act) {
  switch (act) {
    case Activation::kIdentity:
      if (d != g) std::copy(g, g + n, d);
      break;
    case Activation::kRelu:
      // y > 0 iff the pre-activation was > 0 (relu zeroes the rest).
      for (std::size_t i = 0; i < n; ++i) d[i] = y[i] > 0.0F ? g[i] : 0.0F;
      break;
    case Activation::kTanh:
      for (std::size_t i = 0; i < n; ++i) d[i] = g[i] * (1.0F - y[i] * y[i]);
      break;
  }
}

void col_sum_acc(int rows, int cols, const float* d, float* bias) {
  for (int i = 0; i < rows; ++i) {
    const float* dr = d + static_cast<std::size_t>(i) * cols;
    for (int j = 0; j < cols; ++j) bias[j] += dr[j];
  }
}

namespace ref {

void matmul_nn(int m, int k, int n, const float* a, const float* b,
               float* c) {
  std::fill(c, c + static_cast<std::size_t>(m) * n, 0.0F);
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<std::size_t>(i) * k + kk];
      if (aik == 0.0F) continue;
      const float* brow = b + static_cast<std::size_t>(kk) * n;
      float* crow = c + static_cast<std::size_t>(i) * n;
      for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
    }
  }
}

void matmul_nt_acc(int m, int n, int k, const float* g, const float* b,
                   float* c) {
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      const float gij = g[static_cast<std::size_t>(i) * n + j];
      if (gij == 0.0F) continue;
      for (int kk = 0; kk < k; ++kk) {
        c[static_cast<std::size_t>(i) * k + kk] +=
            gij * b[static_cast<std::size_t>(kk) * n + j];
      }
    }
  }
}

void matmul_tn_acc(int m, int k, int n, const float* a, const float* g,
                   float* c) {
  for (int i = 0; i < m; ++i) {
    for (int kk = 0; kk < k; ++kk) {
      const float aik = a[static_cast<std::size_t>(i) * k + kk];
      if (aik == 0.0F) continue;
      for (int j = 0; j < n; ++j) {
        c[static_cast<std::size_t>(kk) * n + j] +=
            aik * g[static_cast<std::size_t>(i) * n + j];
      }
    }
  }
}

}  // namespace ref

SegmentPlan build_segment_plan(std::vector<int> segments, int num_segments) {
  if (num_segments < 0) {
    throw std::invalid_argument("build_segment_plan: num_segments < 0");
  }
  for (int s : segments) {
    if (s < 0 || s >= num_segments) {
      throw std::invalid_argument("build_segment_plan: segment id out of "
                                  "range");
    }
  }
  SegmentPlan plan;
  plan.num_segments = num_segments;
  // Counting sort keeps rows ascending within each bucket, preserving the
  // naive addition order per segment.
  plan.offsets.assign(static_cast<std::size_t>(num_segments) + 1, 0);
  for (int s : segments) ++plan.offsets[static_cast<std::size_t>(s) + 1];
  for (int s = 0; s < num_segments; ++s) {
    plan.offsets[static_cast<std::size_t>(s) + 1] +=
        plan.offsets[static_cast<std::size_t>(s)];
  }
  plan.row_order.resize(segments.size());
  std::vector<int> cursor(plan.offsets.begin(), plan.offsets.end() - 1);
  for (std::size_t i = 0; i < segments.size(); ++i) {
    plan.row_order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(segments[i])]++)] =
        static_cast<int>(i);
  }
  plan.segments = std::move(segments);
  return plan;
}

void segment_sum(const SegmentPlan& plan, int cols, const float* in,
                 float* out) {
  for (int s = 0; s < plan.num_segments; ++s) {
    float* orow = out + static_cast<std::size_t>(s) * cols;
    std::fill(orow, orow + cols, 0.0F);
    const int begin = plan.offsets[static_cast<std::size_t>(s)];
    const int end = plan.offsets[static_cast<std::size_t>(s) + 1];
    for (int idx = begin; idx < end; ++idx) {
      const float* irow =
          in + static_cast<std::size_t>(plan.row_order[
                   static_cast<std::size_t>(idx)]) * cols;
      for (int j = 0; j < cols; ++j) orow[j] += irow[j];
    }
  }
}

void segment_sum_grad(const SegmentPlan& plan, int cols, const float* g,
                      float* gin) {
  for (std::size_t i = 0; i < plan.segments.size(); ++i) {
    const float* grow =
        g + static_cast<std::size_t>(plan.segments[i]) * cols;
    float* irow = gin + i * static_cast<std::size_t>(cols);
    for (int j = 0; j < cols; ++j) irow[j] += grow[j];
  }
}

// ---------------------------------------------------------------------------
// TensorArena
// ---------------------------------------------------------------------------

int TensorArena::class_for_acquire(std::size_t n) {
  int cls = kMinClassLog2;
  while ((std::size_t{1} << cls) < n && cls < kClasses - 1) ++cls;
  return cls;
}

int TensorArena::class_for_release(std::size_t capacity) {
  int cls = kMinClassLog2;
  while ((std::size_t{1} << (cls + 1)) <= capacity && cls < kClasses - 1) {
    ++cls;
  }
  return cls;
}

Tensor TensorArena::take(std::size_t n) {
  const int cls = class_for_acquire(n);
  auto& bucket = free_[static_cast<std::size_t>(cls)];
  if (!bucket.empty()) {
    Tensor t = std::move(bucket.back());
    bucket.pop_back();
    --pooled_;
    ++reuse_;
    return t;
  }
  ++misses_;
  Tensor t;
  const std::size_t cap = std::max(n, std::size_t{1} << cls);
  t.reserve(cap);
  bytes_allocated_ += cap * sizeof(float);
  return t;
}

Tensor TensorArena::acquire(int rows, int cols) {
  const std::size_t n =
      static_cast<std::size_t>(rows) * static_cast<std::size_t>(cols);
  if (n == 0) return Tensor(rows, cols);
  Tensor t = take(n);
  t.reshape_zero(rows, cols);
  return t;
}

Tensor TensorArena::acquire_copy(const Tensor& src) {
  if (src.size() == 0) return Tensor(src.rows(), src.cols());
  Tensor t = take(src.size());
  t.reshape_copy(src.rows(), src.cols(), src.data());
  return t;
}

void TensorArena::release(Tensor&& t) {
  if (t.capacity() < (std::size_t{1} << kMinClassLog2)) return;
  const int cls = class_for_release(t.capacity());
  free_[static_cast<std::size_t>(cls)].push_back(std::move(t));
  ++pooled_;
}

}  // namespace gddr::nn::kernels
