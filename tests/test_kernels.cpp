// Tests for the optimized kernel substrate (nn/kernels.hpp): exact
// equivalence of the tiled/packed matmul family, at both vector widths,
// against the naive reference over exhaustive small shapes, segment-sum
// plans (empty segments, unused trailing segments, validation),
// finite-difference gradients through the tiled path, and the
// TensorArena reuse contract.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <memory>
#include <vector>

#include "nn/kernels.hpp"
#include "nn/mlp.hpp"
#include "nn/optimizer.hpp"
#include "nn/tape.hpp"
#include "nn/tensor.hpp"
#include "util/rng.hpp"

namespace gddr::nn {
namespace {

using Var = Tape::Var;

std::vector<float> random_data(std::size_t n, util::Rng& rng,
                               bool with_zeros = true) {
  std::vector<float> v(n);
  for (std::size_t i = 0; i < n; ++i) {
    v[i] = static_cast<float>(rng.uniform(-1.0, 1.0));
    // Sprinkle exact zeros so the reference's zero-skip path is hit.
    if (with_zeros && rng.uniform(0.0, 1.0) < 0.15) v[i] = 0.0F;
  }
  return v;
}

// ---------------- matmul: exact equivalence vs reference ----------------

TEST(Kernels, MatmulFamilyMatchesReferenceExhaustiveSmallShapes) {
  util::Rng rng(7);
  for (int m = 1; m <= 5; ++m) {
    for (int k = 1; k <= 5; ++k) {
      for (int n = 1; n <= 5; ++n) {
        const auto a = random_data(static_cast<std::size_t>(m) * k, rng);
        const auto b = random_data(static_cast<std::size_t>(k) * n, rng);
        const auto g = random_data(static_cast<std::size_t>(m) * n, rng);

        std::vector<float> c_ref(static_cast<std::size_t>(m) * n);
        std::vector<float> c_opt(c_ref);
        kernels::ref::matmul_nn(m, k, n, a.data(), b.data(), c_ref.data());
        kernels::matmul_nn(m, k, n, a.data(), b.data(), c_opt.data());
        for (std::size_t i = 0; i < c_ref.size(); ++i) {
          ASSERT_EQ(c_ref[i], c_opt[i]) << "nn " << m << "x" << k << "x" << n;
        }

        std::vector<float> gx_ref(static_cast<std::size_t>(m) * k, 0.5F);
        std::vector<float> gx_opt(gx_ref);
        kernels::ref::matmul_nt_acc(m, n, k, g.data(), b.data(),
                                    gx_ref.data());
        kernels::matmul_nt_acc(m, n, k, g.data(), b.data(), gx_opt.data());
        for (std::size_t i = 0; i < gx_ref.size(); ++i) {
          ASSERT_EQ(gx_ref[i], gx_opt[i])
              << "nt " << m << "x" << k << "x" << n;
        }

        std::vector<float> gw_ref(static_cast<std::size_t>(k) * n, -0.25F);
        std::vector<float> gw_opt(gw_ref);
        kernels::ref::matmul_tn_acc(m, k, n, a.data(), g.data(),
                                    gw_ref.data());
        kernels::matmul_tn_acc(m, k, n, a.data(), g.data(), gw_opt.data());
        for (std::size_t i = 0; i < gw_ref.size(); ++i) {
          ASSERT_EQ(gw_ref[i], gw_opt[i])
              << "tn " << m << "x" << k << "x" << n;
        }
      }
    }
  }
}

TEST(Kernels, MatmulMatchesReferencePastBlockingBoundaries) {
  // Shapes straddling the micro-kernel's unroll/panel widths: tails in
  // every dimension, plus sizes past the parallel task granularity.
  const int shapes[][3] = {{8, 8, 8},   {9, 17, 7},  {16, 9, 8},
                           {17, 16, 9}, {33, 31, 5}, {40, 24, 12}};
  util::Rng rng(11);
  for (const auto& s : shapes) {
    const int m = s[0];
    const int k = s[1];
    const int n = s[2];
    const auto a = random_data(static_cast<std::size_t>(m) * k, rng);
    const auto b = random_data(static_cast<std::size_t>(k) * n, rng);
    std::vector<float> c_ref(static_cast<std::size_t>(m) * n);
    std::vector<float> c_opt(c_ref);
    kernels::ref::matmul_nn(m, k, n, a.data(), b.data(), c_ref.data());
    kernels::matmul_nn(m, k, n, a.data(), b.data(), c_opt.data());
    for (std::size_t i = 0; i < c_ref.size(); ++i) {
      ASSERT_EQ(c_ref[i], c_opt[i]) << m << "x" << k << "x" << n;
    }
  }
}

// ---------------- vector widths: w4 == w8 == ref ----------------

// Largest dimension the width checks use.
constexpr int kMaxDim = 33;

// One matmul kernel at both vector widths plus its naive reference, in
// the style of InferLLM's Checker: exec() feeds the three the same
// inputs and the same non-zero C seed, then asserts the outputs equal
// element by element (==, no tolerance).  Every kernel takes
// (d0, d1, d2, x, y, c).  Each buffer is sized for the largest shape; a
// kernel touches only a prefix, and the rest must come back equal too.
struct WidthChecker {
  using Kernel = void (*)(int, int, int, const float*, const float*, float*);
  const char* name;
  Kernel ref;
  Kernel w4;
  Kernel w8;

  void exec(int d0, int d1, int d2, bool with_w8, util::Rng& rng) const {
    const std::size_t size = static_cast<std::size_t>(kMaxDim) * kMaxDim;
    const auto x = random_data(size, rng);
    const auto y = random_data(size, rng);
    const auto seed = random_data(size, rng);
    std::vector<float> c_ref(seed);
    std::vector<float> c_w4(seed);
    std::vector<float> c_w8(seed);
    ref(d0, d1, d2, x.data(), y.data(), c_ref.data());
    w4(d0, d1, d2, x.data(), y.data(), c_w4.data());
    if (with_w8) w8(d0, d1, d2, x.data(), y.data(), c_w8.data());
    for (std::size_t i = 0; i < size; ++i) {
      ASSERT_EQ(c_ref[i], c_w4[i])
          << name << " w4 " << d0 << "x" << d1 << "x" << d2 << " at " << i;
      if (with_w8) {
        ASSERT_EQ(c_w4[i], c_w8[i])
            << name << " w8 " << d0 << "x" << d1 << "x" << d2 << " at " << i;
      }
    }
  }
};

const WidthChecker kCheckers[] = {
    {"nn", kernels::ref::matmul_nn, kernels::w4::matmul_nn,
     kernels::w8::matmul_nn},
    {"nt", kernels::ref::matmul_nt_acc, kernels::w4::matmul_nt_acc,
     kernels::w8::matmul_nt_acc},
    {"tn", kernels::ref::matmul_tn_acc, kernels::w4::matmul_tn_acc,
     kernels::w8::matmul_tn_acc}};

// Tails on both sides of the 4- and 8-lane widths and the kKu = 8 unroll;
// the products span both sides of the NT packing threshold (4096 flops).
void check_all_widths(bool with_w8) {
  const int sizes[] = {1, 3, 7, 8, 9, 15, 16, 17, 31, kMaxDim};
  util::Rng rng(53);
  for (const WidthChecker& checker : kCheckers) {
    for (int d0 : sizes) {
      for (int d1 : sizes) {
        for (int d2 : sizes) {
          checker.exec(d0, d1, d2, with_w8, rng);
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST(KernelWidths, FourLanesMatchReference) { check_all_widths(false); }

TEST(KernelWidths, EightLanesMatchFourLanesAndReference) {
  if (kernels::matmul_width() != 8) {
    GTEST_SKIP() << "host has no AVX2: the 8-lane kernels were not run";
  }
  check_all_widths(true);
}

TEST(KernelWidths, DispatchPicksEightLanesExactlyWhenAvx2) {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_cpu_init();
  EXPECT_EQ(kernels::matmul_width(),
            __builtin_cpu_supports("avx2") != 0 ? 8 : 4);
#else
  EXPECT_EQ(kernels::matmul_width(), 4);
#endif
}

TEST(Kernels, MatmulDegenerateDimensions) {
  // k == 0 must produce zeros (empty sum), not garbage.
  std::vector<float> c(6, 99.0F);
  kernels::matmul_nn(2, 0, 3, nullptr, nullptr, c.data());
  for (float v : c) EXPECT_EQ(v, 0.0F);
  // m == 0 / n == 0 are no-ops.
  kernels::matmul_nn(0, 3, 3, nullptr, nullptr, nullptr);
  kernels::matmul_nt_acc(0, 3, 3, nullptr, nullptr, nullptr);
  kernels::matmul_tn_acc(3, 0, 3, nullptr, nullptr, nullptr);
}

// ---------------- fused bias + activation ----------------

TEST(Kernels, BiasActMatchesUnfusedComposition) {
  util::Rng rng(17);
  const int rows = 5;
  const int cols = 7;
  const auto x = random_data(static_cast<std::size_t>(rows) * cols, rng);
  const auto bias = random_data(cols, rng);
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh}) {
    std::vector<float> y(x.size());
    kernels::bias_act(rows, cols, x.data(), bias.data(), y.data(), act);
    for (int r = 0; r < rows; ++r) {
      for (int c = 0; c < cols; ++c) {
        const float pre = x[static_cast<std::size_t>(r) * cols + c] + bias[c];
        float want = pre;
        if (act == Activation::kRelu) want = pre > 0.0F ? pre : 0.0F;
        if (act == Activation::kTanh) want = std::tanh(pre);
        EXPECT_EQ(want, y[static_cast<std::size_t>(r) * cols + c]);
      }
    }
    // In-place operation is part of the contract (tape fuses in place).
    std::vector<float> inplace(x);
    kernels::bias_act(rows, cols, inplace.data(), bias.data(),
                      inplace.data(), act);
    EXPECT_EQ(0, std::memcmp(y.data(), inplace.data(),
                             y.size() * sizeof(float)));
  }
}

// ---------------- segment sum ----------------

TEST(Kernels, SegmentPlanValidatesIds) {
  EXPECT_THROW(kernels::build_segment_plan({0, 3}, 3),
               std::invalid_argument);
  EXPECT_THROW(kernels::build_segment_plan({-1}, 3), std::invalid_argument);
  const auto plan = kernels::build_segment_plan({}, 4);
  EXPECT_EQ(plan.num_rows(), 0);
  EXPECT_EQ(plan.num_segments, 4);
}

TEST(Kernels, SegmentSumMatchesNaiveScanWithEmptyAndUnusedSegments) {
  // Segment 1 is empty; segments 5..7 are past the max used id.  Both
  // must come back as exact zero rows.
  const std::vector<int> ids = {4, 0, 2, 0, 4, 2, 2};
  const int num_segments = 8;
  const int cols = 3;
  util::Rng rng(19);
  const auto in =
      random_data(static_cast<std::size_t>(ids.size()) * cols, rng);

  std::vector<float> naive(static_cast<std::size_t>(num_segments) * cols,
                           0.0F);
  for (std::size_t r = 0; r < ids.size(); ++r) {
    for (int c = 0; c < cols; ++c) {
      naive[static_cast<std::size_t>(ids[r]) * cols + c] +=
          in[r * cols + c];
    }
  }

  const auto plan = kernels::build_segment_plan(ids, num_segments);
  std::vector<float> out(naive.size(), 42.0F);  // must be overwritten
  kernels::segment_sum(plan, cols, in.data(), out.data());
  for (std::size_t i = 0; i < naive.size(); ++i) {
    ASSERT_EQ(naive[i], out[i]) << "element " << i;
  }
  for (int c = 0; c < cols; ++c) {
    EXPECT_EQ(out[static_cast<std::size_t>(1) * cols + c], 0.0F);
    EXPECT_EQ(out[static_cast<std::size_t>(7) * cols + c], 0.0F);
  }
}

TEST(Kernels, SegmentSumGradScattersBySegment) {
  const std::vector<int> ids = {2, 0, 2, 1};
  const int cols = 2;
  const auto plan = kernels::build_segment_plan(ids, 3);
  const std::vector<float> g = {10, 11, 20, 21, 30, 31};  // 3 x 2
  std::vector<float> gin(static_cast<std::size_t>(ids.size()) * cols, 1.0F);
  kernels::segment_sum_grad(plan, cols, g.data(), gin.data());
  const std::vector<float> want = {31, 32, 11, 12, 31, 32, 21, 22};
  EXPECT_EQ(gin, want);
}

TEST(Kernels, SegmentPlanIsReusableAcrossInputs) {
  const std::vector<int> ids = {1, 0, 1, 1, 0};
  const int cols = 4;
  const auto plan = kernels::build_segment_plan(ids, 2);
  util::Rng rng(23);
  for (int trial = 0; trial < 3; ++trial) {
    const auto in =
        random_data(static_cast<std::size_t>(ids.size()) * cols, rng);
    std::vector<float> naive(2 * cols, 0.0F);
    for (std::size_t r = 0; r < ids.size(); ++r) {
      for (int c = 0; c < cols; ++c) {
        naive[static_cast<std::size_t>(ids[r]) * cols + c] +=
            in[r * cols + c];
      }
    }
    std::vector<float> out(naive.size());
    kernels::segment_sum(plan, cols, in.data(), out.data());
    for (std::size_t i = 0; i < naive.size(); ++i) {
      ASSERT_EQ(naive[i], out[i]);
    }
  }
}

// ---------------- gradients through the tiled path ----------------

Tensor random_tensor(int rows, int cols, util::Rng& rng) {
  Tensor t(rows, cols);
  for (float& v : t.data()) v = static_cast<float>(rng.uniform(-1.0, 1.0));
  return t;
}

// Finite-difference check mirroring test_nn's grad_check, kept local so
// this suite stays self-contained.
void grad_check(Parameter& param,
                const std::function<Var(Tape&, Var)>& body,
                double tol = 3e-2) {
  param.zero_grad();
  {
    Tape tape;
    tape.backward(body(tape, tape.leaf(param)));
  }
  const Tensor analytic = param.grad;
  const float eps = 1e-2F;
  for (int r = 0; r < param.value.rows(); ++r) {
    for (int c = 0; c < param.value.cols(); ++c) {
      const float saved = param.value.at(r, c);
      param.value.at(r, c) = saved + eps;
      double up;
      {
        Tape tape;
        up = tape.value(body(tape, tape.leaf(param))).at(0, 0);
      }
      param.value.at(r, c) = saved - eps;
      double down;
      {
        Tape tape;
        down = tape.value(body(tape, tape.leaf(param))).at(0, 0);
      }
      param.value.at(r, c) = saved;
      const double numeric = (up - down) / (2.0 * eps);
      const double a = analytic.at(r, c);
      ASSERT_NEAR(a, numeric, tol * std::max(1.0, std::abs(numeric)))
          << "element (" << r << "," << c << ")";
    }
  }
}

TEST(KernelsGradCheck, MatmulThroughBlockedShapes) {
  // 12x9 * 9x10: k and n both leave unroll/panel tails, so the NT/TN
  // backward kernels run their edge paths under the check.
  util::Rng rng(29);
  Parameter left(random_tensor(12, 9, rng));
  const Tensor right_t = random_tensor(9, 10, rng);
  grad_check(left, [&](Tape& t, Var x) {
    return t.mean_all(t.matmul(x, t.constant(right_t)));
  });
  Parameter right(random_tensor(9, 10, rng));
  const Tensor left_t = random_tensor(12, 9, rng);
  grad_check(right, [&](Tape& t, Var x) {
    return t.mean_all(t.matmul(t.constant(left_t), x));
  });
}

TEST(KernelsGradCheck, FusedLinearAllActivations) {
  util::Rng rng(31);
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh}) {
    Parameter w(random_tensor(6, 5, rng));
    const Tensor x = random_tensor(4, 6, rng);
    const Tensor b = random_tensor(1, 5, rng);
    grad_check(w, [&](Tape& t, Var wv) {
      return t.mean_all(
          t.linear(t.constant(x), wv, t.constant(b), act));
    });
    Parameter bias(random_tensor(1, 5, rng));
    const Tensor w_t = random_tensor(6, 5, rng);
    grad_check(bias, [&](Tape& t, Var bv) {
      return t.mean_all(t.linear(t.constant(x), t.constant(w_t), bv, act));
    });
  }
}

TEST(KernelsGradCheck, FusedLinearMatchesUnfusedComposition) {
  // Same forward values and the same input gradient as the unfused
  // matmul -> add_bias -> activation chain.
  util::Rng rng(37);
  const Tensor x = random_tensor(3, 4, rng);
  const Tensor w = random_tensor(4, 5, rng);
  const Tensor b = random_tensor(1, 5, rng);
  for (Activation act :
       {Activation::kIdentity, Activation::kRelu, Activation::kTanh}) {
    Parameter px_fused(x);
    Parameter px_unfused(x);
    Tensor fused_value;
    Tensor unfused_value;
    {
      Tape tape;
      const Var y = tape.linear(tape.leaf(px_fused), tape.constant(w),
                                tape.constant(b), act);
      fused_value = tape.value(y);
      tape.backward(tape.mean_all(y));
    }
    {
      Tape tape;
      Var y = tape.add_bias(
          tape.matmul(tape.leaf(px_unfused), tape.constant(w)),
          tape.constant(b));
      if (act == Activation::kRelu) y = tape.relu(y);
      if (act == Activation::kTanh) y = tape.tanh(y);
      unfused_value = tape.value(y);
      tape.backward(tape.mean_all(y));
    }
    ASSERT_EQ(fused_value.rows(), unfused_value.rows());
    ASSERT_EQ(fused_value.cols(), unfused_value.cols());
    for (int r = 0; r < fused_value.rows(); ++r) {
      for (int c = 0; c < fused_value.cols(); ++c) {
        EXPECT_EQ(fused_value.at(r, c), unfused_value.at(r, c));
      }
    }
    for (int r = 0; r < x.rows(); ++r) {
      for (int c = 0; c < x.cols(); ++c) {
        EXPECT_NEAR(px_fused.grad.at(r, c), px_unfused.grad.at(r, c), 1e-6)
            << "act " << static_cast<int>(act);
      }
    }
  }
}

// ---------------- TensorArena ----------------

TEST(TensorArena, ReusesReleasedBuffers) {
  kernels::TensorArena arena;
  Tensor t = arena.acquire(16, 16);  // 256 floats
  EXPECT_EQ(arena.miss_count(), 1U);
  const std::size_t bytes = arena.bytes_allocated();
  EXPECT_GE(bytes, 256 * sizeof(float));
  arena.release(std::move(t));
  Tensor u = arena.acquire(16, 16);
  EXPECT_EQ(arena.reuse_count(), 1U);
  EXPECT_EQ(arena.miss_count(), 1U);
  EXPECT_EQ(arena.bytes_allocated(), bytes);  // no new heap storage
  // Reused buffers come back zero-filled.
  for (float v : u.data()) EXPECT_EQ(v, 0.0F);
}

TEST(TensorArena, ServesSmallerShapesFromLargerClasses) {
  kernels::TensorArena arena;
  Tensor big = arena.acquire(32, 32);  // 1024 floats -> class 10
  arena.release(std::move(big));
  // 600 floats needs class 10 (ceil log2), which the released buffer
  // serves even though the shape differs.
  Tensor t = arena.acquire(20, 30);
  EXPECT_EQ(arena.reuse_count(), 1U);
  EXPECT_EQ(t.rows(), 20);
  EXPECT_EQ(t.cols(), 30);
}

TEST(TensorArena, AcquireCopyMatchesSource) {
  kernels::TensorArena arena;
  util::Rng rng(43);
  const Tensor src = random_tensor(9, 11, rng);
  const Tensor copy = arena.acquire_copy(src);
  ASSERT_EQ(copy.rows(), src.rows());
  ASSERT_EQ(copy.cols(), src.cols());
  EXPECT_EQ(0, std::memcmp(src.data().data(), copy.data().data(),
                           src.data().size() * sizeof(float)));
}

TEST(TensorArena, TapeReachesSteadyStateWithZeroAllocations) {
  // An MLP forward+backward loop over a long-lived tape: after one
  // warm-up pass populates the arena, further iterations must perform no
  // heap allocation (miss count flat) while still producing identical
  // gradients every time.
  util::Rng rng(47);
  MlpConfig cfg;
  cfg.hidden = {16, 16};
  Mlp mlp(10, 4, cfg, rng);
  const auto params = mlp.parameters();
  const Tensor x = random_tensor(6, 10, rng);

  Tape tape;
  Tensor first_grad;
  std::uint64_t misses_after_warmup = 0;
  for (int iter = 0; iter < 5; ++iter) {
    tape.reset();
    const Var y = mlp.forward(tape, tape.constant(x));
    zero_grads(params);
    tape.backward(tape.mean_all(tape.square(y)));
    if (iter == 0) {
      first_grad = params.front()->grad;
      continue;
    }
    if (iter == 1) {
      misses_after_warmup = tape.arena_misses();
      continue;
    }
    EXPECT_EQ(tape.arena_misses(), misses_after_warmup)
        << "iteration " << iter << " allocated fresh buffers";
    EXPECT_GT(tape.arena_reuse(), 0U);
    EXPECT_EQ(0, std::memcmp(first_grad.data().data(),
                             params.front()->grad.data().data(),
                             first_grad.data().size() * sizeof(float)))
        << "iteration " << iter << " diverged";
  }
}

}  // namespace
}  // namespace gddr::nn
