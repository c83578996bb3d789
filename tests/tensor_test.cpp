// Tensor/autograd tests. The core of the suite is numerical gradient
// checking: for every differentiable op we compare the analytic gradient to
// central finite differences on random inputs. A second block pins the SIMD
// determinism contract: every vectorized kernel must be bit-identical to an
// unrolled scalar reference that performs the same fixed 8-lane accumulation
// tree, across odd sizes, tail lanes and empty segments.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <functional>
#include <vector>

#include "support/simd.h"
#include "tensor/gemm.h"
#include "tensor/gemm_int8.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"

namespace irgnn::tensor {
namespace {

/// Central-difference gradient check of `loss_fn` wrt `input`'s entries.
/// loss_fn must rebuild the graph from scratch at each call.
void grad_check(Tensor input,
                const std::function<Tensor()>& loss_fn,
                float tolerance = 2e-2f) {
  input.zero_grad();  // leaf grads persist across checks; start clean
  Tensor loss = loss_fn();
  loss.backward();
  std::vector<float> analytic(input.grad(), input.grad() + input.numel());

  const float eps = 1e-2f;
  for (int i = 0; i < input.numel(); ++i) {
    float saved = input.data()[i];
    input.data()[i] = saved + eps;
    float up = loss_fn().item();
    input.data()[i] = saved - eps;
    float down = loss_fn().item();
    input.data()[i] = saved;
    float numeric = (up - down) / (2 * eps);
    EXPECT_NEAR(analytic[i], numeric,
                tolerance * std::max(1.0f, std::fabs(numeric)))
        << "entry " << i;
  }
}

Tensor sum_all(const Tensor& t) {
  // Reduce to scalar via segment_mean + scale (mean * n == sum).
  std::vector<int> seg(t.rows(), 0);
  Tensor pooled = segment_mean(t, seg, 1);
  Tensor ones = Tensor::full({t.cols(), 1}, 1.0f);
  return scale(matmul(pooled, ones), static_cast<float>(t.rows()));
}

TEST(TensorTest, ConstructorsAndAccessors) {
  Tensor z = Tensor::zeros({2, 3});
  EXPECT_EQ(z.numel(), 6);
  EXPECT_EQ(z.at(1, 2), 0.0f);
  Tensor f = Tensor::full({2, 2}, 3.5f);
  EXPECT_EQ(f.at(0, 1), 3.5f);
  Tensor d = Tensor::from_data({2, 2}, {1, 2, 3, 4});
  EXPECT_EQ(d.at(1, 0), 3.0f);
}

TEST(TensorTest, MatmulForward) {
  Tensor a = Tensor::from_data({2, 3}, {1, 2, 3, 4, 5, 6});
  Tensor b = Tensor::from_data({3, 2}, {7, 8, 9, 10, 11, 12});
  Tensor c = matmul(a, b);
  EXPECT_FLOAT_EQ(c.at(0, 0), 58);
  EXPECT_FLOAT_EQ(c.at(0, 1), 64);
  EXPECT_FLOAT_EQ(c.at(1, 0), 139);
  EXPECT_FLOAT_EQ(c.at(1, 1), 154);
}

TEST(TensorTest, BlockedMatmulMatchesNaiveReference) {
  // The blocked/transposed kernel against a straight triple loop, on shapes
  // deliberately not multiples of any block size (1, primes, pow2 +/- 1).
  struct Case {
    int m, k, n;
  };
  for (const Case& c : {Case{1, 1, 1}, Case{3, 5, 2}, Case{17, 31, 13},
                        Case{64, 64, 64}, Case{65, 33, 17}, Case{128, 1, 9},
                        Case{1, 200, 1}, Case{47, 16, 129}}) {
    Rng rng(1000 + c.m + c.k + c.n);
    Tensor a = Tensor::xavier({c.m, c.k}, rng);
    Tensor b = Tensor::xavier({c.k, c.n}, rng);
    Tensor prod = matmul(a, b);
    for (int i = 0; i < c.m; ++i)
      for (int j = 0; j < c.n; ++j) {
        float ref = 0.0f;
        for (int l = 0; l < c.k; ++l) ref += a.at(i, l) * b.at(l, j);
        ASSERT_NEAR(prod.at(i, j), ref, 1e-5f)
            << c.m << "x" << c.k << "x" << c.n << " at (" << i << "," << j
            << ")";
      }
  }
}

TEST(TensorTest, MatmulGradient) {
  Rng rng(1);
  Tensor a = Tensor::xavier({3, 4}, rng);
  Tensor b = Tensor::xavier({4, 2}, rng);
  grad_check(a, [&] { return sum_all(matmul(a, b)); });
  grad_check(b, [&] { return sum_all(matmul(a, b)); });
}

TEST(TensorTest, ElementwiseGradients) {
  Rng rng(2);
  Tensor a = Tensor::xavier({3, 3}, rng);
  Tensor b = Tensor::xavier({3, 3}, rng);
  grad_check(a, [&] { return sum_all(add(a, b)); });
  grad_check(a, [&] { return sum_all(sub(a, b)); });
  grad_check(a, [&] { return sum_all(mul(a, b)); });
  grad_check(b, [&] { return sum_all(mul(a, b)); });
}

TEST(TensorTest, ActivationGradients) {
  Rng rng(3);
  Tensor a = Tensor::xavier({4, 4}, rng);
  // relu is non-differentiable at 0; nudge values away from it.
  for (int i = 0; i < a.numel(); ++i)
    if (std::fabs(a.data()[i]) < 0.1f) a.data()[i] = 0.5f;
  grad_check(a, [&] { return sum_all(relu(a)); });
}

TEST(TensorTest, FusedBiasActivationMatchesUnfused) {
  Rng rng(11);
  Tensor a = Tensor::xavier({5, 6}, rng);
  Tensor b = Tensor::xavier({1, 6}, rng);
  Tensor fused_relu = add_bias_act(a, b, Act::Relu);
  Tensor unfused_relu = relu(add_bias_act(a, b, Act::None));
  for (int i = 0; i < a.numel(); ++i)
    EXPECT_EQ(fused_relu.node()->data[i], unfused_relu.node()->data[i]);
}

TEST(TensorTest, FusedBiasActivationGradients) {
  Rng rng(12);
  Tensor a = Tensor::xavier({4, 5}, rng);
  Tensor b = Tensor::xavier({1, 5}, rng);
  // relu is non-differentiable at 0; nudge pre-activations away from it.
  for (int i = 0; i < a.numel(); ++i)
    if (std::fabs(a.data()[i]) < 0.1f) a.data()[i] = 0.4f;
  grad_check(a, [&] { return sum_all(mul(add_bias_act(a, b, Act::None),
                                         add_bias_act(a, b, Act::None))); });
  grad_check(b, [&] { return sum_all(mul(add_bias_act(a, b, Act::None),
                                         add_bias_act(a, b, Act::None))); });
  grad_check(a, [&] { return sum_all(mul(add_bias_act(a, b, Act::Relu),
                                         add_bias_act(a, b, Act::Relu))); });
}

TEST(TensorTest, LayerNormGradient) {
  Rng rng(5);
  Tensor x = Tensor::xavier({3, 6}, rng);
  Tensor gamma = Tensor::full({1, 6}, 1.0f, true);
  Tensor beta = Tensor::zeros({1, 6}, true);
  grad_check(x, [&] { return sum_all(mul(layer_norm(x, gamma, beta),
                                         layer_norm(x, gamma, beta))); });
  grad_check(gamma,
             [&] { return sum_all(mul(layer_norm(x, gamma, beta),
                                      layer_norm(x, gamma, beta))); });
}

TEST(TensorTest, LayerNormNormalizes) {
  Rng rng(6);
  Tensor x = Tensor::xavier({2, 8}, rng);
  Tensor gamma = Tensor::full({1, 8}, 1.0f);
  Tensor beta = Tensor::zeros({1, 8});
  Tensor y = layer_norm(x, gamma, beta);
  for (int i = 0; i < 2; ++i) {
    float mean = 0;
    for (int j = 0; j < 8; ++j) mean += y.at(i, j);
    EXPECT_NEAR(mean / 8, 0.0f, 1e-5f);
  }
}

TEST(TensorTest, EmbeddingGradientAccumulates) {
  Tensor table = Tensor::from_data({3, 2}, {1, 2, 3, 4, 5, 6}, true);
  Tensor out = embedding(table, {0, 2, 0});
  EXPECT_FLOAT_EQ(out.at(2, 1), 2);
  Tensor loss = sum_all(out);
  loss.backward();
  EXPECT_FLOAT_EQ(table.grad()[0], 2);  // row 0 used twice
  EXPECT_FLOAT_EQ(table.grad()[4], 1);  // row 2 used once
  EXPECT_FLOAT_EQ(table.grad()[2], 0);  // row 1 unused
}

TEST(TensorTest, IndexAddRowsForwardAndGradient) {
  Rng rng(7);
  Tensor x = Tensor::xavier({4, 3}, rng);
  std::vector<int> dst{0, 1, 0, 1};
  std::vector<float> coeff{0.5f, 1.0f, 0.5f, 1.0f};
  Tensor out = index_add_rows(x, dst, coeff, 2);
  EXPECT_NEAR(out.at(0, 0), 0.5f * (x.at(0, 0) + x.at(2, 0)), 1e-5f);
  grad_check(x, [&] { return sum_all(mul(index_add_rows(x, dst, coeff, 2),
                                         index_add_rows(x, dst, coeff, 2))); });
}

TEST(TensorTest, SegmentMeanForward) {
  Tensor x = Tensor::from_data({4, 2}, {1, 2, 3, 4, 5, 6, 7, 8});
  Tensor out = segment_mean(x, {0, 0, 1, 1}, 2);
  EXPECT_FLOAT_EQ(out.at(0, 0), 2);
  EXPECT_FLOAT_EQ(out.at(1, 1), 7);
}

TEST(TensorTest, LogSoftmaxRowsSumToOne) {
  Rng rng(8);
  Tensor x = Tensor::xavier({3, 5}, rng);
  Tensor lp = log_softmax(x);
  for (int i = 0; i < 3; ++i) {
    float sum = 0;
    for (int j = 0; j < 5; ++j) sum += std::exp(lp.at(i, j));
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, NllLossGradient) {
  Rng rng(9);
  Tensor x = Tensor::xavier({4, 3}, rng);
  std::vector<int> targets{0, 2, 1, 2};
  grad_check(x, [&] { return nll_loss(log_softmax(x), targets); });
}

TEST(TensorTest, DropoutIdentityInEval) {
  Rng rng(10);
  Tensor x = Tensor::full({2, 2}, 3.0f);
  Tensor y = dropout(x, 0.5f, rng, /*training=*/false);
  EXPECT_EQ(y.at(0, 0), 3.0f);
}

TEST(TensorTest, ArgmaxRow) {
  const float x[] = {1, 5, 2, 9, 0, 3, 4, 4};
  EXPECT_EQ(argmax_row(x, 3), 1);
  EXPECT_EQ(argmax_row(x + 3, 3), 0);
  EXPECT_EQ(argmax_row(x + 6, 2), 0);  // first maximum wins a tie
}

TEST(OptimizerTest, AdamMinimizesQuadratic) {
  // minimize ||w - target||^2
  Tensor w = Tensor::zeros({1, 4}, true);
  Tensor target = Tensor::from_data({1, 4}, {1, -2, 3, -4});
  Adam adam({w}, {.lr = 0.1f});
  for (int step = 0; step < 300; ++step) {
    adam.zero_grad();
    Tensor diff = sub(w, target);
    Tensor loss = sum_all(mul(diff, diff));
    loss.backward();
    adam.step();
  }
  for (int i = 0; i < 4; ++i)
    EXPECT_NEAR(w.data()[i], target.data()[i], 0.05f);
}

// --- SIMD bit-identity ------------------------------------------------------
// Unrolled scalar references for the canonical reductions of
// support/simd.h: 8 lane accumulators fed block by block, folded with the
// fixed pairing ((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7)), tail elements in
// order. The vectorized helpers must match these bit for bit.

float ref_tree_fold(const float lane[8]) {
  float a04 = lane[0] + lane[4];
  float a15 = lane[1] + lane[5];
  float a26 = lane[2] + lane[6];
  float a37 = lane[3] + lane[7];
  return (a04 + a26) + (a15 + a37);
}

float ref_dot(const float* a, const float* b, std::int64_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) lane[l] += a[i + l] * b[i + l];
  float s = ref_tree_fold(lane);
  for (; i < n; ++i) s += a[i] * b[i];
  return s;
}

float ref_sum(const float* a, std::int64_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) lane[l] += a[i + l];
  float s = ref_tree_fold(lane);
  for (; i < n; ++i) s += a[i];
  return s;
}

float ref_sum_sq_diff(const float* a, float mean, std::int64_t n) {
  float lane[8] = {0, 0, 0, 0, 0, 0, 0, 0};
  std::int64_t i = 0;
  for (; i + 8 <= n; i += 8)
    for (int l = 0; l < 8; ++l) {
      float d = a[i + l] - mean;
      lane[l] += d * d;
    }
  float s = ref_tree_fold(lane);
  for (; i < n; ++i) {
    float d = a[i] - mean;
    s += d * d;
  }
  return s;
}

std::vector<float> random_vec(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.uniform(-2.0, 2.0));
  return v;
}

// Sizes straddling every tail case: empty, sub-lane, exact lanes, lanes+tail.
const std::int64_t kSimdSizes[] = {0, 1, 3, 7, 8, 9, 15, 16, 17, 31, 33, 64,
                                   100, 129};

TEST(SimdTest, ReductionsBitIdenticalToScalarTree) {
  for (std::int64_t n : kSimdSizes) {
    std::vector<float> a = random_vec(n, 100 + n);
    std::vector<float> b = random_vec(n, 200 + n);
    EXPECT_EQ(simd::dot(a.data(), b.data(), n), ref_dot(a.data(), b.data(), n))
        << "dot n=" << n;
    EXPECT_EQ(simd::sum(a.data(), n), ref_sum(a.data(), n)) << "sum n=" << n;
    EXPECT_EQ(simd::sum_sq_diff(a.data(), 0.375f, n),
              ref_sum_sq_diff(a.data(), 0.375f, n))
        << "sum_sq_diff n=" << n;
  }
}

TEST(SimdTest, ElementwiseHelpersBitIdenticalToScalar) {
  for (std::int64_t n : kSimdSizes) {
    std::vector<float> x = random_vec(n, 300 + n);
    std::vector<float> dst_v = random_vec(n, 400 + n);
    std::vector<float> dst_s = dst_v;
    simd::axpy(dst_v.data(), 1.25f, x.data(), n);
    for (std::int64_t i = 0; i < n; ++i) dst_s[i] += 1.25f * x.data()[i];
    EXPECT_EQ(dst_v, dst_s) << "axpy n=" << n;

    dst_v = random_vec(n, 500 + n);
    dst_s = dst_v;
    simd::add_inplace(dst_v.data(), x.data(), n);
    for (std::int64_t i = 0; i < n; ++i) dst_s[i] += x.data()[i];
    EXPECT_EQ(dst_v, dst_s) << "add_inplace n=" << n;
  }
}

TEST(SimdTest, MatmulForwardBitIdenticalToTreeReference) {
  struct Case {
    int m, k, n;
  };
  for (const Case& c : {Case{1, 1, 1}, Case{3, 7, 2}, Case{5, 9, 13},
                        Case{17, 33, 8}, Case{16, 64, 31}, Case{2, 200, 3},
                        // block-shape edges for the register-blocked kernel:
                        // exact 4x2 multiples, rows/cols below one block
                        Case{4, 8, 2}, Case{8, 16, 4}, Case{3, 5, 1},
                        Case{2, 9, 5}, Case{5, 24, 2}}) {
    Rng rng(7000 + c.m + c.k + c.n);
    Tensor a = Tensor::xavier({c.m, c.k}, rng);
    Tensor b = Tensor::xavier({c.k, c.n}, rng);
    Tensor prod = matmul(a, b);
    // Reference: same packed-transpose layout, same per-entry tree dot.
    std::vector<float> bt(static_cast<std::size_t>(c.k) * c.n);
    for (int l = 0; l < c.k; ++l)
      for (int j = 0; j < c.n; ++j) bt[j * c.k + l] = b.at(l, j);
    for (int i = 0; i < c.m; ++i)
      for (int j = 0; j < c.n; ++j)
        ASSERT_EQ(prod.at(i, j),
                  ref_dot(a.data() + static_cast<std::int64_t>(i) * c.k,
                          bt.data() + static_cast<std::int64_t>(j) * c.k, c.k))
            << c.m << "x" << c.k << "x" << c.n << " at (" << i << "," << j
            << ")";
  }
}

TEST(SimdTest, RegisterBlockedGemmBitIdenticalToRowwise) {
  // The register-blocked micro-kernel against the PR 2 one-dot-per-element
  // kernel, raw buffers, no tape. Shapes cover: empty m/n/k, tails smaller
  // than the 4x2 block, exact block multiples, odd everything.
  struct Case {
    int m, n, k;
  };
  for (const Case& c :
       {Case{0, 0, 0}, Case{0, 3, 5}, Case{3, 0, 5}, Case{2, 5, 0},
        Case{1, 1, 1}, Case{3, 1, 7}, Case{2, 2, 9}, Case{4, 2, 8},
        Case{5, 3, 19}, Case{7, 2, 16}, Case{8, 6, 24}, Case{17, 13, 33},
        Case{12, 7, 65}, Case{33, 31, 64}}) {
    std::vector<float> a =
        random_vec(static_cast<std::size_t>(c.m) * c.k, 9000 + c.m);
    std::vector<float> bt =
        random_vec(static_cast<std::size_t>(c.n) * c.k, 9100 + c.n);
    std::vector<float> c_row(static_cast<std::size_t>(c.m) * c.n, 0.0f);
    std::vector<float> c_blk = c_row;
    tensor::detail::gemm_dot_rowwise<false>(a.data(), c.k, bt.data(), c.k,
                                            c.m, c.n, c.k, c_row.data(), c.n);
    tensor::detail::gemm_dot_panels<false>(a.data(), c.k, bt.data(), c.k,
                                           c.m, c.n, c.k, c_blk.data(), c.n);
    EXPECT_EQ(c_row, c_blk) << "assign " << c.m << "x" << c.n << "x" << c.k;

    // Accumulate variant (the dA backward form) onto a non-zero C.
    std::vector<float> acc_row =
        random_vec(static_cast<std::size_t>(c.m) * c.n, 9200 + c.k);
    std::vector<float> acc_blk = acc_row;
    tensor::detail::gemm_dot_rowwise<true>(a.data(), c.k, bt.data(), c.k,
                                           c.m, c.n, c.k, acc_row.data(),
                                           c.n);
    tensor::detail::gemm_dot_panels<true>(a.data(), c.k, bt.data(), c.k, c.m,
                                          c.n, c.k, acc_blk.data(), c.n);
    EXPECT_EQ(acc_row, acc_blk)
        << "accumulate " << c.m << "x" << c.n << "x" << c.k;
  }
}

TEST(SimdTest, RegisterBlockedAxpyPanelsBitIdenticalToRowwiseAxpy) {
  // gemm_axpy_panels (dB backward) against the PR 2 per-row axpy loop,
  // including the A[i,l]==0 skip (zeros planted explicitly) and row/column
  // tails smaller than the 4-row / 16-float blocks.
  struct Case {
    int rows, m, n;
  };
  for (const Case& c :
       {Case{0, 3, 5}, Case{1, 1, 1}, Case{3, 4, 7}, Case{4, 5, 16},
        Case{5, 9, 19}, Case{7, 3, 8}, Case{8, 6, 33}, Case{13, 11, 40},
        Case{16, 2, 0}, Case{19, 7, 23}}) {
    std::vector<float> at =
        random_vec(static_cast<std::size_t>(c.rows) * c.m, 9300 + c.rows);
    for (std::size_t i = 0; i < at.size(); i += 3) at[i] = 0.0f;  // skips
    std::vector<float> g =
        random_vec(static_cast<std::size_t>(c.m) * c.n, 9400 + c.n);
    std::vector<float> d_ref =
        random_vec(static_cast<std::size_t>(c.rows) * c.n, 9500 + c.m);
    std::vector<float> d_blk = d_ref;
    for (int l = 0; l < c.rows; ++l) {  // the PR 2 loop, verbatim
      const float* trow = at.data() + static_cast<std::int64_t>(l) * c.m;
      float* drow = d_ref.data() + static_cast<std::int64_t>(l) * c.n;
      for (int i = 0; i < c.m; ++i) {
        float ail = trow[i];
        if (ail == 0.0f) continue;
        simd::axpy(drow, ail, g.data() + static_cast<std::int64_t>(i) * c.n,
                   c.n);
      }
    }
    tensor::detail::gemm_axpy_panels(at.data(), c.m, g.data(), c.n, c.rows,
                                     c.m, c.n, d_blk.data(), c.n);
    EXPECT_EQ(d_ref, d_blk) << c.rows << "x" << c.m << "x" << c.n;
  }
}

TEST(SimdTest, Int8GemmBitIdenticalToScalarReferenceOnEdgeShapes) {
  // The int8 kernels (tensor/gemm_int8.h) against a naive dot_s8_ref
  // reference, over the same edge shapes as the float GEMM tests: empty
  // m/n/k, single row/column/depth, tails below the 4x2 block and below one
  // SIMD lane group. Inputs span the full contract domain — activations in
  // [0, 127], weights in [-127, 127] — so this also exercises the widening
  // paths where a saturating kernel would differ. The comparison is exact
  // (integer accumulation), never approximate.
  auto random_u8 = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::uint8_t> v(n);
    for (auto& x : v)
      x = static_cast<std::uint8_t>(rng.uniform(0.0, 127.999));
    return v;
  };
  auto random_s8 = [](std::size_t n, std::uint64_t seed) {
    Rng rng(seed);
    std::vector<std::int8_t> v(n);
    for (auto& x : v)
      x = static_cast<std::int8_t>(rng.uniform(-127.0, 127.999));
    return v;
  };
  struct Case {
    int m, n, k;
  };
  for (const Case& c :
       {Case{0, 0, 0}, Case{0, 3, 5}, Case{3, 0, 5}, Case{2, 5, 0},
        Case{1, 1, 1}, Case{1, 7, 3}, Case{3, 1, 7}, Case{2, 2, 5},
        Case{4, 2, 32}, Case{5, 3, 19}, Case{7, 2, 31}, Case{8, 6, 33},
        Case{17, 13, 40}, Case{12, 7, 65}, Case{33, 31, 64}}) {
    const std::vector<std::uint8_t> a =
        random_u8(static_cast<std::size_t>(c.m) * c.k, 9600 + c.m);
    const std::vector<std::int8_t> bt =
        random_s8(static_cast<std::size_t>(c.n) * c.k, 9700 + c.n);

    // Naive reference: one always-scalar dot per output element.
    std::vector<std::int32_t> ref(static_cast<std::size_t>(c.m) * c.n, 0);
    for (int i = 0; i < c.m; ++i)
      for (int j = 0; j < c.n; ++j)
        ref[static_cast<std::size_t>(i) * c.n + j] = tensor::detail::dot_s8_ref(
            a.data() + static_cast<std::int64_t>(i) * c.k,
            bt.data() + static_cast<std::int64_t>(j) * c.k, c.k);

    std::vector<std::int32_t> rowwise(ref.size(), 0);
    std::vector<std::int32_t> panels(ref.size(), 0);
    tensor::detail::gemm_s8_rowwise<false>(a.data(), c.k, bt.data(), c.k, c.m,
                                           c.n, c.k, rowwise.data(), c.n);
    tensor::detail::gemm_s8_panels<false>(a.data(), c.k, bt.data(), c.k, c.m,
                                          c.n, c.k, panels.data(), c.n);
    EXPECT_EQ(rowwise, ref) << "rowwise " << c.m << "x" << c.n << "x" << c.k;
    EXPECT_EQ(panels, ref) << "panels " << c.m << "x" << c.n << "x" << c.k;

    // Accumulate variant onto a non-zero C (the repeated-relation form).
    std::vector<std::int32_t> base(ref.size());
    {
      Rng rng(9800 + c.k);
      for (auto& x : base)
        x = static_cast<std::int32_t>(rng.uniform(-1000.0, 1000.0));
    }
    std::vector<std::int32_t> acc_ref = base;
    for (std::size_t i = 0; i < ref.size(); ++i) acc_ref[i] += ref[i];
    std::vector<std::int32_t> acc_row = base;
    std::vector<std::int32_t> acc_blk = base;
    tensor::detail::gemm_s8_rowwise<true>(a.data(), c.k, bt.data(), c.k, c.m,
                                          c.n, c.k, acc_row.data(), c.n);
    tensor::detail::gemm_s8_panels<true>(a.data(), c.k, bt.data(), c.k, c.m,
                                         c.n, c.k, acc_blk.data(), c.n);
    EXPECT_EQ(acc_row, acc_ref)
        << "accumulate rowwise " << c.m << "x" << c.n << "x" << c.k;
    EXPECT_EQ(acc_blk, acc_ref)
        << "accumulate panels " << c.m << "x" << c.n << "x" << c.k;
  }
}

TEST(SimdTest, MatmulBackwardBitIdenticalToTreeReference) {
  const int m = 5, k = 19, n = 11;  // odd sizes: tails in every direction
  Rng rng(81);
  Tensor a = Tensor::xavier({m, k}, rng);
  Tensor b = Tensor::xavier({k, n}, rng);
  Tensor c = matmul(a, b);
  // Drive the backward closure directly with a known upstream gradient.
  auto node = c.node();
  node->ensure_grad();
  std::vector<float> g = random_vec(static_cast<std::size_t>(m) * n, 9);
  std::copy(g.begin(), g.end(), node->grad.begin());
  a.grad();  // materialize
  b.grad();
  node->backward_fn(*node);

  // dA[i,l] = tree_dot(g[i,:], B[l,:]).
  for (int i = 0; i < m; ++i)
    for (int l = 0; l < k; ++l)
      ASSERT_EQ(a.grad()[i * k + l],
                ref_dot(g.data() + static_cast<std::int64_t>(i) * n,
                        b.data() + static_cast<std::int64_t>(l) * n, n))
          << "dA(" << i << "," << l << ")";
  // dB[l,:] = sum_i A[i,l] * g[i,:], i ascending, element-wise adds.
  std::vector<float> db(static_cast<std::size_t>(k) * n, 0.0f);
  for (int l = 0; l < k; ++l)
    for (int i = 0; i < m; ++i) {
      float ail = a.at(i, l);
      if (ail == 0.0f) continue;
      for (int j = 0; j < n; ++j) db[l * n + j] += ail * g[i * n + j];
    }
  for (int l = 0; l < k; ++l)
    for (int j = 0; j < n; ++j)
      ASSERT_EQ(b.grad()[l * n + j], db[l * n + j])
          << "dB(" << l << "," << j << ")";
}

TEST(SimdTest, AddBiasActBitIdenticalToScalar) {
  for (int n : {1, 7, 8, 19, 32, 45}) {
    const int m = 3;
    Rng rng(600 + n);
    Tensor a = Tensor::xavier({m, n}, rng);
    Tensor b = Tensor::xavier({1, n}, rng);
    for (Act act : {Act::None, Act::Relu}) {
      Tensor y = add_bias_act(a, b, act);
      for (int i = 0; i < m; ++i)
        for (int j = 0; j < n; ++j) {
          float pre = a.at(i, j) + b.at(0, j);
          float ref = act == Act::Relu && !(pre > 0.0f) ? 0.0f : pre;
          ASSERT_EQ(y.at(i, j), ref)
              << "act " << static_cast<int>(act) << " n=" << n << " (" << i
              << "," << j << ")";
        }
    }
  }
}

TEST(SimdTest, LayerNormForwardBitIdenticalToTreeReference) {
  for (int n : {1, 5, 8, 13, 24, 37}) {
    const int m = 4;
    Rng rng(700 + n);
    Tensor x = Tensor::xavier({m, n}, rng);
    Tensor gamma = Tensor::xavier({1, n}, rng);
    Tensor beta = Tensor::xavier({1, n}, rng);
    Tensor y = layer_norm(x, gamma, beta);
    for (int i = 0; i < m; ++i) {
      const float* row = x.data() + static_cast<std::int64_t>(i) * n;
      float mean = ref_sum(row, n) / static_cast<float>(n);
      float var = ref_sum_sq_diff(row, mean, n) / static_cast<float>(n);
      float inv_std = 1.0f / std::sqrt(var + 1e-5f);
      for (int j = 0; j < n; ++j) {
        float xhat = (row[j] - mean) * inv_std;
        ASSERT_EQ(y.at(i, j), gamma.at(0, j) * xhat + beta.at(0, j))
            << "n=" << n << " (" << i << "," << j << ")";
      }
    }
  }
}

TEST(SimdTest, ScatterKernelsBitIdenticalWithEmptySegments) {
  for (int d : {1, 6, 8, 21, 40}) {
    const int rows = 7;
    Rng rng(800 + d);
    Tensor x = Tensor::xavier({rows, d}, rng);
    // Segment 1 is empty; segment 3 collects most rows.
    std::vector<int> seg{0, 3, 3, 2, 3, 0, 3};
    Tensor pooled = segment_mean(x, seg, 4);
    std::vector<float> ref(static_cast<std::size_t>(4) * d, 0.0f);
    std::vector<float> count(4, 0.0f);
    for (int i = 0; i < rows; ++i) count[seg[i]] += 1.0f;
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < d; ++j)
        ref[seg[i] * d + j] += (1.0f / count[seg[i]]) * x.at(i, j);
    for (int s = 0; s < 4; ++s)
      for (int j = 0; j < d; ++j)
        ASSERT_EQ(pooled.at(s, j), ref[s * d + j])
            << "segment_mean d=" << d << " (" << s << "," << j << ")";
    for (int j = 0; j < d; ++j)
      ASSERT_EQ(pooled.at(1, j), 0.0f) << "empty segment must stay zero";

    std::vector<int> dst{2, 0, 2, 1, 2, 0, 1};
    std::vector<float> coeff{0.5f, 1.0f, 0.25f, 2.0f, 1.5f, 1.0f, 0.75f};
    Tensor scattered = index_add_rows(x, dst, coeff, 3);
    std::vector<float> ref2(static_cast<std::size_t>(3) * d, 0.0f);
    for (int i = 0; i < rows; ++i)
      for (int j = 0; j < d; ++j)
        ref2[dst[i] * d + j] += coeff[i] * x.at(i, j);
    for (int r = 0; r < 3; ++r)
      for (int j = 0; j < d; ++j)
        ASSERT_EQ(scattered.at(r, j), ref2[r * d + j])
            << "index_add_rows d=" << d << " (" << r << "," << j << ")";
  }
}

TEST(TensorTest, NumelIsInt64ForHugeShapes) {
  // 100000 * 30000 = 3e9 overflows int32; numel must report it exactly.
  Shape huge{100000, 30000};
  EXPECT_EQ(huge.numel(), static_cast<std::int64_t>(3000000000LL));
  Shape negative_check{46341, 46341};  // 2147488281 > 2^31 - 1
  EXPECT_GT(negative_check.numel(), 0);
}

TEST(TensorTest, ConstGradAccessDoesNotAllocate) {
  Tensor t = Tensor::zeros({2, 3}, /*requires_grad=*/true);
  const Tensor& ct = t;
  EXPECT_FALSE(t.grad_allocated());
  EXPECT_EQ(ct.grad(), nullptr);       // const read must not materialize
  EXPECT_FALSE(t.grad_allocated());    // ... and must leave no trace
  float* g = t.grad();                 // mutable access materializes zeros
  ASSERT_NE(g, nullptr);
  EXPECT_TRUE(t.grad_allocated());
  EXPECT_EQ(ct.grad(), g);
  EXPECT_EQ(ct.grad()[0], 0.0f);
}

// --- Inference mode (tape-free forward) -------------------------------------

TEST(TensorTest, InferenceModeBitIdenticalToTrainModeForward) {
  // A forward chain exercising every op the GNN inference path uses:
  // embedding gather, matmul, fused bias+act, scatter add, layer norm,
  // segment pooling, log-softmax. The guard must change no bits.
  Rng rng(9001);
  Tensor table = Tensor::xavier({10, 16}, rng);
  Tensor w = Tensor::xavier({16, 16}, rng);
  Tensor b = Tensor::zeros({1, 16}, true);
  Tensor gamma = Tensor::full({1, 16}, 1.0f, true);
  Tensor beta = Tensor::zeros({1, 16}, true);
  Tensor head = Tensor::xavier({16, 5}, rng);
  Tensor head_b = Tensor::zeros({1, 5}, true);
  std::vector<int> idx{0, 3, 7, 2, 9, 5};
  std::vector<int> dst{0, 1, 2, 3, 4, 5};
  std::vector<float> coeff{1.0f, 0.5f, 1.0f, 0.25f, 1.0f, 2.0f};
  std::vector<int> seg{0, 0, 0, 1, 1, 1};

  auto run = [&] {
    Tensor h = embedding(table, idx);
    h = add_bias_act(matmul(h, w), b, Act::Relu);
    h = index_add_rows(h, dst, coeff, 6);
    h = layer_norm(h, gamma, beta);
    Tensor pooled = segment_mean(h, seg, 2);
    return log_softmax(add_bias_act(matmul(pooled, head), head_b, Act::None));
  };

  Tensor train_mode = run();
  EXPECT_TRUE(train_mode.requires_grad());
  Tensor infer_mode;
  {
    EXPECT_FALSE(inference_mode());
    InferenceGuard guard;
    EXPECT_TRUE(inference_mode());
    infer_mode = run();
  }
  EXPECT_FALSE(inference_mode());

  ASSERT_EQ(train_mode.numel(), infer_mode.numel());
  for (std::int64_t i = 0; i < train_mode.numel(); ++i)
    ASSERT_EQ(train_mode.data()[i], infer_mode.data()[i]) << "entry " << i;

  // Tape-free means exactly that: no parents, no closure, no grad state.
  auto node = infer_mode.node();
  EXPECT_FALSE(node->requires_grad);
  EXPECT_EQ(node->num_parents, 0);
  EXPECT_FALSE(static_cast<bool>(node->backward_fn));
  EXPECT_FALSE(infer_mode.grad_allocated());
  // And the parameters' gradient buffers were never materialized by it.
  EXPECT_FALSE(w.grad_allocated());
  EXPECT_FALSE(table.grad_allocated());
}

TEST(TensorTest, InferenceGuardNestsAndRestoresRecording) {
  Tensor a = Tensor::full({1, 1}, 2.0f, true);
  {
    InferenceGuard outer;
    {
      InferenceGuard inner;
      EXPECT_TRUE(inference_mode());
    }
    EXPECT_TRUE(inference_mode());  // inner exit restores outer, not "off"
    Tensor y = mul(a, a);
    EXPECT_FALSE(y.requires_grad());
  }
  // Recording resumes after the scope: backward works again.
  Tensor y = mul(a, a);
  ASSERT_TRUE(y.requires_grad());
  y.backward();
  EXPECT_NEAR(a.grad()[0], 4.0f, 1e-6f);
}

TEST(TensorTest, BackwardThroughSharedSubgraph) {
  // y = a*a used twice: gradients must accumulate once per use.
  Tensor a = Tensor::full({1, 1}, 3.0f, true);
  Tensor sq = mul(a, a);
  Tensor loss = add(sq, sq);  // d/da = 2 * 2a = 12
  loss.backward();
  EXPECT_NEAR(a.grad()[0], 12.0f, 1e-4f);
}

}  // namespace
}  // namespace irgnn::tensor
