#include "tensor/tensor.h"

#include <algorithm>
#include <atomic>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "support/simd.h"
#include "support/thread_pool.h"
#include "tensor/gemm.h"

namespace irgnn::tensor {

using detail::Node;
using simd::v8f;

namespace {

std::atomic<int> g_kernel_parallelism{0};  // <= 0: all global-pool workers

/// Per-thread tape switch; see InferenceGuard. Thread-local because a pool
/// worker running an inference shard must not stop a concurrent training
/// shard on another worker from recording.
thread_local bool t_inference_mode = false;

/// Monotone epoch for backward() traversals; see Node::visit_mark.
std::atomic<std::uint64_t> g_visit_epoch{0};

/// Rows per parallel work item: large enough that scheduling noise is
/// amortized, small enough that row counts in the tens still spread.
constexpr std::int64_t kRowBlock = 16;
/// Below this many scalar multiply-adds a kernel runs serially.
constexpr std::int64_t kParallelFlops = 16 * 1024;

/// Runs fn(row_begin, row_end) over blocks of rows, in parallel when `flops`
/// justifies it. Blocks are disjoint, so any per-row-owned output keeps the
/// bit-identical-across-thread-counts contract. Templated (not
/// std::function) so the serial path inlines and the parallel path passes a
/// borrowed FunctionRef — no allocation either way.
template <typename Fn>
void for_row_blocks(std::int64_t rows, std::int64_t flops, const Fn& fn) {
  if (flops < kParallelFlops || rows <= kRowBlock) {
    fn(static_cast<std::int64_t>(0), rows);
    return;
  }
  std::int64_t blocks = (rows + kRowBlock - 1) / kRowBlock;
  support::ThreadPool::global().parallel_for(
      0, blocks, g_kernel_parallelism.load(), [&](std::int64_t b) {
        fn(b * kRowBlock, std::min(rows, (b + 1) * kRowBlock));
      });
}

std::shared_ptr<Node> make_node(Shape shape) {
  auto node = support::make_pooled<Node>();
  node->shape = shape;
  node->data.assign(static_cast<std::size_t>(shape.numel()), 0.0f);
  return node;
}

/// Output node wired to parents; requires_grad propagates. Under an
/// InferenceGuard the node stays tape-free: no parents, no closure, no grad
/// propagation — parents' buffers can recycle the moment their handles die.
std::shared_ptr<Node> make_op_node(
    Shape shape, std::initializer_list<std::shared_ptr<Node>> parents,
    support::InlineFunction<void(Node&), 64> backward) {
  auto node = make_node(shape);
  if (t_inference_mode) return node;
  for (const auto& p : parents) node->requires_grad |= p->requires_grad;
  if (node->requires_grad) {
    // Hard check, not an assert: overflowing the fixed parent array would
    // corrupt the adjacent inline closure storage in NDEBUG builds.
    if (parents.size() > Node::kMaxParents)
      throw std::logic_error("op exceeds Node::kMaxParents inputs");
    int count = 0;
    for (const auto& p : parents) node->parents[count++] = p;
    node->num_parents = count;
    node->backward_fn = std::move(backward);
  }
  return node;
}

}  // namespace

void set_kernel_parallelism(int max_threads) {
  g_kernel_parallelism.store(max_threads > 0 ? max_threads : 0);
}

int kernel_parallelism() { return g_kernel_parallelism.load(); }

InferenceGuard::InferenceGuard() : prev_(t_inference_mode) {
  t_inference_mode = true;
}

InferenceGuard::~InferenceGuard() { t_inference_mode = prev_; }

bool inference_mode() { return t_inference_mode; }

Tensor Tensor::zeros(Shape shape, bool requires_grad) {
  auto node = make_node(shape);
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::full(Shape shape, float value, bool requires_grad) {
  auto node = make_node(shape);
  std::fill(node->data.begin(), node->data.end(), value);
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::from_data(Shape shape, std::vector<float> values,
                         bool requires_grad) {
  assert(static_cast<std::int64_t>(values.size()) == shape.numel());
  // Bypass make_node's zero fill: assign into the empty pooled buffer so
  // the data is written once (replica cloning calls this per shard).
  auto node = support::make_pooled<Node>();
  node->shape = shape;
  node->data.assign(values.begin(), values.end());
  node->requires_grad = requires_grad;
  return Tensor(node);
}

Tensor Tensor::xavier(Shape shape, Rng& rng) {
  auto node = make_node(shape);
  float limit = std::sqrt(6.0f / static_cast<float>(shape.rows + shape.cols));
  for (float& v : node->data)
    v = static_cast<float>(rng.uniform(-limit, limit));
  node->requires_grad = true;
  return Tensor(node);
}

Tensor Tensor::kaiming(Shape shape, Rng& rng) {
  auto node = make_node(shape);
  float stddev = std::sqrt(2.0f / static_cast<float>(shape.rows));
  for (float& v : node->data)
    v = static_cast<float>(rng.normal(0.0, stddev));
  node->requires_grad = true;
  return Tensor(node);
}

void Tensor::backward() {
  if (!node_->requires_grad)
    throw std::logic_error("backward() on a non-grad tensor");
  // Topological order via iterative DFS. Visited state is an epoch stamp on
  // the node (no per-call hash set) and the work vectors recycle through the
  // arena, so the traversal itself is allocation-free once warm. Index into
  // the stack rather than holding a reference: pushing may reallocate.
  const std::uint64_t epoch =
      g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  support::PoolVector<Node*> order;
  support::PoolVector<std::pair<Node*, int>> stack;
  stack.push_back({node_.get(), 0});
  node_->visit_mark = epoch;
  while (!stack.empty()) {
    std::size_t top = stack.size() - 1;
    Node* node = stack[top].first;
    if (stack[top].second < node->num_parents) {
      Node* child = node->parents[stack[top].second++].get();
      if (child->requires_grad && child->visit_mark != epoch) {
        child->visit_mark = epoch;
        stack.push_back({child, 0});
      }
    } else {
      order.push_back(node);
      stack.pop_back();
    }
  }
  node_->ensure_grad();
  std::fill(node_->grad.begin(), node_->grad.end(), 0.0f);
  node_->grad[0] = 1.0f;  // seed (scalar roots)
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if ((*it)->backward_fn) {
      for (int p = 0; p < (*it)->num_parents; ++p)
        if ((*it)->parents[p]->requires_grad) (*it)->parents[p]->ensure_grad();
      (*it)->backward_fn(**it);
    }
  }
}

// ---------------------------------------------------------------------------
// Kernels
// ---------------------------------------------------------------------------

namespace {

/// Packs src[rows, cols] transposed into dst[cols, rows]. dst recycles
/// through the arena (callers hold it only for the kernel's duration).
void transpose_into(const float* src, std::int64_t rows, std::int64_t cols,
                    support::PoolVector<float>& dst) {
  dst.resize(static_cast<std::size_t>(rows * cols));
  constexpr std::int64_t kTile = 32;
  for (std::int64_t i0 = 0; i0 < rows; i0 += kTile)
    for (std::int64_t j0 = 0; j0 < cols; j0 += kTile)
      for (std::int64_t i = i0; i < std::min(rows, i0 + kTile); ++i)
        for (std::int64_t j = j0; j < std::min(cols, j0 + kTile); ++j)
          dst[j * rows + i] = src[i * cols + j];
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.cols() == b.rows());
  const std::int64_t m = a.rows();
  const std::int64_t k = a.cols();
  const std::int64_t n = b.cols();
  const std::int64_t flops = m * k * n;
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, {a.node(), b.node()},
      [m, k, n, flops](Node& out) {
        Node& A = *out.parents[0];
        Node& B = *out.parents[1];
        const float* g = out.grad.data();
        if (A.requires_grad) {
          // dA[i,l] += sum_j g[i,j] * B[l,j] — a GEMM over dot products with
          // B's rows already contiguous in j (B itself is the packed panel).
          // Register-blocked 4x2, bit-identical to one simd::dot per entry.
          float* ga = A.grad.data();
          const float* pb = B.data.data();
          for_row_blocks(m, flops, [&](std::int64_t i0, std::int64_t i1) {
            detail::gemm_dot_panels<true>(g + i0 * n, n, pb, n, i1 - i0, k, n,
                                          ga + i0 * k, k);
          });
        }
        if (B.requires_grad) {
          // dB[l,:] += A[i,l] * g[i,:], i ascending. Pack A transposed so
          // each dB row reads a contiguous At row; parallel over dB rows,
          // register-blocked four rows at a time with the column strips held
          // in registers across the whole i loop.
          float* gb = B.grad.data();
          support::PoolVector<float> at;  // [k, m]
          transpose_into(A.data.data(), m, k, at);
          for_row_blocks(k, flops, [&](std::int64_t l0, std::int64_t l1) {
            detail::gemm_axpy_panels(at.data() + l0 * m, m, g, n, l1 - l0, m,
                                     n, gb + l0 * n, n);
          });
        }
      });
  // Forward: pack B transposed once; the panel is reused by every row block.
  // The register-blocked micro-kernel computes 4x2 outputs per call, each
  // still the canonical 8-wide tree dot product of its A row and Bt row.
  const float* pa = a.data();
  float* pc = node->data.data();
  support::PoolVector<float> bt;  // [n, k]
  transpose_into(b.data(), k, n, bt);
  for_row_blocks(m, flops, [&](std::int64_t i0, std::int64_t i1) {
    detail::gemm_dot_panels<false>(pa + i0 * k, k, bt.data(), k, i1 - i0, n,
                                   k, pc + i0 * n, n);
  });
  return Tensor(node);
}

namespace {

Tensor elementwise(const Tensor& a, const Tensor& b, float sign_b,
                   bool product) {
  assert(a.shape() == b.shape());
  auto node = make_op_node(
      a.shape(), {a.node(), b.node()},
      [sign_b, product](Node& out) {
        Node& A = *out.parents[0];
        Node& B = *out.parents[1];
        const std::size_t n = out.data.size();
        for (std::size_t i = 0; i < n; ++i) {
          float g = out.grad[i];
          if (product) {
            if (A.requires_grad) A.grad[i] += g * B.data[i];
            if (B.requires_grad) B.grad[i] += g * A.data[i];
          } else {
            if (A.requires_grad) A.grad[i] += g;
            if (B.requires_grad) B.grad[i] += g * sign_b;
          }
        }
      });
  const std::size_t n = node->data.size();
  for (std::size_t i = 0; i < n; ++i)
    node->data[i] = product ? a.data()[i] * b.data()[i]
                            : a.data()[i] + sign_b * b.data()[i];
  return Tensor(node);
}

}  // namespace

Tensor add(const Tensor& a, const Tensor& b) {
  return elementwise(a, b, 1.0f, false);
}
Tensor sub(const Tensor& a, const Tensor& b) {
  return elementwise(a, b, -1.0f, false);
}
Tensor mul(const Tensor& a, const Tensor& b) {
  return elementwise(a, b, 0.0f, true);
}

namespace {

/// y[0..n) = act(a[0..n) + b[0..n)), 8-wide; relu via max is bit-identical
/// to the scalar `x > 0 ? x : 0` of the tail.
void bias_act_row(const float* a, const float* b, float* y, std::int64_t n,
                  Act act) {
  std::int64_t j = 0;
  if (act == Act::Relu) {
    v8f zero = v8f::zero();
    for (; j + simd::kLanes <= n; j += simd::kLanes)
      v8f::max(v8f::load(a + j) + v8f::load(b + j), zero).store(y + j);
  } else {
    for (; j + simd::kLanes <= n; j += simd::kLanes)
      (v8f::load(a + j) + v8f::load(b + j)).store(y + j);
  }
  for (; j < n; ++j) {
    const float x = a[j] + b[j];
    y[j] = act == Act::Relu ? (x > 0.0f ? x : 0.0f) : x;
  }
}

}  // namespace

Tensor add_bias_act(const Tensor& a, const Tensor& b, Act act) {
  assert(b.rows() == 1 && b.cols() == a.cols());
  const std::int64_t m = a.rows();
  const std::int64_t n = a.cols();
  const std::int64_t work = m * n;
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, {a.node(), b.node()},
      [m, n, act, work](Node& out) {
        Node& A = *out.parents[0];
        Node& B = *out.parents[1];
        // Partition by *columns*: each column owns its bias-gradient slot, so
        // the row sum stays an ordered (i ascending) deterministic reduction
        // inside one work item. Within a column span the update is 8-wide;
        // the per-(i,j) value never depends on the span boundaries.
        for_row_blocks(n, work, [&](std::int64_t j0, std::int64_t j1) {
          for (std::int64_t i = 0; i < m; ++i) {
            const float* grow = out.grad.data() + i * n;
            const float* yrow = out.data.data() + i * n;
            float* garow = A.requires_grad ? A.grad.data() + i * n : nullptr;
            float* gb = B.requires_grad ? B.grad.data() : nullptr;
            std::int64_t j = j0;
            // relu's derivative is read off its output: y > 0 passes g.
            for (; j + simd::kLanes <= j1; j += simd::kLanes) {
              v8f gd = v8f::load(grow + j);
              if (act == Act::Relu)
                gd = v8f::where_gt_zero(v8f::load(yrow + j), gd);
              if (garow != nullptr)
                (v8f::load(garow + j) + gd).store(garow + j);
              if (gb != nullptr) (v8f::load(gb + j) + gd).store(gb + j);
            }
            for (; j < j1; ++j) {
              float gd = act == Act::Relu
                             ? grow[j] * (yrow[j] > 0.0f ? 1.0f : 0.0f)
                             : grow[j];
              if (garow != nullptr) garow[j] += gd;
              if (gb != nullptr) gb[j] += gd;
            }
          }
        });
      });
  const float* pa = a.data();
  const float* pb = b.data();
  float* py = node->data.data();
  for_row_blocks(m, work, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i)
      bias_act_row(pa + i * n, pb, py + i * n, n, act);
  });
  return Tensor(node);
}

Tensor scale(const Tensor& a, float s) {
  auto node = make_op_node(a.shape(), {a.node()}, [s](Node& out) {
    Node& A = *out.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      A.grad[i] += s * out.grad[i];
  });
  for (std::size_t i = 0; i < node->data.size(); ++i)
    node->data[i] = s * a.data()[i];
  return Tensor(node);
}

Tensor relu(const Tensor& a) {
  auto node = make_op_node(a.shape(), {a.node()}, [](Node& out) {
    Node& A = *out.parents[0];
    if (!A.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      if (out.data[i] > 0.0f) A.grad[i] += out.grad[i];
  });
  for (std::size_t i = 0; i < node->data.size(); ++i)
    node->data[i] = std::max(0.0f, a.data()[i]);
  return Tensor(node);
}

Tensor layer_norm(const Tensor& x, const Tensor& gamma, const Tensor& beta,
                  float eps) {
  assert(gamma.rows() == 1 && gamma.cols() == x.cols());
  assert(beta.rows() == 1 && beta.cols() == x.cols());
  const std::int64_t m = x.rows();
  const std::int64_t n = x.cols();
  // Cache per-row mean and inverse stddev for the backward pass.
  auto stats = support::make_pooled<support::PoolVector<float>>(2 * m);
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)},
      {x.node(), gamma.node(), beta.node()},
      [m, n, stats](Node& out) {
        Node& X = *out.parents[0];
        Node& G = *out.parents[1];
        Node& B = *out.parents[2];
        const v8f vn = v8f::broadcast(static_cast<float>(n));
        for (std::int64_t i = 0; i < m; ++i) {
          const float mean = (*stats)[2 * i];
          const float inv_std = (*stats)[2 * i + 1];
          const v8f vmean = v8f::broadcast(mean);
          const v8f vinv = v8f::broadcast(inv_std);
          const float* xrow = X.data.data() + i * n;
          const float* grow = out.grad.data() + i * n;
          // xhat_j = (x_j - mean) * inv_std; y_j = gamma_j * xhat_j + beta_j.
          // The two row sums fold 8-lane blocks through the fixed tree, then
          // tail elements in order — one canonical reduction per row.
          v8f acc_dy_g = v8f::zero();
          v8f acc_dy_g_xhat = v8f::zero();
          std::int64_t j = 0;
          for (; j + simd::kLanes <= n; j += simd::kLanes) {
            v8f xhat = (v8f::load(xrow + j) - vmean) * vinv;
            v8f dy = v8f::load(grow + j);
            v8f dy_g = dy * v8f::load(G.data.data() + j);
            acc_dy_g += dy_g;
            acc_dy_g_xhat += dy_g * xhat;
            if (G.requires_grad)
              (v8f::load(G.grad.data() + j) + dy * xhat)
                  .store(G.grad.data() + j);
            if (B.requires_grad)
              (v8f::load(B.grad.data() + j) + dy).store(B.grad.data() + j);
          }
          float sum_dy_g = acc_dy_g.hsum();
          float sum_dy_g_xhat = acc_dy_g_xhat.hsum();
          for (; j < n; ++j) {
            float xhat = (xrow[j] - mean) * inv_std;
            float dy = grow[j];
            float dy_g = dy * G.data[j];
            sum_dy_g += dy_g;
            sum_dy_g_xhat += dy_g * xhat;
            if (G.requires_grad) G.grad[j] += dy * xhat;
            if (B.requires_grad) B.grad[j] += dy;
          }
          if (X.requires_grad) {
            float* gx = X.grad.data() + i * n;
            const v8f vs1 = v8f::broadcast(sum_dy_g);
            const v8f vs2 = v8f::broadcast(sum_dy_g_xhat);
            j = 0;
            for (; j + simd::kLanes <= n; j += simd::kLanes) {
              v8f xhat = (v8f::load(xrow + j) - vmean) * vinv;
              v8f dy_g = v8f::load(grow + j) * v8f::load(G.data.data() + j);
              v8f num = (vs1 + xhat * vs2) / vn;
              (v8f::load(gx + j) + vinv * (dy_g - num)).store(gx + j);
            }
            for (; j < n; ++j) {
              float xhat = (xrow[j] - mean) * inv_std;
              gx[j] += inv_std *
                       (grow[j] * G.data[j] -
                        (sum_dy_g + xhat * sum_dy_g_xhat) /
                            static_cast<float>(n));
            }
          }
        }
      });
  // Rows normalize independently (stats slots are per-row too). Mean and
  // variance use the canonical tree reductions of support/simd.h.
  const float* px = x.data();
  const float* pg = gamma.data();
  const float* pbeta = beta.data();
  float* py = node->data.data();
  for_row_blocks(m, m * n * 3, [&](std::int64_t i0, std::int64_t i1) {
    for (std::int64_t i = i0; i < i1; ++i) {
      const float* xrow = px + i * n;
      float mean = simd::sum(xrow, n) / static_cast<float>(n);
      float var = simd::sum_sq_diff(xrow, mean, n) / static_cast<float>(n);
      float inv_std = 1.0f / std::sqrt(var + eps);
      (*stats)[2 * i] = mean;
      (*stats)[2 * i + 1] = inv_std;
      float* yrow = py + i * n;
      const v8f vmean = v8f::broadcast(mean);
      const v8f vinv = v8f::broadcast(inv_std);
      std::int64_t j = 0;
      for (; j + simd::kLanes <= n; j += simd::kLanes) {
        v8f xhat = (v8f::load(xrow + j) - vmean) * vinv;
        (v8f::load(pg + j) * xhat + v8f::load(pbeta + j)).store(yrow + j);
      }
      for (; j < n; ++j) {
        float xhat = (xrow[j] - mean) * inv_std;
        yrow[j] = pg[j] * xhat + pbeta[j];
      }
    }
  });
  return Tensor(node);
}

Tensor embedding(const Tensor& table, const std::vector<int>& indices) {
  const std::int64_t d = table.cols();
  const std::int64_t m = static_cast<std::int64_t>(indices.size());
  // The index copy exists only for the backward closure; skip it when the
  // tape is off or the table is frozen (the closure is dropped either way).
  std::shared_ptr<support::PoolVector<int>> idx;
  if (!inference_mode() && table.requires_grad())
    idx = support::make_pooled<support::PoolVector<int>>(indices.begin(),
                                                         indices.end());
  auto node = make_op_node({static_cast<int>(m), static_cast<int>(d)},
                           {table.node()}, [d, m, idx](Node& out) {
                             Node& T = *out.parents[0];
                             if (!T.requires_grad) return;
                             for (std::int64_t i = 0; i < m; ++i)
                               simd::add_inplace(
                                   T.grad.data() + (*idx)[i] * d,
                                   out.grad.data() + i * d, d);
                           });
  for (std::int64_t i = 0; i < m; ++i) {
    assert(indices[i] >= 0 && indices[i] < table.rows());
    std::copy(table.data() + indices[i] * d,
              table.data() + (indices[i] + 1) * d, node->data.data() + i * d);
  }
  return Tensor(node);
}

Tensor gather_rows(const Tensor& x, const std::vector<int>& index) {
  return embedding(x, index);  // identical semantics
}

Tensor index_add_rows(const Tensor& x, const std::vector<int>& dst,
                      const std::vector<float>& coeff, int num_rows) {
  assert(dst.size() == static_cast<std::size_t>(x.rows()));
  assert(coeff.size() == dst.size());
  const std::int64_t d = x.cols();
  const std::int64_t e = x.rows();
  // Backward-only copies (forward reads the caller's vectors directly).
  std::shared_ptr<support::PoolVector<int>> dst_copy;
  std::shared_ptr<support::PoolVector<float>> coeff_copy;
  if (!inference_mode() && x.requires_grad()) {
    dst_copy =
        support::make_pooled<support::PoolVector<int>>(dst.begin(), dst.end());
    coeff_copy = support::make_pooled<support::PoolVector<float>>(
        coeff.begin(), coeff.end());
  }
  auto node = make_op_node(
      {num_rows, static_cast<int>(d)}, {x.node()},
      [d, e, dst_copy, coeff_copy](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        // Each edge owns its x-gradient row; destination rows are only read.
        for_row_blocks(e, e * d, [&](std::int64_t i0, std::int64_t i1) {
          for (std::int64_t i = i0; i < i1; ++i)
            simd::axpy(X.grad.data() + i * d, (*coeff_copy)[i],
                       out.grad.data() + (*dst_copy)[i] * d, d);
        });
      });
  for (std::int64_t i = 0; i < e; ++i) {
    assert(dst[i] >= 0 && dst[i] < num_rows);
    simd::axpy(node->data.data() + dst[i] * d, coeff[i], x.data() + i * d, d);
  }
  return Tensor(node);
}

Tensor segment_mean(const Tensor& x, const std::vector<int>& segment,
                    int num_segments) {
  assert(segment.size() == static_cast<std::size_t>(x.rows()));
  const std::int64_t d = x.cols();
  const std::int64_t n = x.rows();
  auto counts = support::make_pooled<support::PoolVector<float>>(
      static_cast<std::size_t>(num_segments), 0.0f);
  for (std::int64_t i = 0; i < n; ++i) (*counts)[segment[i]] += 1.0f;
  std::shared_ptr<support::PoolVector<int>> seg;  // backward-only copy
  if (!inference_mode() && x.requires_grad())
    seg = support::make_pooled<support::PoolVector<int>>(segment.begin(),
                                                         segment.end());
  auto node = make_op_node(
      {num_segments, static_cast<int>(d)}, {x.node()},
      [d, n, seg, counts](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        for (std::int64_t i = 0; i < n; ++i)
          simd::axpy(X.grad.data() + i * d, 1.0f / (*counts)[(*seg)[i]],
                     out.grad.data() + (*seg)[i] * d, d);
      });
  for (std::int64_t i = 0; i < n; ++i)
    simd::axpy(node->data.data() + segment[i] * d, 1.0f / (*counts)[segment[i]],
               x.data() + i * d, d);
  return Tensor(node);
}

Tensor log_softmax(const Tensor& x) {
  const std::int64_t m = x.rows();
  const std::int64_t n = x.cols();
  auto node = make_op_node(
      {static_cast<int>(m), static_cast<int>(n)}, {x.node()},
      [m, n](Node& out) {
        Node& X = *out.parents[0];
        if (!X.requires_grad) return;
        for (std::int64_t i = 0; i < m; ++i) {
          float sum_g = 0.0f;
          for (std::int64_t j = 0; j < n; ++j) sum_g += out.grad[i * n + j];
          for (std::int64_t j = 0; j < n; ++j)
            X.grad[i * n + j] +=
                out.grad[i * n + j] - std::exp(out.data[i * n + j]) * sum_g;
        }
      });
  for (std::int64_t i = 0; i < m; ++i) {
    float mx = x.data()[i * n];
    for (std::int64_t j = 1; j < n; ++j)
      mx = std::max(mx, x.data()[i * n + j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < n; ++j)
      sum += std::exp(x.data()[i * n + j] - mx);
    float lse = mx + std::log(sum);
    for (std::int64_t j = 0; j < n; ++j)
      node->data[i * n + j] = x.data()[i * n + j] - lse;
  }
  return Tensor(node);
}

Tensor nll_loss(const Tensor& log_probs, const std::vector<int>& targets) {
  assert(targets.size() == static_cast<std::size_t>(log_probs.rows()));
  const std::int64_t m = log_probs.rows();
  const std::int64_t n = log_probs.cols();
  std::shared_ptr<support::PoolVector<int>> tgt;  // backward-only copy
  if (!inference_mode() && log_probs.requires_grad())
    tgt = support::make_pooled<support::PoolVector<int>>(targets.begin(),
                                                         targets.end());
  auto node = make_op_node({1, 1}, {log_probs.node()}, [m, n, tgt](Node& out) {
    Node& L = *out.parents[0];
    if (!L.requires_grad) return;
    float g = out.grad[0] / static_cast<float>(m);
    for (std::int64_t i = 0; i < m; ++i) L.grad[i * n + (*tgt)[i]] -= g;
  });
  float loss = 0.0f;
  for (std::int64_t i = 0; i < m; ++i) {
    assert(targets[i] >= 0 && targets[i] < n);
    loss -= log_probs.data()[i * n + targets[i]];
  }
  node->data[0] = loss / static_cast<float>(m);
  return Tensor(node);
}

Tensor dropout(const Tensor& x, float p, Rng& rng, bool training) {
  if (!training || p <= 0.0f) return x;
  auto mask = support::make_pooled<support::PoolVector<float>>(
      static_cast<std::size_t>(x.numel()));
  float keep = 1.0f - p;
  for (float& v : *mask) v = rng.bernoulli(keep) ? 1.0f / keep : 0.0f;
  auto node = make_op_node(x.shape(), {x.node()}, [mask](Node& out) {
    Node& X = *out.parents[0];
    if (!X.requires_grad) return;
    for (std::size_t i = 0; i < out.data.size(); ++i)
      X.grad[i] += (*mask)[i] * out.grad[i];
  });
  for (std::int64_t i = 0; i < x.numel(); ++i)
    node->data[i] = (*mask)[i] * x.data()[i];
  return Tensor(node);
}

int argmax_row(const float* row, int n) {
  int best = 0;
  for (int j = 1; j < n; ++j)
    if (row[j] > row[best]) best = j;
  return best;
}

}  // namespace irgnn::tensor
