// Buffer-arena and zero-allocation tests.
//
// This binary replaces the global operator new/delete with counting
// wrappers, so the strictest test below can assert that a warmed-up
// training step — forward, backward, optimizer — touches the heap exactly
// zero times. Everything in the hot path (tape nodes, data/grad buffers,
// per-op aux vectors, backward closures, pack scratch, traversal stacks,
// optimizer state) must come from the arena or live inline for that to
// hold.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "gnn/model.h"
#include "graph/graph_builder.h"
#include "support/arena.h"
#include "support/inline_function.h"
#include "tensor/optimizer.h"
#include "tensor/tensor.h"
#include "workloads/suite.h"

// --- Global allocation counter ---------------------------------------------

static std::atomic<std::uint64_t> g_heap_allocations{0};

static void* counted_alloc(std::size_t size) {
  ++g_heap_allocations;
  if (void* ptr = std::malloc(size ? size : 1)) return ptr;
  throw std::bad_alloc();
}

void* operator new(std::size_t size) { return counted_alloc(size); }
void* operator new[](std::size_t size) { return counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  ++g_heap_allocations;
  return std::malloc(size ? size : 1);
}
void operator delete(void* ptr) noexcept { std::free(ptr); }
void operator delete[](void* ptr) noexcept { std::free(ptr); }
void operator delete(void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete[](void* ptr, std::size_t) noexcept { std::free(ptr); }
void operator delete(void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}
void operator delete[](void* ptr, const std::nothrow_t&) noexcept {
  std::free(ptr);
}

namespace irgnn {
namespace {

using support::BufferPool;
using tensor::Act;
using tensor::Tensor;

TEST(BufferPoolTest, RecyclesSameBucket) {
  BufferPool& pool = BufferPool::global();
  // Round 1 may allocate; round 2 with identical sizes must not.
  { support::PoolVector<float> v(1000, 1.0f); }
  BufferPool::Stats before = pool.stats();
  { support::PoolVector<float> v(1000, 2.0f); }
  BufferPool::Stats after = pool.stats();
  EXPECT_EQ(after.malloc_calls, before.malloc_calls);
  EXPECT_GT(after.pool_hits, before.pool_hits);
}

TEST(BufferPoolTest, DifferentSizesShareBucketClass) {
  BufferPool& pool = BufferPool::global();
  // 900 and 1000 floats round to the same power-of-two bucket, so the
  // second allocation reuses the first one's block.
  { support::PoolVector<float> v(900); }
  BufferPool::Stats before = pool.stats();
  { support::PoolVector<float> v(1000); }
  EXPECT_EQ(pool.stats().malloc_calls, before.malloc_calls);
}

TEST(BufferPoolTest, MakePooledRecyclesControlBlocks) {
  auto first = support::make_pooled<support::PoolVector<int>>(64, 7);
  first.reset();
  BufferPool::Stats before = BufferPool::global().stats();
  auto second = support::make_pooled<support::PoolVector<int>>(64, 9);
  EXPECT_EQ(BufferPool::global().stats().malloc_calls, before.malloc_calls);
  EXPECT_EQ((*second)[0], 9);
}

TEST(InlineFunctionTest, InvokesAndMoves) {
  auto token = std::make_shared<int>(41);
  support::InlineFunction<int(int), 64> fn =
      [token](int x) { return *token + x; };
  EXPECT_TRUE(static_cast<bool>(fn));
  EXPECT_EQ(fn(1), 42);
  EXPECT_EQ(token.use_count(), 2);

  support::InlineFunction<int(int), 64> moved = std::move(fn);
  EXPECT_FALSE(static_cast<bool>(fn));
  EXPECT_EQ(moved(2), 43);
  EXPECT_EQ(token.use_count(), 2);  // capture moved, not copied

  moved.reset();
  EXPECT_EQ(token.use_count(), 1);  // capture destroyed with the function
}

TEST(FunctionRefTest, BorrowsCallable) {
  int hits = 0;
  auto bump = [&hits](int by) { hits += by; };
  support::FunctionRef<void(int)> ref = bump;
  ref(3);
  ref(4);
  EXPECT_EQ(hits, 7);
}

// One representative training step over every vectorized kernel: two linear
// layers, layer norm, segment pooling, an index_add scatter, NLL loss,
// backward, Adam. Sizes are small enough that kernels stay on the serial
// path (the strict heap assertion needs the in-thread path; the pooled
// multi-thread dispatch is covered by the model test below).
struct StepFixture {
  Rng rng{123};
  Tensor x = Tensor::xavier({24, 32}, rng);
  Tensor w1 = Tensor::xavier({32, 48}, rng);
  Tensor b1 = Tensor::zeros({1, 48}, true);
  Tensor gamma = Tensor::full({1, 48}, 1.0f, true);
  Tensor beta = Tensor::zeros({1, 48}, true);
  Tensor w2 = Tensor::xavier({48, 5}, rng);
  Tensor b2 = Tensor::zeros({1, 5}, true);
  std::vector<int> seg = [] {
    std::vector<int> s(24);
    for (int i = 0; i < 24; ++i) s[i] = i / 6;
    return s;
  }();
  std::vector<int> scatter_dst = [] {
    std::vector<int> d(24);
    for (int i = 0; i < 24; ++i) d[i] = i % 24;
    return d;
  }();
  std::vector<float> scatter_coeff = std::vector<float>(24, 0.5f);
  std::vector<int> targets{0, 2, 4, 1};
  tensor::Adam adam{{w1, b1, gamma, beta, w2, b2}, {.lr = 1e-3f}};

  float step() {
    adam.zero_grad();
    Tensor h = tensor::add_bias_act(tensor::matmul(x, w1), b1, Act::Relu);
    h = tensor::layer_norm(h, gamma, beta);
    h = tensor::index_add_rows(h, scatter_dst, scatter_coeff, 24);
    Tensor pooled = tensor::segment_mean(h, seg, 4);
    Tensor logits = tensor::add_bias_act(tensor::matmul(pooled, w2), b2,
                                         Act::None);
    Tensor loss = tensor::nll_loss(tensor::log_softmax(logits), targets);
    loss.backward();
    adam.step();
    return loss.item();
  }
};

TEST(ZeroAllocationTest, WarmTrainStepNeverTouchesHeap) {
  tensor::set_kernel_parallelism(1);
  StepFixture fix;
  for (int i = 0; i < 5; ++i) fix.step();  // warm the arena

  const std::uint64_t heap_before = g_heap_allocations.load();
  const BufferPool::Stats pool_before = BufferPool::global().stats();
  float last = 0.0f;
  for (int i = 0; i < 20; ++i) last = fix.step();
  const std::uint64_t heap_delta = g_heap_allocations.load() - heap_before;
  const BufferPool::Stats pool_after = BufferPool::global().stats();
  tensor::set_kernel_parallelism(0);

  EXPECT_EQ(heap_delta, 0u) << "a warmed-up train step allocated";
  EXPECT_EQ(pool_after.malloc_calls, pool_before.malloc_calls);
  EXPECT_GT(pool_after.pool_hits, pool_before.pool_hits);
  EXPECT_TRUE(std::isfinite(last));
}

TEST(ZeroAllocationTest, WarmBatchedPredictNeverTouchesHeap) {
  // The inference fast path: once the model's persistent inference context
  // and the arena are warm, a batched predict/evaluate into caller-reused
  // storage must touch the heap exactly zero times — no tape nodes, no
  // batch rebuilds, no output reallocation. 40 graph pointers across 12
  // distinct graphs force multiple inference shards.
  static const std::vector<graph::ProgramGraph> owned = [] {
    std::vector<graph::ProgramGraph> graphs;
    for (int r : {0, 2, 4, 8, 13, 17, 22, 28, 33, 39, 44, 50}) {
      auto module =
          workloads::build_region_module(workloads::benchmark_suite()[r]);
      graphs.push_back(graph::build_graph(*module));
    }
    return graphs;
  }();
  std::vector<const graph::ProgramGraph*> graphs;
  for (int i = 0; i < 40; ++i) graphs.push_back(&owned[i % owned.size()]);

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 4;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.seed = 0xFA57;
  cfg.num_threads = 1;
  tensor::set_kernel_parallelism(1);
  gnn::StaticModel model(cfg);

  std::vector<int> preds;
  gnn::Evaluation eval;
  model.predict_into(graphs, preds);  // warm the context and the arena
  model.evaluate(graphs, eval, /*want_embeddings=*/true);
  const std::vector<int> cold_preds = preds;

  const std::uint64_t heap_before = g_heap_allocations.load();
  const BufferPool::Stats pool_before = BufferPool::global().stats();
  for (int rep = 0; rep < 10; ++rep) {
    model.predict_into(graphs, preds);
    model.evaluate(graphs, eval, /*want_embeddings=*/true);
  }
  const std::uint64_t heap_delta = g_heap_allocations.load() - heap_before;
  const BufferPool::Stats pool_after = BufferPool::global().stats();
  tensor::set_kernel_parallelism(0);

  EXPECT_EQ(heap_delta, 0u) << "a warm batched predict allocated";
  EXPECT_EQ(pool_after.malloc_calls, pool_before.malloc_calls);
  EXPECT_GT(pool_after.pool_hits, pool_before.pool_hits);
  // Recycling storage must never change the answer.
  EXPECT_EQ(preds, cold_preds);
  EXPECT_EQ(eval.predictions, cold_preds);
}

TEST(ZeroAllocationTest, RepeatedModelTrainingIsServedFromArena) {
  // Identical single-threaded training runs: the first warms the arena, the
  // second must draw every tape node, buffer and scratch from it — zero new
  // system allocations through the pool — and (a free cross-check) produce
  // bit-identical losses, since recycling storage must never change bits.
  static const std::vector<graph::ProgramGraph> owned = [] {
    std::vector<graph::ProgramGraph> graphs;
    for (int r : {1, 5, 11, 19, 27, 36}) {
      auto module =
          workloads::build_region_module(workloads::benchmark_suite()[r]);
      graphs.push_back(graph::build_graph(*module));
    }
    return graphs;
  }();
  std::vector<const graph::ProgramGraph*> graphs;
  std::vector<int> labels;
  for (std::size_t i = 0; i < owned.size(); ++i) {
    graphs.push_back(&owned[i]);
    labels.push_back(static_cast<int>(i) % 2);
  }

  gnn::ModelConfig cfg;
  cfg.vocab_size = graph::vocabulary_size();
  cfg.num_labels = 2;
  cfg.hidden_dim = 16;
  cfg.num_layers = 2;
  cfg.epochs = 3;
  cfg.batch_size = 3;
  cfg.dropout = 0.1f;
  cfg.seed = 0xA7E7A;
  cfg.num_threads = 1;

  tensor::set_kernel_parallelism(1);
  auto run = [&] {
    gnn::StaticModel model(cfg);
    return model.train(graphs, labels).epoch_loss;
  };
  std::vector<double> first = run();
  const BufferPool::Stats before = BufferPool::global().stats();
  std::vector<double> second = run();
  const BufferPool::Stats after = BufferPool::global().stats();
  tensor::set_kernel_parallelism(0);

  EXPECT_EQ(after.malloc_calls, before.malloc_calls)
      << "second training run should be fully served by the arena";
  ASSERT_EQ(first.size(), second.size());
  for (std::size_t e = 0; e < first.size(); ++e)
    EXPECT_EQ(first[e], second[e]) << "epoch " << e;
}

}  // namespace
}  // namespace irgnn
