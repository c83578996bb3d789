#include "gnn/inference_model.h"

#include <algorithm>

#include "gnn/model.h"
#include "support/thread_pool.h"

namespace irgnn::gnn {

using tensor::Tensor;

int InferenceModel::num_labels() const { return config().num_labels; }
int InferenceModel::hidden_dim() const { return config().hidden_dim; }

void InferenceModel::forward_shards(
    const std::vector<const graph::ProgramGraph*>& graphs,
    bool want_embeddings,
    support::FunctionRef<void(std::size_t, const Tensor&, const Tensor&)>
        consume) const {
  if (graphs.empty()) return;
  std::lock_guard<std::mutex> lock(infer_mutex_);
  const std::size_t G = graphs.size();
  const std::size_t num_shards = (G + kGraphsPerShard - 1) / kGraphsPerShard;
  if (infer_shards_.size() < num_shards) infer_shards_.resize(num_shards);

  auto run_shard = [&](std::int64_t s) {
    // Arm the tape switch on whichever thread runs this shard: forward
    // records no nodes, touches no grad buffers, builds no backward scratch.
    tensor::InferenceGuard guard;
    const std::size_t g0 = static_cast<std::size_t>(s) * kGraphsPerShard;
    const std::size_t g1 = std::min(G, g0 + kGraphsPerShard);
    InferenceShard& shard = infer_shards_[s];
    shard.chunk.clear();
    for (std::size_t g = g0; g < g1; ++g) shard.chunk.push_back(graphs[g]);
    make_batch_into(shard.batch, shard.chunk);
    Tensor embeddings;
    Tensor logits = forward(shard.batch, shard,
                            want_embeddings ? &embeddings : nullptr);
    consume(g0, logits, embeddings);
  };

  // Per-graph outputs never depend on which other graphs share a batch
  // (message passing stays inside a graph, pooling is per segment, every
  // float kernel's reduction order is per output element, and int8
  // accumulation is exact integer math), so the sharded results are
  // bit-identical to one full-batch forward — and to each other for every
  // thread count, since shards partition by index.
  if (num_shards == 1)
    run_shard(0);
  else
    support::ThreadPool::global().parallel_for(
        0, static_cast<std::int64_t>(num_shards), config().num_threads,
        run_shard);
}

void InferenceModel::predict_into(
    const std::vector<const graph::ProgramGraph*>& graphs,
    std::vector<int>& out) const {
  out.resize(graphs.size());
  const int L = num_labels();
  forward_shards(
      graphs, /*want_embeddings=*/false,
      [&](std::size_t g0, const Tensor& logits, const Tensor&) {
        for (int i = 0; i < logits.rows(); ++i)
          out[g0 + static_cast<std::size_t>(i)] = tensor::argmax_row(
              logits.data() + static_cast<std::int64_t>(i) * L, L);
      });
}

void InferenceModel::evaluate(
    const std::vector<const graph::ProgramGraph*>& graphs, Evaluation& out,
    bool want_embeddings) const {
  const int L = num_labels();
  const int H = hidden_dim();
  const std::size_t G = graphs.size();
  out.predictions.resize(G);
  out.log_probs.resize(G * static_cast<std::size_t>(L));
  out.embeddings.resize(want_embeddings ? G * static_cast<std::size_t>(H)
                                        : 0);
  forward_shards(
      graphs, want_embeddings,
      [&](std::size_t g0, const Tensor& logits, const Tensor& embeddings) {
        // Still inside the shard's InferenceGuard: tape-free log_softmax.
        Tensor logp = tensor::log_softmax(logits);
        const std::int64_t rows = logits.rows();
        std::copy(logp.data(), logp.data() + rows * L,
                  out.log_probs.begin() + g0 * static_cast<std::size_t>(L));
        for (std::int64_t i = 0; i < rows; ++i)
          out.predictions[g0 + static_cast<std::size_t>(i)] =
              tensor::argmax_row(logits.data() + i * L, L);
        if (want_embeddings)
          std::copy(embeddings.data(), embeddings.data() + rows * H,
                    out.embeddings.begin() + g0 * static_cast<std::size_t>(H));
      });
}

}  // namespace irgnn::gnn
