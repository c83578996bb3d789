// The servable-model base: what the serving layer (serve::InferenceServer,
// serve::Router) requires of anything it publishes, and the one sharded
// inference driver behind it.
//
// Two implementations exist: the float gnn::StaticModel (gnn/model.h) and the
// post-training int8 gnn::QuantizedModel (gnn/quantize.h) it produces. The
// serving layer holds models as shared_ptr<const InferenceModel> and calls
// predict_into / evaluate, which this class defines once for both: the graph
// set splits into fixed 16-graph shards across the shared pool, each shard
// builds its batch into persistent scratch and runs the model's tape-free
// forward() — the only step an implementation supplies, one virtual dispatch
// per shard — and per-shard results land in shard order. Float and quantized
// versions therefore publish, hot-swap and mix behind the same Router with no
// serve-side type knowledge.
//
// The driver's contract, for every implementation: predict_into / evaluate
// are const and thread-compatible (serialized per model by an internal lock;
// distinct models run concurrently), results are bit-identical to a serial
// full-batch forward for every thread count and batch composition, and a
// warm call into caller-reused output storage performs zero heap
// allocations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <vector>

#include "gnn/graph_batch.h"
#include "graph/program_graph.h"
#include "support/arena.h"
#include "support/inline_function.h"
#include "tensor/tensor.h"

namespace irgnn::gnn {

struct ModelConfig;  // gnn/model.h

/// Everything one inference pass can report, in flat caller-owned storage so
/// a warm evaluate() performs no heap allocations. All three members come
/// from the same batch build + forward per shard — logits, log-probs and
/// embeddings are never computed from separately re-packed batches.
struct Evaluation {
  std::vector<int> predictions;  // [G] argmax label per graph
  std::vector<float> log_probs;  // [G * num_labels], row-major
  std::vector<float> embeddings; // [G * hidden_dim] when requested, else empty
};

class InferenceModel {
 public:
  virtual ~InferenceModel() = default;

  /// Predicted label per graph into caller-owned storage (resized to the
  /// graph count). The allocation-free form for hot query loops.
  void predict_into(const std::vector<const graph::ProgramGraph*>& graphs,
                    std::vector<int>& out) const;

  /// Predictions + log-probabilities (+ graph embeddings when requested)
  /// from one batch build and one forward per shard.
  void evaluate(const std::vector<const graph::ProgramGraph*>& graphs,
                Evaluation& out, bool want_embeddings = false) const;

  /// Convenience allocating form of predict_into.
  std::vector<int> predict(
      const std::vector<const graph::ProgramGraph*>& graphs) const {
    std::vector<int> out;
    predict_into(graphs, out);
    return out;
  }

  /// The configuration the model was built (or quantized) from; the driver
  /// reads num_labels, hidden_dim and the num_threads shard-dispatch cap.
  virtual const ModelConfig& config() const = 0;
  int num_labels() const;
  int hidden_dim() const;

 protected:
  /// Graphs per inference (and calibration) shard. A fixed constant — never
  /// derived from the thread count — so the shard partition, and with it
  /// every output bit, is identical no matter how many workers run shards.
  static constexpr std::size_t kGraphsPerShard = 16;

  /// One shard's persistent scratch, reused across queries so a warm shard
  /// assembles and runs allocation-free: the graph chunk, its pooled batch,
  /// and the int8 path's quantized-activation / accumulator buffers (the
  /// float forward leaves those empty and unallocated).
  struct InferenceShard {
    std::vector<const graph::ProgramGraph*> chunk;
    GraphBatch batch;
    support::PoolVector<std::uint8_t> aq;        // quantized activations
    support::PoolVector<std::uint8_t> gathered;  // gathered u8 message rows
    support::PoolVector<std::int32_t> acc;       // widened accumulators
  };

 private:
  /// One tape-free forward of a built batch: returns logits [G, num_labels]
  /// and fills `embeddings` with the graph vectors [G, hidden_dim] when
  /// non-null. Runs under the shard's InferenceGuard, concurrently for
  /// distinct shards; may write only `shard`'s scratch.
  virtual tensor::Tensor forward(const GraphBatch& batch,
                                 InferenceShard& shard,
                                 tensor::Tensor* embeddings) const = 0;

  /// Shards `graphs` in fixed chunks across the pool; each shard builds its
  /// batch into persistent scratch and runs one forward, then
  /// `consume(first_graph_index, logits, embeddings)` fires per shard
  /// (embeddings is undefined unless want_embeddings). consume runs
  /// concurrently for distinct shards and must only write state owned by
  /// its shard's graph indices; it executes under the shard's
  /// InferenceGuard, so tensor ops inside stay tape-free too.
  void forward_shards(
      const std::vector<const graph::ProgramGraph*>& graphs,
      bool want_embeddings,
      support::FunctionRef<void(std::size_t, const tensor::Tensor&,
                                const tensor::Tensor&)>
          consume) const;

  /// Persistent inference context; the mutex serializes queries on one
  /// model (predict is const and models are queried from parallel folds).
  mutable std::mutex infer_mutex_;
  mutable std::vector<InferenceShard> infer_shards_;
};

}  // namespace irgnn::gnn
