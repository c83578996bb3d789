// The paper's static prediction network (Fig. 2a):
//
//   program graph -> node Embedding -> RGCN layers -> residual link +
//   Add&Norm -> mean Pooling -> Fully Connected (graph embedding vector) ->
//   Feed Forward head -> predicted configuration logits
//
// The vector after the fully-connected layer is the "graph vector" consumed
// by the hybrid model and the flag-prediction model (Sec. III-D/E).
//
// Training parallelizes inside each minibatch: the batch splits into a fixed
// number of gradient shards (independent of num_threads), every shard runs
// forward/backward against its own parameter replica, and shard gradients
// fold into the optimizer in shard order. Because the partition, the
// per-shard dropout streams (derived from (seed, epoch, batch, shard) via
// splitmix64) and the reduction order never depend on the thread count,
// TrainStats and predictions are bit-identical for every num_threads.
//
// The loop is allocation-free in steady state: replicas, their parameter
// handle vectors and each shard's chunk/batch scratch persist across
// minibatches (cleared, never freed), tensor ops recycle node and buffer
// storage through the arena, and the gradient reduction runs 8-wide over
// the cached handles.
//
// Inference is a separate fast path: predict / predict_into / evaluate come
// from the shared InferenceModel driver (gnn/inference_model.h), which shards
// the graph set in fixed 16-graph chunks and runs this model's forward
// tape-free under tensor::InferenceGuard (no autograd nodes, no gradient
// buffers). Results are bit-identical to a serial full-batch forward for
// every thread count, and a warm query into caller-reused storage performs
// zero heap allocations.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "gnn/graph_batch.h"
#include "gnn/inference_model.h"
#include "gnn/modules.h"
#include "graph/program_graph.h"
#include "support/status.h"
#include "tensor/optimizer.h"

namespace irgnn::gnn {

class QuantizedModel;

struct ModelConfig {
  int vocab_size = 0;      // set from graph::vocabulary_size()
  int num_labels = 13;
  int hidden_dim = 64;     // paper uses a 256-d graph vector; configurable
  int num_layers = 3;
  float learning_rate = 5e-3f;
  float dropout = 0.1f;
  int epochs = 60;
  int batch_size = 32;
  std::uint64_t seed = 0x5EED;
  /// Max threads for this model's training and inference shard dispatch
  /// (<= 0: every worker of the global pool). The tensor kernels inside
  /// read the process-global tensor::set_kernel_parallelism cap instead —
  /// set both to bound total fan-out (core::run_experiment does). Results
  /// are bit-identical for every value of either knob.
  int num_threads = 0;
};

struct TrainStats {
  std::vector<double> epoch_loss;
  double final_train_accuracy = 0.0;
};

class StaticModel : public InferenceModel {
 public:
  explicit StaticModel(const ModelConfig& config);

  /// Trains on (graph, label) pairs with minibatched Adam.
  TrainStats train(const std::vector<const graph::ProgramGraph*>& graphs,
                   const std::vector<int>& labels);

  const ModelConfig& config() const override { return config_; }
  std::vector<tensor::Tensor> parameters() const;

  /// Post-training int8 quantization (gnn/quantize.cpp): calibrates
  /// activation ranges by streaming `calibration` (typically one CV fold)
  /// through this model tape-free, quantizes every Linear/RGCN weight to
  /// per-output-channel int8, and returns a servable QuantizedModel
  /// implementing the same InferenceModel surface. Fails InvalidArgument on
  /// an empty calibration set and Internal on an injected "gnn.quantize"
  /// failpoint fault — on any failure nothing servable is produced, so a
  /// caller can never publish a partially quantized model.
  support::StatusOr<std::shared_ptr<const QuantizedModel>> quantize(
      const std::vector<const graph::ProgramGraph*>& calibration) const;

 private:
  /// The full parameter stack. Gradient shards train against deep-copied
  /// replicas so concurrent backward passes never share gradient buffers.
  struct Stack {
    Embedding embedding;
    std::vector<RGCNLayer> layers;
    LayerNorm norm;
    Linear fc;
    Linear head;

    std::vector<tensor::Tensor> parameters() const;
  };

  /// Returns logits [G, num_labels]; fills `embeddings` with the pooled
  /// post-FC representation when non-null. A non-null `dropout_rng` enables
  /// training-mode dropout drawing from that stream.
  tensor::Tensor forward(const Stack& stack, const GraphBatch& batch,
                         Rng* dropout_rng, tensor::Tensor* embeddings) const;

  /// Deep copy of the stack whose parameters carry fresh gradient buffers.
  Stack make_grad_replica() const;

  /// Re-syncs an existing replica through its cached parameter handles:
  /// copies the current weights in and zeroes its gradients, reusing the
  /// buffers allocated by make_grad_replica(). Allocation-free.
  static void refresh_replica(const std::vector<tensor::Tensor>& src,
                              std::vector<tensor::Tensor>& dst);

  /// The inference driver's forward: the float stack, no dropout.
  tensor::Tensor forward(const GraphBatch& batch, InferenceShard& shard,
                         tensor::Tensor* embeddings) const override;

  ModelConfig config_;
  mutable Rng rng_;
  Stack stack_;
};

}  // namespace irgnn::gnn
