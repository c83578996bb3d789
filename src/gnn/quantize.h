// Post-training int8 quantization of the static prediction network.
//
// StaticModel::quantize() (declared in gnn/model.h, defined in quantize.cpp)
// streams a calibration fold through the float model tape-free, recording
// the min/max range of every activation that will be quantized — each RGCN
// layer's input, the pooled FC input and the FC-output head input — then
// quantizes every matmul weight to per-output-channel int8 and returns a
// QuantizedModel serving the same InferenceModel surface.
//
// Quantization scheme (chosen so the int8 kernels are *exact*, see
// tensor/gemm_int8.h):
//
//   activations - asymmetric uint8 restricted to [0, 127]:
//                   q = clamp(zero + round(x / scale), 0, 127)
//                 with scale = (hi - lo) / 127 over the zero-inclusive
//                 calibrated range. The 7-bit ceiling makes AVX2 maddubs
//                 saturation unreachable, which is what buys the int8 path
//                 its across-ISA bit-identity.
//   weights     - symmetric per-output-channel int8 in [-127, 127]:
//                   wq = clamp(round(w / w_scale[j])),
//                 packed transposed ([out, in]) so the kernel streams one
//                 output channel contiguously.
//   epilogue    - out[i,j] = dequant[j] * (acc[i,j] - zp_colsum[j]) + bias[j]
//                 where dequant[j] = act.scale * w_scale[j] and
//                 zp_colsum[j] = act.zero * sum_k wq[j,k], both precomputed
//                 at quantize time; one fixed float expression per output
//                 element keeps the dequantized floats deterministic.
//
// Determinism: calibration ranges are min/max reductions — commutative and
// exact — so the derived scales are bit-identical for every thread count,
// shard partition and calibration-set ordering; the int8 accumulation is
// exact integer math; and the dequantize/norm/pool float ops follow the
// library's fixed-order kernels. Quantized predictions are therefore
// bit-identical across thread counts and batch compositions, pinned by
// tests/determinism_test.cpp.
//
// The warm query path allocates nothing: packed weights, scales and
// epilogue tables are owned by the model (PoolVector), and the shared
// InferenceModel driver keeps the per-shard quantized-activation /
// int32-accumulator scratch alive across queries.
#pragma once

#include <cstdint>
#include <vector>

#include "gnn/graph_batch.h"
#include "gnn/model.h"
#include "support/arena.h"

namespace irgnn::gnn {

/// Quantization parameters of one activation site, derived from its
/// calibrated (zero-inclusive) range.
struct ActQuant {
  float lo = 0.0f;         // calibrated minimum (<= 0)
  float hi = 0.0f;         // calibrated maximum (>= 0)
  float scale = 1.0f;      // (hi - lo) / 127, or 1 for a degenerate range
  float inv_scale = 1.0f;  // 1 / scale, the factor the quantizer multiplies by
  int zero = 0;            // zero point in [0, 127]
};

/// One matmul's quantized weights plus the precomputed dequantize epilogue.
struct QuantizedLinear {
  int in = 0;
  int out = 0;
  support::PoolVector<std::int8_t> weights;      // packed transposed [out, in]
  support::PoolVector<float> w_scale;            // [out] per-channel scale
  support::PoolVector<float> dequant;            // [out] act.scale * w_scale
  support::PoolVector<std::int32_t> zp_colsum;   // [out] act.zero * colsum
  support::PoolVector<float> bias;               // [out]; empty when none
};

/// The int8 counterpart of StaticModel: embedding, layer norm, pooling and
/// the residual link stay float (they are memory-bound and carry no
/// weights worth quantizing), every matmul runs through the register-blocked
/// int8 kernels. Immutable snapshot — quantize() deep-copies the float
/// parameters it keeps, so retraining the source model never perturbs a
/// published quantized version.
class QuantizedModel : public InferenceModel {
 public:
  const ModelConfig& config() const override { return config_; }

  /// Every activation scale in a fixed order (layer 0..L-1 inputs, FC
  /// input, head input) followed by every per-channel weight scale in stack
  /// order — the flat fingerprint the determinism tests compare across
  /// thread counts and calibration orderings. Diagnostic path; allocates.
  std::vector<float> scales() const;

  /// Activation zero points in the same site order as scales().
  std::vector<int> zero_points() const;

 private:
  friend class StaticModel;  // sole builder (StaticModel::quantize)
  QuantizedModel() = default;

  /// One quantized RGCN layer: the input quantizer is shared by the self
  /// transform and every relation transform (they all consume the same h).
  struct QuantizedLayer {
    ActQuant act;
    QuantizedLinear self;
    std::vector<QuantizedLinear> relations;
  };

  /// The inference driver's forward: every matmul through the int8
  /// kernels, using the shard's aq / gathered / acc scratch.
  tensor::Tensor forward(const GraphBatch& batch, InferenceShard& shard,
                         tensor::Tensor* embeddings) const override;

  ModelConfig config_;
  Embedding embedding_;  // float, deep-copied from the source model
  std::vector<QuantizedLayer> layers_;
  LayerNorm norm_;       // float, deep-copied
  ActQuant fc_act_;
  QuantizedLinear fc_;
  ActQuant head_act_;
  QuantizedLinear head_;
};

}  // namespace irgnn::gnn
