#include "gnn/quantize.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <utility>

#include "support/failpoint.h"
#include "support/thread_pool.h"
#include "tensor/gemm_int8.h"
#include "tensor/tensor.h"

namespace irgnn::gnn {

using tensor::Tensor;

namespace {

/// Round-half-up via floor, independent of the FPU rounding mode (lrintf
/// would follow it), so quantized codes are identical on every build. The
/// clamp happens in the float domain before the int cast — an activation far
/// outside its calibrated range must saturate, not overflow the cast.
inline std::uint8_t quantize_one(float x, const ActQuant& a) {
  float q = static_cast<float>(a.zero) + std::floor(x * a.inv_scale + 0.5f);
  q = q < 0.0f ? 0.0f : (q > 127.0f ? 127.0f : q);
  return static_cast<std::uint8_t>(q);
}

void quantize_buffer(const float* x, std::int64_t n, const ActQuant& a,
                     std::uint8_t* out) {
  for (std::int64_t i = 0; i < n; ++i) out[i] = quantize_one(x[i], a);
}

/// Observed min/max of one activation site. min/max is commutative and
/// exact, so merge order — shard order, thread count, calibration-set
/// permutation — cannot change the final range.
struct Range {
  float lo = std::numeric_limits<float>::max();
  float hi = std::numeric_limits<float>::lowest();

  void see(const Tensor& t) {
    const float* d = t.data();
    const std::int64_t n = t.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      lo = std::min(lo, d[i]);
      hi = std::max(hi, d[i]);
    }
  }
  void merge(const Range& o) {
    lo = std::min(lo, o.lo);
    hi = std::max(hi, o.hi);
  }
};

ActQuant make_act_quant(const Range& r) {
  ActQuant q;
  // Zero-inclusive range: zero must be exactly representable (it is the
  // padding/ReLU value), and this also absorbs a never-touched site.
  q.lo = std::min(r.lo, 0.0f);
  q.hi = std::max(r.hi, 0.0f);
  float scale = (q.hi - q.lo) / 127.0f;
  if (!(scale > 0.0f)) scale = 1.0f;  // degenerate all-zero site
  q.scale = scale;
  q.inv_scale = 1.0f / scale;
  int zero = static_cast<int>(std::floor(-q.lo / scale + 0.5f));
  q.zero = zero < 0 ? 0 : (zero > 127 ? 127 : zero);
  return q;
}

/// Quantizes one weight matrix w [in, out] (bias [1, out] or null) to
/// symmetric per-output-channel int8, packed transposed, with the dequantize
/// epilogue tables precomputed against the layer's input quantizer.
QuantizedLinear quantize_weights(const Tensor& w, const ActQuant& act,
                                 const Tensor* bias) {
  QuantizedLinear q;
  q.in = w.rows();
  q.out = w.cols();
  q.weights.resize(static_cast<std::size_t>(q.in) * q.out);
  q.w_scale.resize(q.out);
  q.dequant.resize(q.out);
  q.zp_colsum.resize(q.out);
  const float* wd = w.data();
  for (int j = 0; j < q.out; ++j) {
    float wmax = 0.0f;
    for (int i = 0; i < q.in; ++i)
      wmax = std::max(wmax,
                      std::fabs(wd[static_cast<std::int64_t>(i) * q.out + j]));
    const float ws = wmax > 0.0f ? wmax / 127.0f : 1.0f;
    const float inv = 1.0f / ws;
    std::int32_t colsum = 0;
    std::int8_t* wrow = q.weights.data() + static_cast<std::size_t>(j) * q.in;
    for (int i = 0; i < q.in; ++i) {
      float v =
          std::floor(wd[static_cast<std::int64_t>(i) * q.out + j] * inv + 0.5f);
      v = v < -127.0f ? -127.0f : (v > 127.0f ? 127.0f : v);
      const std::int8_t code = static_cast<std::int8_t>(v);
      wrow[i] = code;
      colsum += code;
    }
    q.w_scale[j] = ws;
    q.dequant[j] = act.scale * ws;
    q.zp_colsum[j] = act.zero * colsum;
  }
  if (bias != nullptr) {
    q.bias.resize(q.out);
    std::copy(bias->data(), bias->data() + q.out, q.bias.begin());
  }
  return q;
}

/// The fixed dequantize epilogue: one float expression per output element
/// (dequant * (acc - zp_colsum), then bias, then ReLU), so the floats the
/// int8 path hands back to the float ops are deterministic.
void dequantize_into(const std::int32_t* acc, const QuantizedLinear& q,
                     std::int64_t m, bool relu, float* out) {
  const bool has_bias = !q.bias.empty();
  for (std::int64_t i = 0; i < m; ++i) {
    const std::int32_t* arow = acc + i * q.out;
    float* orow = out + i * q.out;
    for (int j = 0; j < q.out; ++j) {
      float v = q.dequant[j] * static_cast<float>(arow[j] - q.zp_colsum[j]);
      if (has_bias) v += q.bias[j];
      if (relu) v = v > 0.0f ? v : 0.0f;
      orow[j] = v;
    }
  }
}

/// aq [m, q.in] (quantized activations) times q, dequantized into a fresh
/// pooled tensor. Serial inside a shard — parallelism comes from the shard
/// dispatch, matching the float path's granularity.
Tensor qmatmul(const std::uint8_t* aq, std::int64_t m, const QuantizedLinear& q,
               bool relu, support::PoolVector<std::int32_t>& acc) {
  Tensor out = Tensor::zeros({static_cast<int>(m), q.out});
  acc.resize(static_cast<std::size_t>(m) * q.out);
  tensor::detail::gemm_s8_panels<false>(aq, q.in, q.weights.data(), q.in, m,
                                        q.out, q.in, acc.data(), q.out);
  dequantize_into(acc.data(), q, m, relu, out.data());
  return out;
}

Tensor clone_const(const Tensor& p) {
  return Tensor::from_data(p.shape(),
                           std::vector<float>(p.data(), p.data() + p.numel()));
}

}  // namespace

// --- QuantizedModel inference -----------------------------------------------

Tensor QuantizedModel::forward(const GraphBatch& batch, InferenceShard& s,
                               Tensor* embeddings) const {
  const int dim = config_.hidden_dim;
  Tensor h0 = embedding_.forward(batch.features);
  Tensor h = h0;
  for (const QuantizedLayer& layer : layers_) {
    const std::int64_t m = h.rows();
    s.aq.resize(static_cast<std::size_t>(m) * dim);
    quantize_buffer(h.data(), m * dim, layer.act, s.aq.data());
    Tensor out = qmatmul(s.aq.data(), m, layer.self, /*relu=*/false, s.acc);
    for (std::size_t r = 0; r < layer.relations.size(); ++r) {
      const RelationEdges& edges = batch.relations[r];
      if (edges.src.empty()) continue;
      const std::int64_t e = static_cast<std::int64_t>(edges.src.size());
      // Gather message rows in the quantized domain: quantization is
      // per-element, so gathering codes equals quantizing gathered rows.
      s.gathered.resize(static_cast<std::size_t>(e) * dim);
      for (std::int64_t i = 0; i < e; ++i)
        std::memcpy(
            s.gathered.data() + i * dim,
            s.aq.data() + static_cast<std::int64_t>(edges.src[i]) * dim,
            static_cast<std::size_t>(dim));
      Tensor messages = qmatmul(s.gathered.data(), e, layer.relations[r],
                                /*relu=*/false, s.acc);
      Tensor aggregated =
          tensor::index_add_rows(messages, edges.dst, edges.coeff, h.rows());
      out = tensor::add(out, aggregated);
    }
    h = tensor::relu(out);
  }
  h = norm_.forward(tensor::add(h, h0));
  Tensor pooled = tensor::segment_mean(h, batch.segment, batch.num_graphs);
  const std::int64_t g = pooled.rows();
  s.aq.resize(static_cast<std::size_t>(g) * dim);
  quantize_buffer(pooled.data(), g * dim, fc_act_, s.aq.data());
  Tensor vec = qmatmul(s.aq.data(), g, fc_, /*relu=*/true, s.acc);
  if (embeddings) *embeddings = vec;
  s.aq.resize(static_cast<std::size_t>(g) * dim);
  quantize_buffer(vec.data(), g * dim, head_act_, s.aq.data());
  return qmatmul(s.aq.data(), g, head_, /*relu=*/false, s.acc);
}

std::vector<float> QuantizedModel::scales() const {
  std::vector<float> out;
  for (const QuantizedLayer& layer : layers_) out.push_back(layer.act.scale);
  out.push_back(fc_act_.scale);
  out.push_back(head_act_.scale);
  auto dump = [&](const QuantizedLinear& q) {
    out.insert(out.end(), q.w_scale.begin(), q.w_scale.end());
  };
  for (const QuantizedLayer& layer : layers_) {
    dump(layer.self);
    for (const QuantizedLinear& rel : layer.relations) dump(rel);
  }
  dump(fc_);
  dump(head_);
  return out;
}

std::vector<int> QuantizedModel::zero_points() const {
  std::vector<int> out;
  for (const QuantizedLayer& layer : layers_) out.push_back(layer.act.zero);
  out.push_back(fc_act_.zero);
  out.push_back(head_act_.zero);
  return out;
}

// --- Calibration + quantization (the StaticModel entry point) ---------------

support::StatusOr<std::shared_ptr<const QuantizedModel>> StaticModel::quantize(
    const std::vector<const graph::ProgramGraph*>& calibration) const {
  if (calibration.empty())
    return support::Status::InvalidArgument(
        "quantization requires a non-empty calibration fold");

  // Calibration: stream the fold through the float stack tape-free,
  // recording the range of every to-be-quantized activation. Sites in
  // order: each layer's input h, the pooled FC input, the head input.
  const std::size_t L = stack_.layers.size();
  const std::size_t sites = L + 2;
  const std::size_t G = calibration.size();
  const std::size_t num_shards = (G + kGraphsPerShard - 1) / kGraphsPerShard;
  std::vector<std::vector<Range>> shard_ranges(num_shards,
                                               std::vector<Range>(sites));

  support::ThreadPool::global().parallel_for(
      0, static_cast<std::int64_t>(num_shards), config_.num_threads,
      [&](std::int64_t s) {
        tensor::InferenceGuard guard;
        const std::size_t g0 = static_cast<std::size_t>(s) * kGraphsPerShard;
        const std::size_t g1 = std::min(G, g0 + kGraphsPerShard);
        std::vector<const graph::ProgramGraph*> chunk(
            calibration.begin() + g0, calibration.begin() + g1);
        GraphBatch batch;
        make_batch_into(batch, chunk);
        std::vector<Range>& ranges = shard_ranges[s];
        Tensor h0 = stack_.embedding.forward(batch.features);
        Tensor h = h0;
        for (std::size_t l = 0; l < L; ++l) {
          ranges[l].see(h);
          h = stack_.layers[l].forward(h, batch.relations);
        }
        h = stack_.norm.forward(tensor::add(h, h0));
        Tensor pooled =
            tensor::segment_mean(h, batch.segment, batch.num_graphs);
        ranges[L].see(pooled);
        Tensor vec = stack_.fc.forward(pooled, tensor::Act::Relu);
        ranges[L + 1].see(vec);
      });

  std::vector<Range> merged(sites);
  for (const std::vector<Range>& sr : shard_ranges)
    for (std::size_t i = 0; i < sites; ++i) merged[i].merge(sr[i]);

  // Deterministic fault-injection site: a quantization that fails here has
  // already done the calibration work, and the caller must end up with only
  // a Status — never a half-built, publishable model (chaos_test pins that
  // the Router is untouched after an injected failure).
  IRGNN_FAILPOINT("gnn.quantize", return support::Status::Internal(
                                      "injected quantization fault"));

  auto qm = std::shared_ptr<QuantizedModel>(new QuantizedModel());
  qm->config_ = config_;
  qm->embedding_ = Embedding(clone_const(stack_.embedding.parameters()[0]));
  auto np = stack_.norm.parameters();
  qm->norm_ = LayerNorm(clone_const(np[0]), clone_const(np[1]));
  for (std::size_t l = 0; l < L; ++l) {
    QuantizedModel::QuantizedLayer layer;
    layer.act = make_act_quant(merged[l]);
    auto lp = stack_.layers[l].parameters();  // {self_weight, relations...}
    layer.self = quantize_weights(lp[0], layer.act, nullptr);
    for (std::size_t r = 1; r < lp.size(); ++r)
      layer.relations.push_back(quantize_weights(lp[r], layer.act, nullptr));
    qm->layers_.push_back(std::move(layer));
  }
  qm->fc_act_ = make_act_quant(merged[L]);
  auto fp = stack_.fc.parameters();  // {weight, bias}
  qm->fc_ = quantize_weights(fp[0], qm->fc_act_, &fp[1]);
  qm->head_act_ = make_act_quant(merged[L + 1]);
  auto hp = stack_.head.parameters();
  qm->head_ = quantize_weights(hp[0], qm->head_act_, &hp[1]);
  return std::shared_ptr<const QuantizedModel>(std::move(qm));
}

}  // namespace irgnn::gnn
