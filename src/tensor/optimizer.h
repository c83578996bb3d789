// First-order optimizers over parameter tensors.
#pragma once

#include <cmath>
#include <vector>

#include "support/arena.h"
#include "tensor/tensor.h"

namespace irgnn::tensor {

struct AdamOptions {
  float lr = 1e-3f;
  float beta1 = 0.9f;
  float beta2 = 0.999f;
  float eps = 1e-8f;
  float weight_decay = 0.0f;
};

/// Adam (Kingma & Ba) with bias correction.
class Adam {
 public:
  using Options = AdamOptions;

  explicit Adam(std::vector<Tensor> params, AdamOptions options = {})
      : params_(std::move(params)), options_(options) {
    for (const Tensor& p : params_) {
      m_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
      v_.emplace_back(static_cast<std::size_t>(p.numel()), 0.0f);
    }
  }

  void zero_grad() {
    for (Tensor& p : params_) p.zero_grad();
  }

  void step() {
    ++t_;
    float bc1 = 1.0f - std::pow(options_.beta1, static_cast<float>(t_));
    float bc2 = 1.0f - std::pow(options_.beta2, static_cast<float>(t_));
    for (std::size_t k = 0; k < params_.size(); ++k) {
      Tensor& p = params_[k];
      float* w = p.data();
      float* g = p.grad();
      for (std::int64_t i = 0; i < p.numel(); ++i) {
        float grad = g[i] + options_.weight_decay * w[i];
        m_[k][i] = options_.beta1 * m_[k][i] + (1.0f - options_.beta1) * grad;
        v_[k][i] =
            options_.beta2 * v_[k][i] + (1.0f - options_.beta2) * grad * grad;
        float mhat = m_[k][i] / bc1;
        float vhat = v_[k][i] / bc2;
        w[i] -= options_.lr * mhat / (std::sqrt(vhat) + options_.eps);
      }
    }
  }

  const std::vector<Tensor>& params() const { return params_; }

 private:
  std::vector<Tensor> params_;
  Options options_;
  // Moment buffers recycle through the arena like every other hot-path
  // allocation, so rebuilding an optimizer between runs stays malloc-free.
  std::vector<support::PoolVector<float>> m_;
  std::vector<support::PoolVector<float>> v_;
  int t_ = 0;
};

}  // namespace irgnn::tensor
