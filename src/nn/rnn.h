// Vanilla tanh RNN layer (Fig. 8 ablation backbone).

#pragma once

#include <vector>

#include "nn/matrix.h"

namespace fastft {
class Rng;

namespace nn {

class RnnLayer {
 public:
  RnnLayer() = default;
  RnnLayer(int input_dim, int hidden_dim, Rng* rng);

  /// h_t = tanh(W [h_{t-1}; x_t] + b); returns (len × hidden_dim).
  Matrix Forward(const Matrix& x);

  /// Inference-only forward from an explicit hidden state *h (size
  /// hidden_dim; zeros = t0), updated in place. Bit-identical per timestep
  /// to Forward; writes no backward caches, safe to call concurrently.
  Matrix ForwardInfer(const Matrix& x, std::vector<double>* h) const;
  /// Accumulates grads, returns dx. Consumes the cache of the last Forward
  /// (the hidden states become the pre-activation gradients), so each
  /// Backward needs its own Forward.
  Matrix Backward(const Matrix& dh);

  void CollectParams(std::vector<Parameter*>* params);

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }
  size_t ParameterBytes() const;
  size_t ActivationBytes(int len) const;

 private:
  int input_dim_ = 0;
  int hidden_dim_ = 0;
  Parameter w_;  // (H × (H+D))
  Parameter b_;  // (H × 1)
  // The last Forward's cache in one allocation, row t = timestep t (as in
  // LstmLayer): z (len × (H+D)) [h_{t-1}; x_t], then act (len × H) h_t,
  // which Backward overwrites with the pre-activation gradients.
  double* CacheZ() { return cache_.data(); }
  double* CacheAct() {
    return cache_.data() +
           static_cast<size_t>(len_) * (hidden_dim_ + input_dim_);
  }

  int len_ = 0;  // timesteps cached by the last Forward, 0 once consumed
  std::vector<double> cache_;
};

}  // namespace nn
}  // namespace fastft

