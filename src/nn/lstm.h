// Single LSTM layer with full backpropagation-through-time.
//
// Weight layout: W is (4H × (H+D)) with gate blocks ordered [i, f, g, o];
// b is (4H × 1). Forward caches per-timestep activations for Backward in
// one allocation holding four row-major blocks (row t is timestep t),
// which Backward consumes and releases:
//   z       (len × (H+D))  [h_{t-1}; x_t], the input of the gate matvec
//   gates   (len × 4H)     gate activations [i, f, g, o]; Backward
//                          overwrites row t with the pre-activation
//                          gradients, which the deferred weight-gradient
//                          pass then reads
//   c       ((len+1) × H)  cell states, row 0 = c_{-1} = 0, row t+1 = c_t
//   tanh_c  (len × H)      tanh(c_t)

#pragma once

#include <vector>

#include "nn/matrix.h"

namespace fastft {
class Rng;

namespace nn {

class LstmLayer {
 public:
  LstmLayer() = default;
  LstmLayer(int input_dim, int hidden_dim, Rng* rng);

  /// x: (len × input_dim) → hidden states (len × hidden_dim), h0 = c0 = 0.
  Matrix Forward(const Matrix& x);

  /// Inference-only forward continuing from an explicit state: *h / *c
  /// (size hidden_dim; zeros = the t0 state) are consumed and updated in
  /// place; returns hidden states for the rows of x. Per-timestep
  /// arithmetic is identical to Forward, so chunked encoding of a sequence
  /// is bit-identical to one Forward over the whole sequence. Writes no
  /// backward caches — safe to call concurrently.
  Matrix ForwardInfer(const Matrix& x, std::vector<double>* h,
                      std::vector<double>* c) const;

  /// dh: gradient wrt every hidden state (len × hidden_dim). Accumulates
  /// parameter grads; returns dx (len × input_dim). Consumes the cache of
  /// the last Forward (the gate activations become their gradients), so
  /// each Backward needs its own Forward.
  Matrix Backward(const Matrix& dh);

  void CollectParams(std::vector<Parameter*>* params);

  int input_dim() const { return input_dim_; }
  int hidden_dim() const { return hidden_dim_; }

  /// Bytes held by parameters (weights + biases), excluding gradients.
  size_t ParameterBytes() const;
  /// Bytes of cached activations for a sequence of length `len`.
  size_t ActivationBytes(int len) const;

 private:
  int input_dim_ = 0;
  int hidden_dim_ = 0;
  Parameter w_;  // (4H × (H+D))
  Parameter b_;  // (4H × 1)
  /// The blocks of cache_ for a sequence of length len (layout above).
  struct CacheView {
    double* z;
    double* gates;
    double* c;
    double* tanh_c;
  };
  CacheView View(int len);

  int len_ = 0;  // timesteps cached by the last Forward, 0 once consumed
  std::vector<double> cache_;
};

}  // namespace nn
}  // namespace fastft

