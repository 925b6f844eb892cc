#include "nn/rnn.h"

#include <cmath>

#include "common/logging.h"
#include "common/simd_kernels.h"
#include "nn/init.h"
#include "nn/recurrent.h"

namespace fastft {
namespace nn {

RnnLayer::RnnLayer(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(XavierInit(hidden_dim, hidden_dim + input_dim, rng)),
      b_(Matrix(hidden_dim, 1)) {}

Matrix RnnLayer::Forward(const Matrix& x) {
  FASTFT_CHECK_EQ(x.cols(), input_dim_);
  const int len = x.rows();
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  len_ = len;
  cache_.resize(ActivationBytes(len) / sizeof(double));
  Matrix hidden(len, h);

  for (int t = 0; t < len; ++t) {
    double* z = CacheZ() + static_cast<size_t>(t) * zdim;
    for (int j = 0; j < h; ++j) z[j] = t > 0 ? hidden(t - 1, j) : 0.0;
    for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);
    double* act = CacheAct() + static_cast<size_t>(t) * h;
    simd::MatVec(w_.value.data(), b_.value.data(), z, act, h, zdim);
    for (int j = 0; j < h; ++j) {
      act[j] = std::tanh(act[j]);
      hidden(t, j) = act[j];
    }
  }
  return hidden;
}

Matrix RnnLayer::ForwardInfer(const Matrix& x,
                              std::vector<double>* h_state) const {
  FASTFT_CHECK_EQ(x.cols(), input_dim_);
  const int len = x.rows();
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  FASTFT_CHECK_EQ(static_cast<int>(h_state->size()), h);
  Matrix hidden(len, h);

  std::vector<double>& h_prev = *h_state;
  std::vector<double> z(zdim), pre(h);
  for (int t = 0; t < len; ++t) {
    for (int j = 0; j < h; ++j) z[j] = h_prev[j];
    for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);
    simd::MatVec(w_.value.data(), b_.value.data(), z.data(), pre.data(), h,
                 zdim);
    for (int j = 0; j < h; ++j) {
      hidden(t, j) = std::tanh(pre[j]);
      h_prev[j] = hidden(t, j);
    }
  }
  return hidden;
}

Matrix RnnLayer::Backward(const Matrix& dh_all) {
  const int len = len_;
  FASTFT_CHECK_EQ(dh_all.rows(), len);
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  Matrix dx(len, input_dim_);

  // dz = Wᵀ·dpre of the step after t; its first h entries are the gradient
  // reaching h_t through the recurrence.
  std::vector<double> dz(zdim, 0.0);
  int first = len, last = -1;  // span of timesteps with nonzero dpre
  for (int t = len - 1; t >= 0; --t) {
    double* dpre = CacheAct() + static_cast<size_t>(t) * h;
    for (int j = 0; j < h; ++j) {
      double dh = dh_all(t, j) + dz[j];
      dpre[j] = dh * (1.0 - dpre[j] * dpre[j]);
    }
    if (BackpropTimestep(dpre, w_.value, dz.data())) {
      first = t;
      if (last < 0) last = t;
    }
    for (int j = 0; j < input_dim_; ++j) dx(t, j) = dz[h + j];
  }
  AccumulateRecurrentGrads(CacheAct(), CacheZ(), first, last, &w_, &b_);
  len_ = 0;
  cache_ = std::vector<double>();
  return dx;
}

void RnnLayer::CollectParams(std::vector<Parameter*>* params) {
  params->push_back(&w_);
  params->push_back(&b_);
}

size_t RnnLayer::ParameterBytes() const {
  return (w_.value.size() + b_.value.size()) * sizeof(double);
}

size_t RnnLayer::ActivationBytes(int len) const {
  size_t per_step = static_cast<size_t>(hidden_dim_ + input_dim_) +
                    static_cast<size_t>(hidden_dim_);
  return per_step * static_cast<size_t>(len) * sizeof(double);
}

}  // namespace nn
}  // namespace fastft
