#include "nn/lstm.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"
#include "common/simd_kernels.h"
#include "nn/init.h"
#include "nn/recurrent.h"

namespace fastft {
namespace nn {
namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

LstmLayer::LstmLayer(int input_dim, int hidden_dim, Rng* rng)
    : input_dim_(input_dim),
      hidden_dim_(hidden_dim),
      w_(XavierInit(4 * hidden_dim, hidden_dim + input_dim, rng)),
      b_(Matrix(4 * hidden_dim, 1)) {
  // Forget-gate bias starts at 1 (standard trick for gradient flow).
  for (int r = hidden_dim; r < 2 * hidden_dim; ++r) b_.value(r, 0) = 1.0;
}

Matrix LstmLayer::Forward(const Matrix& x) {
  FASTFT_CHECK_EQ(x.cols(), input_dim_);
  const int len = x.rows();
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  len_ = len;
  cache_.resize(ActivationBytes(len) / sizeof(double));
  const CacheView cache = View(len);
  std::fill_n(cache.c, h, 0.0);
  Matrix hidden(len, h);

  for (int t = 0; t < len; ++t) {
    double* z = cache.z + static_cast<size_t>(t) * zdim;
    for (int j = 0; j < h; ++j) z[j] = t > 0 ? hidden(t - 1, j) : 0.0;
    for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);
    // All four gate pre-activations in one (4h × zdim) · z matvec: W is laid
    // out [i; f; g; o] row blocks and b_ is a contiguous column. The
    // activations then replace the pre-activations in place.
    double* gate = cache.gates + static_cast<size_t>(t) * 4 * h;
    simd::MatVec(w_.value.data(), b_.value.data(), z, gate, 4 * h, zdim);
    const double* c_prev = cache.c + static_cast<size_t>(t) * h;
    double* c = cache.c + static_cast<size_t>(t + 1) * h;
    double* tanh_c = cache.tanh_c + static_cast<size_t>(t) * h;
    for (int j = 0; j < h; ++j) {
      const double gi = Sigmoid(gate[j]);
      const double gf = Sigmoid(gate[h + j]);
      const double gg = std::tanh(gate[2 * h + j]);
      const double go = Sigmoid(gate[3 * h + j]);
      gate[j] = gi;
      gate[h + j] = gf;
      gate[2 * h + j] = gg;
      gate[3 * h + j] = go;
      c[j] = gf * c_prev[j] + gi * gg;
      tanh_c[j] = std::tanh(c[j]);
      hidden(t, j) = go * tanh_c[j];
    }
  }
  return hidden;
}

Matrix LstmLayer::ForwardInfer(const Matrix& x, std::vector<double>* h_state,
                               std::vector<double>* c_state) const {
  FASTFT_CHECK_EQ(x.cols(), input_dim_);
  const int len = x.rows();
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  FASTFT_CHECK_EQ(static_cast<int>(h_state->size()), h);
  FASTFT_CHECK_EQ(static_cast<int>(c_state->size()), h);
  Matrix hidden(len, h);

  std::vector<double>& h_prev = *h_state;
  std::vector<double>& c_prev = *c_state;
  std::vector<double> z(zdim), c_next(h), pre(4 * h);
  for (int t = 0; t < len; ++t) {
    for (int j = 0; j < h; ++j) z[j] = h_prev[j];
    for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);
    simd::MatVec(w_.value.data(), b_.value.data(), z.data(), pre.data(),
                 4 * h, zdim);
    for (int j = 0; j < h; ++j) {
      double gi = Sigmoid(pre[j]);
      double gf = Sigmoid(pre[h + j]);
      double gg = std::tanh(pre[2 * h + j]);
      double go = Sigmoid(pre[3 * h + j]);
      c_next[j] = gf * c_prev[j] + gi * gg;
      hidden(t, j) = go * std::tanh(c_next[j]);
      h_prev[j] = hidden(t, j);
    }
    c_prev = c_next;
  }
  return hidden;
}

Matrix LstmLayer::Backward(const Matrix& dh_all) {
  const int len = len_;
  FASTFT_CHECK_EQ(dh_all.rows(), len);
  const int h = hidden_dim_;
  const int zdim = h + input_dim_;
  Matrix dx(len, input_dim_);
  const CacheView cache = View(len);

  // dz = Wᵀ·dgates of the step after t; its first h entries are the
  // gradient reaching h_t through the recurrence.
  std::vector<double> dz(zdim, 0.0), dc_next(h, 0.0);
  int first = len, last = -1;  // span of timesteps with nonzero dgates
  for (int t = len - 1; t >= 0; --t) {
    double* gate = cache.gates + static_cast<size_t>(t) * 4 * h;
    const double* c_prev = cache.c + static_cast<size_t>(t) * h;
    const double* tanh_c = cache.tanh_c + static_cast<size_t>(t) * h;
    for (int j = 0; j < h; ++j) {
      const double gi = gate[j];
      const double gf = gate[h + j];
      const double gg = gate[2 * h + j];
      const double go = gate[3 * h + j];
      double dh = dh_all(t, j) + dz[j];
      double d_o = dh * tanh_c[j];
      double dc = dh * go * (1.0 - tanh_c[j] * tanh_c[j]) + dc_next[j];
      double d_i = dc * gg;
      double d_g = dc * gi;
      double d_f = dc * c_prev[j];
      dc_next[j] = dc * gf;
      // Pre-activation gradients replace the activations.
      gate[j] = d_i * gi * (1.0 - gi);
      gate[h + j] = d_f * gf * (1.0 - gf);
      gate[2 * h + j] = d_g * (1.0 - gg * gg);
      gate[3 * h + j] = d_o * go * (1.0 - go);
    }
    if (BackpropTimestep(gate, w_.value, dz.data())) {
      first = t;
      if (last < 0) last = t;
    }
    for (int j = 0; j < input_dim_; ++j) dx(t, j) = dz[h + j];
  }
  // dW += Σ_t dgates_t ⊗ z_t and db += Σ_t dgates_t, deferred to one pass.
  AccumulateRecurrentGrads(cache.gates, cache.z, first, last, &w_, &b_);
  // The cache is consumed: release it rather than hold the longest
  // sequence's buffer between training steps.
  len_ = 0;
  cache_ = std::vector<double>();
  return dx;
}

LstmLayer::CacheView LstmLayer::View(int len) {
  const size_t t = static_cast<size_t>(len);
  const size_t h = static_cast<size_t>(hidden_dim_);
  CacheView view;
  view.z = cache_.data();
  view.gates = view.z + t * (h + static_cast<size_t>(input_dim_));
  view.c = view.gates + t * 4 * h;
  view.tanh_c = view.c + (t + 1) * h;
  return view;
}

void LstmLayer::CollectParams(std::vector<Parameter*>* params) {
  params->push_back(&w_);
  params->push_back(&b_);
}

size_t LstmLayer::ParameterBytes() const {
  return (w_.value.size() + b_.value.size()) * sizeof(double);
}

size_t LstmLayer::ActivationBytes(int len) const {
  // The cache: per timestep z (H+D), the four gates (4H), c and tanh(c)
  // (2H); plus the zero initial cell row.
  const size_t h = static_cast<size_t>(hidden_dim_);
  const size_t per_step = static_cast<size_t>(input_dim_) + 7u * h;
  return (per_step * static_cast<size_t>(len) + h) * sizeof(double);
}

}  // namespace nn
}  // namespace fastft
