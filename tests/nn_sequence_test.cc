// Behavioural tests for SequenceModel: learning, determinism, memory model;
// plus the recurrent layers' exactness against the per-timestep backward
// they replaced, and finite-difference checks of their gradients.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/serial.h"
#include "common/simd_kernels.h"
#include "nn/lstm.h"
#include "nn/optimizer.h"
#include "nn/rnn.h"
#include "nn/sequence_model.h"

namespace fastft {
namespace nn {
namespace {

SequenceModelConfig SmallConfig(Backbone backbone, uint64_t seed = 7) {
  SequenceModelConfig config;
  config.backbone = backbone;
  config.vocab_size = 16;
  config.embed_dim = 8;
  config.hidden_dim = 8;
  config.num_layers = 1;
  config.head_dims = {8, 1};
  config.seed = seed;
  return config;
}

class BackboneTest : public testing::TestWithParam<Backbone> {};

TEST_P(BackboneTest, LearnsToSeparateTwoSequences) {
  SequenceModel model(SmallConfig(GetParam()));
  std::vector<int> a = {1, 2, 3, 4};
  std::vector<int> b = {9, 10, 11, 12};
  for (int i = 0; i < 300; ++i) {
    model.TrainStep(a, 1.0);
    model.ApplyStep();
    model.TrainStep(b, 0.0);
    model.ApplyStep();
  }
  EXPECT_NEAR(model.Forward(a), 1.0, 0.15);
  EXPECT_NEAR(model.Forward(b), 0.0, 0.15);
}

TEST_P(BackboneTest, ForwardIsDeterministic) {
  SequenceModel model(SmallConfig(GetParam()));
  std::vector<int> tokens = {3, 1, 4, 1, 5};
  EXPECT_DOUBLE_EQ(model.Forward(tokens), model.Forward(tokens));
}

TEST_P(BackboneTest, SameSeedSameInit) {
  SequenceModel a(SmallConfig(GetParam(), 42));
  SequenceModel b(SmallConfig(GetParam(), 42));
  std::vector<int> tokens = {2, 7, 2};
  EXPECT_DOUBLE_EQ(a.Forward(tokens), b.Forward(tokens));
  SequenceModel c(SmallConfig(GetParam(), 43));
  EXPECT_NE(a.Forward(tokens), c.Forward(tokens));
}

TEST_P(BackboneTest, EncodeHasHiddenDim) {
  SequenceModel model(SmallConfig(GetParam()));
  std::vector<double> e = model.Encode({1, 2, 3});
  EXPECT_EQ(e.size(), 8u);
}

TEST_P(BackboneTest, OutOfVocabTokensClamped) {
  SequenceModel model(SmallConfig(GetParam()));
  double v = model.Forward({1000, -5, 3});
  EXPECT_TRUE(std::isfinite(v));
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneTest,
                         testing::Values(Backbone::kLstm, Backbone::kRnn,
                                         Backbone::kTransformer));

TEST(SequenceModelTest, ParameterBytesPositiveAndOrdered) {
  SequenceModel lstm(SmallConfig(Backbone::kLstm));
  SequenceModel rnn(SmallConfig(Backbone::kRnn));
  // LSTM has 4 gate blocks vs RNN's single block.
  EXPECT_GT(lstm.ParameterBytes(), rnn.ParameterBytes());
}

TEST(SequenceModelTest, RecurrentActivationLinearInLength) {
  SequenceModel model(SmallConfig(Backbone::kLstm));
  size_t a = model.ActivationBytes(16);
  size_t b = model.ActivationBytes(32);
  size_t c = model.ActivationBytes(64);
  EXPECT_NEAR(static_cast<double>(b) / a, 2.0, 0.1);
  EXPECT_NEAR(static_cast<double>(c) / b, 2.0, 0.1);
}

TEST(SequenceModelTest, TransformerActivationSuperlinear) {
  // The Fig. 11 contrast: attention memory grows faster than linear.
  SequenceModel model(SmallConfig(Backbone::kTransformer));
  double r1 = static_cast<double>(model.ActivationBytes(64)) /
              model.ActivationBytes(32);
  EXPECT_GT(r1, 2.0);
}

TEST(SequenceModelTest, TrainingReducesLoss) {
  SequenceModel model(SmallConfig(Backbone::kLstm));
  std::vector<int> tokens = {1, 5, 9, 2};
  double first = model.TrainStep(tokens, 0.7);
  model.ApplyStep();
  double last = first;
  for (int i = 0; i < 100; ++i) {
    last = model.TrainStep(tokens, 0.7);
    model.ApplyStep();
  }
  EXPECT_LT(last, first);
  EXPECT_LT(last, 0.01);
}

TEST(SequenceModelTest, NonFiniteTargetSkipsUpdate) {
  SequenceModel model(SmallConfig(Backbone::kLstm));
  std::vector<int> tokens = {1, 5, 9, 2};
  const double before = model.Forward(tokens);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  model.TrainStep(tokens, nan);
  model.ApplyStep();
  model.TrainStep(tokens, std::numeric_limits<double>::infinity());
  model.ApplyStep();
  // The guard drops the poisoned gradients: parameters are untouched.
  EXPECT_DOUBLE_EQ(model.Forward(tokens), before);
  EXPECT_EQ(model.non_finite_skips(), 2);
  // A healthy step afterwards still learns.
  model.TrainStep(tokens, 0.7);
  model.ApplyStep();
  EXPECT_NE(model.Forward(tokens), before);
  EXPECT_EQ(model.non_finite_skips(), 2);
}

TEST(SequenceModelTest, NonFiniteGradientNormSkipsApplyStep) {
  for (Backbone backbone : {Backbone::kLstm, Backbone::kRnn}) {
    SequenceModel model(SmallConfig(backbone));
    std::vector<int> tokens = {1, 5, 9, 2};
    model.TrainStep(tokens, 0.7);
    model.ApplyStep();  // moments are nonzero from here on
    common::BinaryWriter before;
    model.SaveState(&before);

    model.TrainStep(tokens, 0.3);
    std::vector<Parameter*> params = model.Params();
    params[1]->grad.data()[0] = std::numeric_limits<double>::quiet_NaN();
    model.ApplyStep();
    EXPECT_EQ(model.non_finite_skips(), 1) << BackboneName(backbone);

    // SaveState writes weights, then the Adam state, then the skip counter
    // (one int64): everything before the counter must be unchanged.
    common::BinaryWriter after;
    model.SaveState(&after);
    const std::string& b = before.buffer();
    const std::string& a = after.buffer();
    ASSERT_EQ(a.size(), b.size());
    EXPECT_EQ(a.substr(0, a.size() - sizeof(int64_t)),
              b.substr(0, b.size() - sizeof(int64_t)))
        << BackboneName(backbone);
    for (Parameter* p : params) {
      for (size_t i = 0; i < p->size(); ++i) {
        ASSERT_TRUE(std::isfinite(p->value.data()[i]));
        ASSERT_EQ(p->grad.data()[i], 0.0);
      }
    }
    // The next healthy step still trains.
    const double prediction = model.Forward(tokens);
    model.TrainStep(tokens, 0.7);
    model.ApplyStep();
    EXPECT_NE(model.Forward(tokens), prediction);
    EXPECT_EQ(model.non_finite_skips(), 1);
  }
}

TEST(SequenceModelTest, TrainingBitIdenticalWithSimdOnAndOff) {
  // Mixed lengths 1-80, sometimes two TrainSteps per ApplyStep; the whole
  // model state (weights, Adam moments) must not depend on the backend.
  for (Backbone backbone : {Backbone::kLstm, Backbone::kRnn}) {
    std::string states[2];
    for (int run = 0; run < 2; ++run) {
      const bool was_enabled = simd::Enabled();
      simd::SetEnabled(run == 0);
      SequenceModelConfig config = SmallConfig(backbone, 19);
      config.embed_dim = 32;
      config.hidden_dim = 32;
      config.num_layers = 2;
      SequenceModel model(config);
      Rng rng(23);
      for (int step = 0; step < 40; ++step) {
        const int sequences = step % 3 == 1 ? 2 : 1;
        for (int s = 0; s < sequences; ++s) {
          std::vector<int> tokens(1 + rng.UniformInt(80));
          for (int& t : tokens) t = rng.UniformInt(config.vocab_size);
          model.TrainStep(tokens, rng.Normal());
        }
        model.ApplyStep();
      }
      common::BinaryWriter writer;
      model.SaveState(&writer);
      states[run] = writer.buffer();
      simd::SetEnabled(was_enabled);
    }
    EXPECT_TRUE(states[0] == states[1]) << BackboneName(backbone);
  }
}

// --- Reference: the per-timestep recurrent backward and the Adam loop ------
// Copied from the implementation the batched backward replaced: per-step
// cache vectors, a bias add and two Axpy sweeps per nonzero pre-activation
// gradient row, and a per-element Adam loop. The layers must match it bit
// for bit.

double RefSigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

class RefLstm {
 public:
  RefLstm(const Parameter& w, const Parameter& b, int input_dim,
          int hidden_dim)
      : input_dim_(input_dim), hidden_dim_(hidden_dim), w_(w), b_(b) {}

  Matrix Forward(const Matrix& x) {
    const int len = x.rows();
    const int h = hidden_dim_;
    const int zdim = h + input_dim_;
    cache_.assign(len, StepCache{});
    Matrix hidden(len, h);
    std::vector<double> h_prev(h, 0.0), c_prev(h, 0.0);
    std::vector<double> pre(4 * h);
    for (int t = 0; t < len; ++t) {
      StepCache& sc = cache_[t];
      sc.z.resize(zdim);
      for (int j = 0; j < h; ++j) sc.z[j] = h_prev[j];
      for (int j = 0; j < input_dim_; ++j) sc.z[h + j] = x(t, j);
      sc.c_prev = c_prev;
      sc.i.resize(h);
      sc.f.resize(h);
      sc.g.resize(h);
      sc.o.resize(h);
      sc.c.resize(h);
      sc.tanh_c.resize(h);
      simd::MatVec(w_.value.data(), b_.value.data(), sc.z.data(), pre.data(),
                   4 * h, zdim);
      for (int j = 0; j < h; ++j) {
        sc.i[j] = RefSigmoid(pre[j]);
        sc.f[j] = RefSigmoid(pre[h + j]);
        sc.g[j] = std::tanh(pre[2 * h + j]);
        sc.o[j] = RefSigmoid(pre[3 * h + j]);
        sc.c[j] = sc.f[j] * c_prev[j] + sc.i[j] * sc.g[j];
        sc.tanh_c[j] = std::tanh(sc.c[j]);
        hidden(t, j) = sc.o[j] * sc.tanh_c[j];
        h_prev[j] = hidden(t, j);
      }
      c_prev = sc.c;
    }
    return hidden;
  }

  Matrix Backward(const Matrix& dh_all) {
    const int len = static_cast<int>(cache_.size());
    const int h = hidden_dim_;
    const int zdim = h + input_dim_;
    Matrix dx(len, input_dim_);
    std::vector<double> dh_next(h, 0.0), dc_next(h, 0.0);
    std::vector<double> dgates(4 * h);
    for (int t = len - 1; t >= 0; --t) {
      const StepCache& sc = cache_[t];
      for (int j = 0; j < h; ++j) {
        double dh = dh_all(t, j) + dh_next[j];
        double d_o = dh * sc.tanh_c[j];
        double dc = dh * sc.o[j] * (1.0 - sc.tanh_c[j] * sc.tanh_c[j]) +
                    dc_next[j];
        double d_i = dc * sc.g[j];
        double d_g = dc * sc.i[j];
        double d_f = dc * sc.c_prev[j];
        dc_next[j] = dc * sc.f[j];
        dgates[j] = d_i * sc.i[j] * (1.0 - sc.i[j]);
        dgates[h + j] = d_f * sc.f[j] * (1.0 - sc.f[j]);
        dgates[2 * h + j] = d_g * (1.0 - sc.g[j] * sc.g[j]);
        dgates[3 * h + j] = d_o * sc.o[j] * (1.0 - sc.o[j]);
      }
      std::vector<double> dz(zdim, 0.0);
      for (int r = 0; r < 4 * h; ++r) {
        double dg = dgates[r];
        if (dg == 0.0) {
          ++skipped_rows_;
          continue;
        }
        b_.grad(r, 0) += dg;
        simd::Axpy(dg, sc.z.data(),
                   w_.grad.data() + static_cast<size_t>(r) * zdim, zdim);
        simd::Axpy(dg, w_.value.data() + static_cast<size_t>(r) * zdim,
                   dz.data(), zdim);
      }
      for (int j = 0; j < h; ++j) dh_next[j] = dz[j];
      for (int j = 0; j < input_dim_; ++j) dx(t, j) = dz[h + j];
    }
    return dx;
  }

  std::vector<Parameter*> Params() { return {&w_, &b_}; }
  int64_t skipped_rows() const { return skipped_rows_; }

 private:
  struct StepCache {
    std::vector<double> z;
    std::vector<double> i, f, g, o;
    std::vector<double> c, tanh_c;
    std::vector<double> c_prev;
  };

  int input_dim_;
  int hidden_dim_;
  Parameter w_;
  Parameter b_;
  std::vector<StepCache> cache_;
  int64_t skipped_rows_ = 0;
};

class RefRnn {
 public:
  RefRnn(const Parameter& w, const Parameter& b, int input_dim,
         int hidden_dim)
      : input_dim_(input_dim), hidden_dim_(hidden_dim), w_(w), b_(b) {}

  Matrix Forward(const Matrix& x) {
    const int len = x.rows();
    const int h = hidden_dim_;
    const int zdim = h + input_dim_;
    z_cache_.assign(len, {});
    h_cache_ = Matrix(len, h);
    std::vector<double> h_prev(h, 0.0), pre(h);
    for (int t = 0; t < len; ++t) {
      std::vector<double>& z = z_cache_[t];
      z.resize(zdim);
      for (int j = 0; j < h; ++j) z[j] = h_prev[j];
      for (int j = 0; j < input_dim_; ++j) z[h + j] = x(t, j);
      simd::MatVec(w_.value.data(), b_.value.data(), z.data(), pre.data(), h,
                   zdim);
      for (int j = 0; j < h; ++j) {
        h_cache_(t, j) = std::tanh(pre[j]);
        h_prev[j] = h_cache_(t, j);
      }
    }
    return h_cache_;
  }

  Matrix Backward(const Matrix& dh_all) {
    const int len = static_cast<int>(z_cache_.size());
    const int h = hidden_dim_;
    const int zdim = h + input_dim_;
    Matrix dx(len, input_dim_);
    std::vector<double> dh_next(h, 0.0);
    for (int t = len - 1; t >= 0; --t) {
      const std::vector<double>& z = z_cache_[t];
      std::vector<double> dz(zdim, 0.0);
      for (int j = 0; j < h; ++j) {
        double dh = dh_all(t, j) + dh_next[j];
        double dpre = dh * (1.0 - h_cache_(t, j) * h_cache_(t, j));
        if (dpre == 0.0) {
          ++skipped_rows_;
          continue;
        }
        b_.grad(j, 0) += dpre;
        simd::Axpy(dpre, z.data(),
                   w_.grad.data() + static_cast<size_t>(j) * zdim, zdim);
        simd::Axpy(dpre, w_.value.data() + static_cast<size_t>(j) * zdim,
                   dz.data(), zdim);
      }
      for (int j = 0; j < h; ++j) dh_next[j] = dz[j];
      for (int j = 0; j < input_dim_; ++j) dx(t, j) = dz[h + j];
    }
    return dx;
  }

  std::vector<Parameter*> Params() { return {&w_, &b_}; }
  int64_t skipped_rows() const { return skipped_rows_; }

 private:
  int input_dim_;
  int hidden_dim_;
  Parameter w_;
  Parameter b_;
  std::vector<std::vector<double>> z_cache_;
  Matrix h_cache_;
  int64_t skipped_rows_ = 0;
};

class RefAdam {
 public:
  explicit RefAdam(std::vector<Parameter*> params)
      : params_(std::move(params)) {
    for (Parameter* p : params_) {
      m_.emplace_back(p->size(), 0.0);
      v_.emplace_back(p->size(), 0.0);
    }
  }

  void Step() {
    ++t_;
    const double bias1 = 1.0 - std::pow(beta1_, static_cast<double>(t_));
    const double bias2 = 1.0 - std::pow(beta2_, static_cast<double>(t_));
    for (size_t i = 0; i < params_.size(); ++i) {
      Parameter* p = params_[i];
      double* value = p->value.data();
      double* grad = p->grad.data();
      std::vector<double>& m = m_[i];
      std::vector<double>& v = v_[i];
      for (size_t j = 0; j < p->size(); ++j) {
        m[j] = beta1_ * m[j] + (1.0 - beta1_) * grad[j];
        v[j] = beta2_ * v[j] + (1.0 - beta2_) * grad[j] * grad[j];
        double mhat = m[j] / bias1;
        double vhat = v[j] / bias2;
        value[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
        grad[j] = 0.0;
      }
    }
  }

  const std::vector<std::vector<double>>& m() const { return m_; }
  const std::vector<std::vector<double>>& v() const { return v_; }

 private:
  std::vector<Parameter*> params_;
  double lr_ = 1e-3, beta1_ = 0.9, beta2_ = 0.999, eps_ = 1e-8;
  int64_t t_ = 0;
  std::vector<std::vector<double>> m_, v_;
};

bool SameBits(const double* a, const double* b, size_t n) {
  return std::memcmp(a, b, n * sizeof(double)) == 0;
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         SameBits(a.data(), b.data(), a.size());
}

/// Two stacked layers of the tested kind beside two reference layers that
/// start from the same weights, trained in lockstep.
template <typename Layer, typename Ref>
struct LockstepStack {
  LockstepStack(int input_dim, int hidden_dim, double weight_scale,
                Rng* rng) {
    layers.emplace_back(input_dim, hidden_dim, rng);
    layers.emplace_back(hidden_dim, hidden_dim, rng);
    for (Layer& layer : layers) layer.CollectParams(&params);
    // Large weights saturate gates, so some pre-activation gradients are
    // exactly zero (rows the reference skips).
    for (Parameter* p : params) p->value.ScaleInPlace(weight_scale);
    refs.emplace_back(*params[0], *params[1], input_dim, hidden_dim);
    refs.emplace_back(*params[2], *params[3], hidden_dim, hidden_dim);
    for (Ref& ref : refs) {
      for (Parameter* p : ref.Params()) ref_params.push_back(p);
    }
  }

  std::vector<Layer> layers;
  std::vector<Ref> refs;
  std::vector<Parameter*> params, ref_params;
};

/// Trains the tested layers and the reference in lockstep on random
/// sequences of length 1-128 and memcmps outputs, input gradients,
/// parameters, gradients and Adam moments.
template <typename Layer, typename Ref>
void ExpectLockstepWithReference(int input_dim, int hidden_dim,
                                 double weight_scale, uint64_t seed) {
  SCOPED_TRACE("input_dim=" + std::to_string(input_dim) + " hidden_dim=" +
               std::to_string(hidden_dim) + " weight_scale=" +
               std::to_string(weight_scale));
  Rng rng(seed);
  LockstepStack<Layer, Ref> stack(input_dim, hidden_dim, weight_scale, &rng);
  AdamOptimizer adam(stack.params);
  RefAdam ref_adam(stack.ref_params);

  for (int step = 0; step < 24; ++step) {
    // Two sequences before one optimizer step on every third step.
    const int sequences = step % 3 == 2 ? 2 : 1;
    for (int s = 0; s < sequences; ++s) {
      const int len =
          step == 0 ? 1 : (step == 1 ? 128 : 1 + rng.UniformInt(128));
      Matrix x = Matrix::Randn(len, input_dim, 1.0, &rng);
      // The sequence model's pooled loss reaches only the last timestep;
      // rotate that with a gradient at every timestep, none at all (a dead
      // head: every timestep skips), and one random timestep (the steps
      // after it skip).
      Matrix dh(len, hidden_dim);
      int from = 0, to = len;
      switch (step % 4) {
        case 0:
          from = len - 1;
          break;
        case 2:
          to = 0;
          break;
        case 3:
          from = rng.UniformInt(len);
          to = from + 1;
          break;
      }
      for (int t = from; t < to; ++t) {
        for (int j = 0; j < hidden_dim; ++j) dh(t, j) = rng.Normal();
      }
      Matrix out = stack.layers[1].Forward(stack.layers[0].Forward(x));
      Matrix ref_out = stack.refs[1].Forward(stack.refs[0].Forward(x));
      ASSERT_TRUE(SameBits(out, ref_out)) << "forward, step " << step;
      Matrix dx = stack.layers[0].Backward(stack.layers[1].Backward(dh));
      Matrix ref_dx = stack.refs[0].Backward(stack.refs[1].Backward(dh));
      ASSERT_TRUE(SameBits(dx, ref_dx)) << "dx, step " << step;
    }
    for (size_t p = 0; p < stack.params.size(); ++p) {
      ASSERT_TRUE(SameBits(stack.params[p]->grad, stack.ref_params[p]->grad))
          << "grad of parameter " << p << ", step " << step;
    }
    ClipGradNorm(stack.params, 5.0);
    ClipGradNorm(stack.ref_params, 5.0);
    adam.Step();
    ref_adam.Step();
    for (size_t p = 0; p < stack.params.size(); ++p) {
      ASSERT_TRUE(
          SameBits(stack.params[p]->value, stack.ref_params[p]->value))
          << "value of parameter " << p << ", step " << step;
      ASSERT_TRUE(SameBits(stack.params[p]->grad, stack.ref_params[p]->grad));
    }
  }

  // Adam moments: AdamOptimizer::SaveState writes t, the slot count, then
  // m and v per parameter.
  common::BinaryWriter writer;
  adam.SaveState(&writer);
  common::BinaryReader reader(writer.buffer());
  reader.ReadI64();
  ASSERT_EQ(reader.ReadU32(), stack.params.size());
  for (size_t p = 0; p < stack.params.size(); ++p) {
    const std::vector<double> m = reader.ReadVecDouble();
    const std::vector<double> v = reader.ReadVecDouble();
    ASSERT_EQ(m.size(), ref_adam.m()[p].size());
    ASSERT_EQ(v.size(), ref_adam.v()[p].size());
    EXPECT_TRUE(SameBits(m.data(), ref_adam.m()[p].data(), m.size()))
        << "Adam m of parameter " << p;
    EXPECT_TRUE(SameBits(v.data(), ref_adam.v()[p].data(), v.size()))
        << "Adam v of parameter " << p;
  }
  ASSERT_TRUE(reader.ok());

  int64_t skipped = 0;
  for (const Ref& ref : stack.refs) skipped += ref.skipped_rows();
  if (weight_scale > 1.0) {
    EXPECT_GT(skipped, 0) << "saturation produced no zero gradient rows";
  }
}

template <typename Layer, typename Ref>
void ExpectLockstepAcrossShapesAndBackends() {
  for (bool simd_on : {true, false}) {
    const bool was_enabled = simd::Enabled();
    simd::SetEnabled(simd_on);
    SCOPED_TRACE(simd_on ? "simd on" : "simd off");
    // Production width (zdim 64) and a shape off every block size.
    ExpectLockstepWithReference<Layer, Ref>(32, 32, 1.0, 3);
    ExpectLockstepWithReference<Layer, Ref>(7, 9, 1.0, 4);
    ExpectLockstepWithReference<Layer, Ref>(32, 32, 40.0, 5);
    ExpectLockstepWithReference<Layer, Ref>(7, 9, 40.0, 6);
    simd::SetEnabled(was_enabled);
  }
}

TEST(RecurrentExactnessTest, LstmMatchesPerTimestepReference) {
  ExpectLockstepAcrossShapesAndBackends<LstmLayer, RefLstm>();
}

TEST(RecurrentExactnessTest, RnnMatchesPerTimestepReference) {
  ExpectLockstepAcrossShapesAndBackends<RnnLayer, RefRnn>();
}

// --- Finite-difference gradients of the recurrent layers ------------------

/// Checks every weight, bias and input gradient of `layer` against central
/// differences of L = Σ r ⊙ Forward(x) for a random r.
template <typename Layer>
void LayerGradCheck(int input_dim, int hidden_dim, int len, uint64_t seed) {
  SCOPED_TRACE("len=" + std::to_string(len));
  Rng rng(seed);
  Layer layer(input_dim, hidden_dim, &rng);
  Matrix x = Matrix::Randn(len, input_dim, 1.0, &rng);
  Matrix r = Matrix::Randn(len, hidden_dim, 1.0, &rng);
  std::vector<Parameter*> params;
  layer.CollectParams(&params);
  // Nonzero biases so the check does not sit at the bias init.
  for (size_t i = 0; i < params[1]->size(); ++i) {
    params[1]->value.data()[i] += 0.3 * rng.Normal();
  }
  auto loss = [&]() {
    Matrix h = layer.Forward(x);
    double total = 0.0;
    for (size_t i = 0; i < h.size(); ++i) total += r.data()[i] * h.data()[i];
    return total;
  };

  for (Parameter* p : params) p->ZeroGrad();
  layer.Forward(x);
  const Matrix dx = layer.Backward(r);

  const double eps = 1e-6;
  auto expect_close = [&](double* slot, double analytic, const char* what,
                          size_t index) {
    const double original = *slot;
    *slot = original + eps;
    const double up = loss();
    *slot = original - eps;
    const double down = loss();
    *slot = original;
    const double numeric = (up - down) / (2.0 * eps);
    EXPECT_NEAR(analytic, numeric,
                1e-6 + 1e-5 * std::max(std::abs(numeric), std::abs(analytic)))
        << what << " entry " << index;
  };
  for (size_t k = 0; k < params.size(); ++k) {
    Parameter* p = params[k];
    for (size_t i = 0; i < p->size(); ++i) {
      expect_close(&p->value.data()[i], p->grad.data()[i],
                   k == 0 ? "weight" : "bias", i);
    }
  }
  for (size_t i = 0; i < x.size(); ++i) {
    expect_close(&x.data()[i], dx.data()[i], "input", i);
  }
}

TEST(RecurrentGradCheckTest, Lstm) {
  LayerGradCheck<LstmLayer>(3, 4, 6, 41);
  LayerGradCheck<LstmLayer>(3, 4, 1, 42);
}

TEST(RecurrentGradCheckTest, Rnn) {
  LayerGradCheck<RnnLayer>(3, 5, 6, 43);
  LayerGradCheck<RnnLayer>(3, 5, 1, 44);
}

TEST(SequenceModelTest, BackboneNames) {
  EXPECT_STREQ(BackboneName(Backbone::kLstm), "LSTM");
  EXPECT_STREQ(BackboneName(Backbone::kRnn), "RNN");
  EXPECT_STREQ(BackboneName(Backbone::kTransformer), "Transformer");
}

}  // namespace
}  // namespace nn
}  // namespace fastft
