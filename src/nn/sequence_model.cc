#include "nn/sequence_model.h"

#include <cmath>

#include "common/logging.h"
#include "common/rng.h"

namespace fastft {
namespace nn {

const char* BackboneName(Backbone backbone) {
  switch (backbone) {
    case Backbone::kLstm:
      return "LSTM";
    case Backbone::kRnn:
      return "RNN";
    case Backbone::kTransformer:
      return "Transformer";
  }
  return "?";
}

SequenceModel::SequenceModel(const SequenceModelConfig& config)
    : config_(config),
      prefix_cache_(config.backbone == Backbone::kTransformer
                        ? 0
                        : config.prefix_cache_bytes) {
  Rng rng(config.seed);
  embedding_ = Embedding(config.vocab_size, config.embed_dim, &rng);
  int in_dim = config.embed_dim;
  for (int l = 0; l < config.num_layers; ++l) {
    switch (config.backbone) {
      case Backbone::kLstm:
        lstm_layers_.emplace_back(in_dim, config.hidden_dim, &rng);
        break;
      case Backbone::kRnn:
        rnn_layers_.emplace_back(in_dim, config.hidden_dim, &rng);
        break;
      case Backbone::kTransformer:
        FASTFT_CHECK_EQ(config.embed_dim, config.hidden_dim)
            << "transformer blocks keep width";
        transformer_layers_.emplace_back(config.hidden_dim, &rng);
        break;
    }
    in_dim = config.hidden_dim;
  }
  MlpConfig head_config;
  head_config.dims.push_back(config.hidden_dim);
  for (int d : config.head_dims) head_config.dims.push_back(d);
  head_config.orthogonal_gain = config.orthogonal_gain;
  head_ = Mlp(head_config, &rng);
  optimizer_ = std::make_unique<AdamOptimizer>(Params(), 1e-3);
}

Matrix SequenceModel::RunBackbone(const Matrix& embedded) {
  Matrix h = embedded;
  for (auto& layer : lstm_layers_) h = layer.Forward(h);
  for (auto& layer : rnn_layers_) h = layer.Forward(h);
  for (auto& layer : transformer_layers_) h = layer.Forward(h);
  return h;
}

Matrix SequenceModel::Pool(const Matrix& hidden) const {
  Matrix pooled(1, hidden.cols());
  if (config_.backbone == Backbone::kTransformer) {
    for (int r = 0; r < hidden.rows(); ++r) {
      for (int c = 0; c < hidden.cols(); ++c) pooled(0, c) += hidden(r, c);
    }
    pooled.ScaleInPlace(1.0 / static_cast<double>(hidden.rows()));
  } else {
    for (int c = 0; c < hidden.cols(); ++c) {
      pooled(0, c) = hidden(hidden.rows() - 1, c);
    }
  }
  return pooled;
}

Matrix SequenceModel::Unpool(const Matrix& d_pooled, int len) const {
  Matrix d(len, d_pooled.cols());
  if (config_.backbone == Backbone::kTransformer) {
    double inv = 1.0 / static_cast<double>(len);
    for (int r = 0; r < len; ++r) {
      for (int c = 0; c < d.cols(); ++c) d(r, c) = d_pooled(0, c) * inv;
    }
  } else {
    for (int c = 0; c < d.cols(); ++c) d(len - 1, c) = d_pooled(0, c);
  }
  return d;
}

double SequenceModel::Forward(const std::vector<int>& tokens) {
  FASTFT_CHECK(!tokens.empty());
  last_len_ = static_cast<int>(tokens.size());
  Matrix hidden = RunBackbone(embedding_.Forward(tokens));
  Matrix out = head_.Forward(Pool(hidden));
  return out(0, 0);
}

EncodeState SequenceModel::ZeroState() const {
  EncodeState state;
  state.layers.resize(static_cast<size_t>(config_.num_layers));
  for (RecurrentLayerState& layer : state.layers) {
    layer.h.assign(static_cast<size_t>(config_.hidden_dim), 0.0);
    if (config_.backbone == Backbone::kLstm) {
      layer.c.assign(static_cast<size_t>(config_.hidden_dim), 0.0);
    }
  }
  state.length = 0;
  return state;
}

void SequenceModel::AdvanceState(const std::vector<int>& tokens, int upto,
                                 EncodeState* state) const {
  FASTFT_CHECK(SupportsIncremental());
  if (state->length >= upto) return;
  // One chunk of appended tokens flows through the whole stack: layer l
  // consumes layer l-1's chunk output while both carry their states
  // forward, which reproduces the per-timestep order of a full Forward.
  Matrix h = embedding_.ForwardInfer(tokens, state->length, upto);
  size_t layer_index = 0;
  for (const LstmLayer& layer : lstm_layers_) {
    RecurrentLayerState& ls = state->layers[layer_index++];
    h = layer.ForwardInfer(h, &ls.h, &ls.c);
  }
  for (const RnnLayer& layer : rnn_layers_) {
    RecurrentLayerState& ls = state->layers[layer_index++];
    h = layer.ForwardInfer(h, &ls.h);
  }
  state->length = upto;
}

Matrix SequenceModel::InferencePooled(const std::vector<int>& tokens) const {
  const int n = static_cast<int>(tokens.size());
  if (!SupportsIncremental()) {
    Matrix h = embedding_.ForwardInfer(tokens, 0, n);
    for (const TransformerBlock& layer : transformer_layers_) {
      h = layer.ForwardInfer(h);
    }
    return Pool(h);
  }
  EncodeState state;
  if (!prefix_cache_.LongestPrefix(tokens, &state)) state = ZeroState();
  const int start = state.length;
  // Advance in two chunks with a snapshot at n-1: the engine's sequences
  // replace their trailing EOS each step, so the n-1 prefix — not the full
  // sequence — is what the next step resumes from.
  if (state.length < n - 1) {
    AdvanceState(tokens, n - 1, &state);
    prefix_cache_.Insert(tokens, state);
  }
  if (state.length < n) {
    AdvanceState(tokens, n, &state);
    prefix_cache_.Insert(tokens, state);
  }
  prefix_cache_.RecordEncoded(n - start);
  // Last-timestep pooling: the top layer's hidden state IS the pooled row.
  Matrix pooled(1, config_.hidden_dim);
  const std::vector<double>& top = state.layers.back().h;
  for (int c = 0; c < config_.hidden_dim; ++c) pooled(0, c) = top[c];
  return pooled;
}

double SequenceModel::Predict(const std::vector<int>& tokens) const {
  FASTFT_CHECK(!tokens.empty());
  Matrix out = head_.ForwardInfer(InferencePooled(tokens));
  return out(0, 0);
}

std::vector<double> SequenceModel::Encode(
    const std::vector<int>& tokens) const {
  FASTFT_CHECK(!tokens.empty());
  Matrix pooled = InferencePooled(tokens);
  RowSpan row = pooled.Row(0);
  return std::vector<double>(row.begin(), row.end());
}

double SequenceModel::TrainStep(const std::vector<int>& tokens,
                                double target) {
  double pred = Forward(tokens);
  double err = pred - target;
  if (!std::isfinite(err)) {
    // A NaN/Inf loss would poison every parameter through backprop; skip
    // the update and surface the non-finite error to the caller.
    ++non_finite_skips_;
    return err * err;
  }
  // d(0.5*err^2)/d pred = err; backprop through head then backbone.
  Matrix d_out(1, head_.out_dim());
  d_out(0, 0) = err;
  Matrix d_pooled = head_.Backward(d_out);
  Matrix d_hidden = Unpool(d_pooled, last_len_);
  for (size_t l = transformer_layers_.size(); l-- > 0;) {
    d_hidden = transformer_layers_[l].Backward(d_hidden);
  }
  for (size_t l = rnn_layers_.size(); l-- > 0;) {
    d_hidden = rnn_layers_[l].Backward(d_hidden);
  }
  for (size_t l = lstm_layers_.size(); l-- > 0;) {
    d_hidden = lstm_layers_[l].Backward(d_hidden);
  }
  embedding_.Backward(d_hidden);
  return err * err;
}

void SequenceModel::ApplyStep() {
  if (!optimizer_->ClippedStep(5.0)) {
    ++non_finite_skips_;
    return;
  }
  // Cached prefix states were computed under the old weights.
  prefix_cache_.Invalidate();
}

std::vector<Parameter*> SequenceModel::Params() {
  std::vector<Parameter*> params;
  embedding_.CollectParams(&params);
  for (auto& layer : lstm_layers_) layer.CollectParams(&params);
  for (auto& layer : rnn_layers_) layer.CollectParams(&params);
  for (auto& layer : transformer_layers_) layer.CollectParams(&params);
  head_.CollectParams(&params);
  return params;
}

void SequenceModel::SaveState(common::BinaryWriter* writer) {
  SerializeParameters(Params(), writer);
  optimizer_->SaveState(writer);
  writer->WriteI64(non_finite_skips_);
}

void SequenceModel::LoadState(common::BinaryReader* reader) {
  DeserializeParameters(reader, Params());
  optimizer_->LoadState(reader);
  non_finite_skips_ = reader->ReadI64();
  prefix_cache_.Invalidate();
}

size_t SequenceModel::ParameterBytes() const {
  size_t bytes = static_cast<size_t>(config_.vocab_size) *
                 config_.embed_dim * sizeof(double);
  for (const auto& layer : lstm_layers_) bytes += layer.ParameterBytes();
  for (const auto& layer : rnn_layers_) bytes += layer.ParameterBytes();
  for (const auto& layer : transformer_layers_) {
    bytes += layer.ParameterBytes();
  }
  bytes += head_.ParameterBytes();
  return bytes;
}

size_t SequenceModel::ActivationBytes(int sequence_length) const {
  size_t bytes = static_cast<size_t>(sequence_length) * config_.embed_dim *
                 sizeof(double);
  for (const auto& layer : lstm_layers_) {
    bytes += layer.ActivationBytes(sequence_length);
  }
  for (const auto& layer : rnn_layers_) {
    bytes += layer.ActivationBytes(sequence_length);
  }
  for (const auto& layer : transformer_layers_) {
    bytes += layer.ActivationBytes(sequence_length);
  }
  // Pooled vector + head activations (sequence-length independent).
  bytes += static_cast<size_t>(config_.hidden_dim) * sizeof(double);
  return bytes;
}

}  // namespace nn
}  // namespace fastft
