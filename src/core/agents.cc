#include "core/agents.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/serialization.h"

namespace fastft {

std::vector<double> FlattenScores(const nn::Matrix& scores) {
  // Accepts either an (n × 1) column of per-candidate scores or a (1 × n)
  // logits row.
  std::vector<double> flat;
  if (scores.cols() == 1) {
    for (int r = 0; r < scores.rows(); ++r) flat.push_back(scores(r, 0));
  } else {
    FASTFT_CHECK_EQ(scores.rows(), 1);
    for (int c = 0; c < scores.cols(); ++c) flat.push_back(scores(0, c));
  }
  return flat;
}

SelectionStats CascadePolicy::MakeSelectionStats(
    const std::vector<double>& scores, int action) {
  SelectionStats stats;
  stats.candidates = static_cast<int>(scores.size());
  stats.chosen_score =
      action >= 0 && action < stats.candidates ? scores[action] : 0.0;
  stats.runner_up_score = std::numeric_limits<double>::quiet_NaN();
  for (int i = 0; i < stats.candidates; ++i) {
    if (i == action) continue;
    if (std::isnan(stats.runner_up_score) ||
        scores[i] > stats.runner_up_score) {
      stats.runner_up_score = scores[i];
    }
  }
  return stats;
}

std::vector<double> SoftmaxScores(const nn::Matrix& scores,
                                  double temperature) {
  std::vector<double> flat = FlattenScores(scores);
  double max_score = -1e300;
  for (double v : flat) max_score = std::max(max_score, v);
  double denom = 0.0;
  for (double& v : flat) {
    v = std::exp((v - max_score) / std::max(temperature, 1e-6));
    denom += v;
  }
  for (double& v : flat) v /= denom;
  return flat;
}

CascadingAgents::CascadingAgents(const AgentConfig& config)
    : config_(config) {
  Rng init_rng(DeriveSeed(config.seed, 1));
  nn::MlpConfig mc;
  mc.dims = {HeadInputDim(), config.hidden_dim, 1};
  head_net_ = nn::Mlp(mc, &init_rng);
  mc.dims = {OpInputDim(), config.hidden_dim, kNumOperations};
  op_net_ = nn::Mlp(mc, &init_rng);
  mc.dims = {TailInputDim(), config.hidden_dim, 1};
  tail_net_ = nn::Mlp(mc, &init_rng);
  mc.dims = {kStateDim, config.hidden_dim, 1};
  critic_ = nn::Mlp(mc, &init_rng);

  std::vector<nn::Parameter*> params;
  head_net_.CollectParams(&params);
  head_opt_ = std::make_unique<nn::AdamOptimizer>(params, config.actor_lr);
  params.clear();
  op_net_.CollectParams(&params);
  op_opt_ = std::make_unique<nn::AdamOptimizer>(params, config.actor_lr);
  params.clear();
  tail_net_.CollectParams(&params);
  tail_opt_ = std::make_unique<nn::AdamOptimizer>(params, config.actor_lr);
  params.clear();
  critic_.CollectParams(&params);
  critic_opt_ = std::make_unique<nn::AdamOptimizer>(params, config.critic_lr);
}

int CascadingAgents::SampleFromScores(const nn::Matrix& scores, Rng* rng) {
  std::vector<double> probs = SoftmaxScores(scores, config_.temperature);
  if (rng->Bernoulli(config_.epsilon)) {
    return rng->UniformInt(static_cast<int>(probs.size()));
  }
  return rng->SampleDiscrete(probs);
}

int CascadingAgents::SelectHead(const nn::Matrix& candidates, Rng* rng) {
  FASTFT_CHECK_GT(candidates.rows(), 0);
  nn::Matrix scores = head_net_.Forward(candidates);
  int action = SampleFromScores(scores, rng);
  head_selection_ = MakeSelectionStats(FlattenScores(scores), action);
  return action;
}

int CascadingAgents::SelectOperation(const nn::Matrix& input, Rng* rng) {
  FASTFT_CHECK_EQ(input.rows(), 1);
  nn::Matrix logits = op_net_.Forward(input);
  int action = SampleFromScores(logits, rng);
  op_selection_ = MakeSelectionStats(FlattenScores(logits), action);
  return action;
}

int CascadingAgents::SelectTail(const nn::Matrix& candidates, Rng* rng) {
  FASTFT_CHECK_GT(candidates.rows(), 0);
  nn::Matrix scores = tail_net_.Forward(candidates);
  int action = SampleFromScores(scores, rng);
  tail_selection_ = MakeSelectionStats(FlattenScores(scores), action);
  return action;
}

double CascadingAgents::Value(const std::vector<double>& state) {
  nn::Matrix input(1, static_cast<int>(state.size()));
  for (size_t j = 0; j < state.size(); ++j) {
    input(0, static_cast<int>(j)) = state[j];
  }
  return critic_.Forward(input)(0, 0);
}

double CascadingAgents::TdError(const Transition& t) {
  return t.reward + config_.gamma * Value(t.next_state) - Value(t.state);
}

void CascadingAgents::ActorUpdate(nn::Mlp* net, nn::AdamOptimizer* optimizer,
                                  const nn::Matrix& inputs, int action,
                                  double advantage, bool logits_row) {
  if (action < 0 || inputs.Empty()) return;
  nn::Matrix scores = net->Forward(inputs);
  std::vector<double> probs = SoftmaxScores(scores, config_.temperature);
  // d(-log π_a)/d score_i = (π_i − δ_ia) / temperature; scaled by advantage.
  nn::Matrix d_scores(scores.rows(), scores.cols());
  const double scale = advantage / std::max(config_.temperature, 1e-6);
  for (size_t i = 0; i < probs.size(); ++i) {
    double g = scale * (probs[i] - (static_cast<int>(i) == action ? 1.0 : 0.0));
    if (logits_row) {
      d_scores(0, static_cast<int>(i)) = g;
    } else {
      d_scores(static_cast<int>(i), 0) = g;
    }
  }
  net->Backward(d_scores);
  optimizer->ClippedStep(5.0);
}

void CascadingAgents::Optimize(const Transition& t) {
  // Critic target r + γ V(s') (bootstrapped, treated as constant).
  double v_next = Value(t.next_state);
  double target = t.reward + config_.gamma * v_next;
  // Re-run forward on s so the critic cache matches the backward pass.
  nn::Matrix s_input(1, static_cast<int>(t.state.size()));
  for (size_t j = 0; j < t.state.size(); ++j) {
    s_input(0, static_cast<int>(j)) = t.state[j];
  }
  double v_s = critic_.Forward(s_input)(0, 0);
  double advantage = target - v_s;

  nn::Matrix d_v(1, 1);
  d_v(0, 0) = v_s - target;  // d(0.5 MSE)
  critic_.Backward(d_v);
  critic_opt_->ClippedStep(5.0);

  ActorUpdate(&head_net_, head_opt_.get(), t.head_inputs, t.head_action,
              advantage, /*logits_row=*/false);
  ActorUpdate(&op_net_, op_opt_.get(), t.op_input, t.op_action,
              /*advantage=*/advantage, /*logits_row=*/true);
  if (t.tail_action >= 0) {
    ActorUpdate(&tail_net_, tail_opt_.get(), t.tail_inputs, t.tail_action,
                advantage, /*logits_row=*/false);
  }
}

namespace {

std::vector<nn::Parameter*> NetParams(nn::Mlp* net) {
  std::vector<nn::Parameter*> params;
  net->CollectParams(&params);
  return params;
}

}  // namespace

void CascadingAgents::SaveState(common::BinaryWriter* writer) {
  nn::Mlp* nets[] = {&head_net_, &op_net_, &tail_net_, &critic_};
  nn::AdamOptimizer* opts[] = {head_opt_.get(), op_opt_.get(),
                               tail_opt_.get(), critic_opt_.get()};
  for (int i = 0; i < 4; ++i) {
    nn::SerializeParameters(NetParams(nets[i]), writer);
    opts[i]->SaveState(writer);
  }
}

void CascadingAgents::LoadState(common::BinaryReader* reader) {
  nn::Mlp* nets[] = {&head_net_, &op_net_, &tail_net_, &critic_};
  nn::AdamOptimizer* opts[] = {head_opt_.get(), op_opt_.get(),
                               tail_opt_.get(), critic_opt_.get()};
  for (int i = 0; i < 4; ++i) {
    nn::DeserializeParameters(reader, NetParams(nets[i]));
    opts[i]->LoadState(reader);
    if (!reader->ok()) return;
  }
}

}  // namespace fastft
