#include "core/q_agents.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "nn/serialization.h"

namespace fastft {
namespace {

nn::Matrix StateRow(const std::vector<double>& state) {
  nn::Matrix row(1, static_cast<int>(state.size()));
  for (size_t j = 0; j < state.size(); ++j) {
    row(0, static_cast<int>(j)) = state[j];
  }
  return row;
}

std::vector<double> Flatten(const nn::Matrix& m) {
  std::vector<double> out;
  if (m.cols() == 1) {
    for (int r = 0; r < m.rows(); ++r) out.push_back(m(r, 0));
  } else {
    FASTFT_CHECK_EQ(m.rows(), 1);
    for (int c = 0; c < m.cols(); ++c) out.push_back(m(0, c));
  }
  return out;
}

}  // namespace

const char* QVariantName(QVariant variant) {
  switch (variant) {
    case QVariant::kDqn:
      return "DQN";
    case QVariant::kDoubleDqn:
      return "DDQN";
    case QVariant::kDuelingDqn:
      return "DuelingDQN";
    case QVariant::kDuelingDoubleDqn:
      return "DuelingDDQN";
  }
  return "?";
}

QCascade::QCascade(QVariant variant, const QAgentConfig& config)
    : variant_(variant), config_(config) {
  Rng rng(config.seed);
  head_ = MakeNet(HeadInputDim(), 1, &rng);
  op_ = MakeNet(OpInputDim(), kNumOperations, &rng);
  tail_ = MakeNet(TailInputDim(), 1, &rng);
}

QCascade::QNet QCascade::MakeNet(int input_dim, int output_dim, Rng* rng) {
  QNet net;
  nn::MlpConfig mc;
  mc.dims = {input_dim, config_.hidden_dim, output_dim};
  net.online = nn::Mlp(mc, rng);
  net.target = net.online;
  mc.dims = {kStateDim, config_.hidden_dim, 1};
  net.value_online = nn::Mlp(mc, rng);
  net.value_target = net.value_online;
  std::vector<nn::Parameter*> params;
  net.online.CollectParams(&params);
  net.optimizer =
      std::make_unique<nn::AdamOptimizer>(params, config_.learning_rate);
  params.clear();
  net.value_online.CollectParams(&params);
  net.value_optimizer =
      std::make_unique<nn::AdamOptimizer>(params, config_.learning_rate);
  return net;
}

void QCascade::SyncTargets() {
  head_.target = head_.online;
  head_.value_target = head_.value_online;
  op_.target = op_.online;
  op_.value_target = op_.value_online;
  tail_.target = tail_.online;
  tail_.value_target = tail_.value_online;
}

std::vector<double> QCascade::QValues(QNet* net, const nn::Matrix& inputs,
                                      const std::vector<double>& state,
                                      bool use_target) {
  nn::Mlp& scorer = use_target ? net->target : net->online;
  std::vector<double> advantages = Flatten(scorer.Forward(inputs));
  if (!Dueling()) return advantages;
  nn::Mlp& value_net = use_target ? net->value_target : net->value_online;
  double v = value_net.Forward(StateRow(state))(0, 0);
  double mean = 0.0;
  for (double a : advantages) mean += a;
  mean /= static_cast<double>(advantages.size());
  std::vector<double> q(advantages.size());
  for (size_t i = 0; i < advantages.size(); ++i) {
    q[i] = v + advantages[i] - mean;
  }
  return q;
}

int QCascade::Greedy(const std::vector<double>& q, Rng* rng) const {
  FASTFT_CHECK(!q.empty());
  if (rng->Bernoulli(config_.epsilon)) {
    return rng->UniformInt(static_cast<int>(q.size()));
  }
  return static_cast<int>(std::max_element(q.begin(), q.end()) - q.begin());
}

int QCascade::SelectHead(const nn::Matrix& candidates, Rng* rng) {
  // Selection state: the overall-state half of the first candidate row is
  // not separable here, so the dueling V(s) uses a zero state during pure
  // selection; the dueling decomposition only shifts all Q-values equally,
  // leaving the argmax unchanged.
  std::vector<double> zero_state(kStateDim, 0.0);
  std::vector<double> q = QValues(&head_, candidates, zero_state, false);
  int action = Greedy(q, rng);
  head_selection_ = MakeSelectionStats(q, action);
  return action;
}

int QCascade::SelectOperation(const nn::Matrix& input, Rng* rng) {
  std::vector<double> zero_state(kStateDim, 0.0);
  std::vector<double> q = QValues(&op_, input, zero_state, false);
  int action = Greedy(q, rng);
  op_selection_ = MakeSelectionStats(q, action);
  return action;
}

int QCascade::SelectTail(const nn::Matrix& candidates, Rng* rng) {
  std::vector<double> zero_state(kStateDim, 0.0);
  std::vector<double> q = QValues(&tail_, candidates, zero_state, false);
  int action = Greedy(q, rng);
  tail_selection_ = MakeSelectionStats(q, action);
  return action;
}

double QCascade::NextStateTarget(const Transition& t) {
  if (t.next_head_inputs.Empty()) return t.reward;
  std::vector<double> q_target =
      QValues(&head_, t.next_head_inputs, t.next_state, /*use_target=*/true);
  double bootstrap = 0.0;
  if (DoubleQ()) {
    std::vector<double> q_online = QValues(&head_, t.next_head_inputs,
                                           t.next_state, /*use_target=*/false);
    int argmax = static_cast<int>(
        std::max_element(q_online.begin(), q_online.end()) - q_online.begin());
    bootstrap = q_target[argmax];
  } else {
    bootstrap = *std::max_element(q_target.begin(), q_target.end());
  }
  return t.reward + config_.gamma * bootstrap;
}

void QCascade::UpdateNet(QNet* net, const nn::Matrix& inputs,
                         const std::vector<double>& state, int action,
                         double target, bool logits_row) {
  if (action < 0 || inputs.Empty()) return;
  // Forward online nets (caches set up for backward).
  std::vector<double> advantages = Flatten(net->online.Forward(inputs));
  const int n = static_cast<int>(advantages.size());
  FASTFT_CHECK_LT(action, n);
  double v = 0.0;
  if (Dueling()) {
    v = net->value_online.Forward(StateRow(state))(0, 0);
  }
  double mean = 0.0;
  if (Dueling()) {
    for (double a : advantages) mean += a;
    mean /= static_cast<double>(n);
  }
  double q = Dueling() ? v + advantages[action] - mean : advantages[action];
  double err = q - target;

  nn::Matrix d_scores(logits_row ? 1 : n, logits_row ? n : 1);
  for (int i = 0; i < n; ++i) {
    double g = Dueling()
                   ? err * ((i == action ? 1.0 : 0.0) - 1.0 / n)
                   : (i == action ? err : 0.0);
    if (logits_row) {
      d_scores(0, i) = g;
    } else {
      d_scores(i, 0) = g;
    }
  }
  net->online.Backward(d_scores);
  net->optimizer->ClippedStep(5.0);

  if (Dueling()) {
    nn::Matrix d_v(1, 1);
    d_v(0, 0) = err;
    net->value_online.Backward(d_v);
    net->value_optimizer->ClippedStep(5.0);
  }
}

void QCascade::Optimize(const Transition& t) {
  double target = NextStateTarget(t);
  UpdateNet(&head_, t.head_inputs, t.state, t.head_action, target,
            /*logits_row=*/false);
  UpdateNet(&op_, t.op_input, t.state, t.op_action, target,
            /*logits_row=*/true);
  if (t.tail_action >= 0) {
    UpdateNet(&tail_, t.tail_inputs, t.state, t.tail_action, target,
              /*logits_row=*/false);
  }
  if (++updates_ % config_.target_sync_every == 0) SyncTargets();
}

double QCascade::TdError(const Transition& t) {
  if (t.head_action < 0 || t.head_inputs.Empty()) return t.reward;
  std::vector<double> q =
      QValues(&head_, t.head_inputs, t.state, /*use_target=*/false);
  return NextStateTarget(t) - q[t.head_action];
}

namespace {

std::vector<nn::Parameter*> NetParams(nn::Mlp* net) {
  std::vector<nn::Parameter*> params;
  net->CollectParams(&params);
  return params;
}

}  // namespace

void QCascade::SaveState(common::BinaryWriter* writer) {
  QNet* nets[] = {&head_, &op_, &tail_};
  for (QNet* net : nets) {
    nn::SerializeParameters(NetParams(&net->online), writer);
    nn::SerializeParameters(NetParams(&net->target), writer);
    nn::SerializeParameters(NetParams(&net->value_online), writer);
    nn::SerializeParameters(NetParams(&net->value_target), writer);
    net->optimizer->SaveState(writer);
    net->value_optimizer->SaveState(writer);
  }
  writer->WriteI32(updates_);
}

void QCascade::LoadState(common::BinaryReader* reader) {
  QNet* nets[] = {&head_, &op_, &tail_};
  for (QNet* net : nets) {
    nn::DeserializeParameters(reader, NetParams(&net->online));
    nn::DeserializeParameters(reader, NetParams(&net->target));
    nn::DeserializeParameters(reader, NetParams(&net->value_online));
    nn::DeserializeParameters(reader, NetParams(&net->value_target));
    net->optimizer->LoadState(reader);
    net->value_optimizer->LoadState(reader);
    if (!reader->ok()) return;
  }
  updates_ = reader->ReadI32();
}

}  // namespace fastft
