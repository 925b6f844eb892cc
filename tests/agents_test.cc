// Tests for the cascading actor-critic agents and the Q-learning cascades.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <set>
#include <string>

#include "common/rng.h"
#include "common/serial.h"
#include "core/agents.h"
#include "core/q_agents.h"

namespace fastft {
namespace {

nn::Matrix RandomInputs(int rows, int cols, uint64_t seed) {
  Rng rng(seed);
  return nn::Matrix::Randn(rows, cols, 1.0, &rng);
}

Transition MakeTransition(double reward, uint64_t seed) {
  Transition t;
  t.head_inputs = RandomInputs(3, CascadePolicy::HeadInputDim(), seed);
  t.head_action = 1;
  t.op_input = RandomInputs(1, CascadePolicy::OpInputDim(), seed + 1);
  t.op_action = 2;
  t.tail_inputs = RandomInputs(3, CascadePolicy::TailInputDim(), seed + 2);
  t.tail_action = 0;
  t.state.assign(kStateDim, 0.1);
  t.next_state.assign(kStateDim, 0.2);
  t.next_head_inputs = RandomInputs(3, CascadePolicy::HeadInputDim(),
                                    seed + 3);
  t.reward = reward;
  t.tokens = {1, 2, 3};
  t.performance = reward;
  return t;
}

// Weights, targets and optimizer moments, as a checkpoint stores them.
std::string Snapshot(CascadePolicy* policy) {
  common::BinaryWriter writer;
  policy->SaveState(&writer);
  return writer.Release();
}

TEST(SoftmaxTest, NormalizedAndOrderPreserving) {
  nn::Matrix scores(3, 1);
  scores(0, 0) = 1.0;
  scores(1, 0) = 2.0;
  scores(2, 0) = 0.5;
  std::vector<double> p = SoftmaxScores(scores, 1.0);
  EXPECT_NEAR(p[0] + p[1] + p[2], 1.0, 1e-12);
  EXPECT_GT(p[1], p[0]);
  EXPECT_GT(p[0], p[2]);
}

TEST(SoftmaxTest, TemperatureSharpens) {
  nn::Matrix scores(2, 1);
  scores(0, 0) = 1.0;
  scores(1, 0) = 0.0;
  double hot = SoftmaxScores(scores, 10.0)[0];
  double cold = SoftmaxScores(scores, 0.1)[0];
  EXPECT_GT(cold, hot);
  EXPECT_GT(cold, 0.99);
}

TEST(SoftmaxTest, RowLogitsAccepted) {
  nn::Matrix logits(1, 4, 0.0);
  std::vector<double> p = SoftmaxScores(logits, 1.0);
  EXPECT_EQ(p.size(), 4u);
  for (double v : p) EXPECT_NEAR(v, 0.25, 1e-12);
}

TEST(CascadingAgentsTest, SelectionsInRange) {
  AgentConfig cfg;
  CascadingAgents agents(cfg);
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    int head = agents.SelectHead(
        RandomInputs(4, CascadePolicy::HeadInputDim(), i), &rng);
    EXPECT_GE(head, 0);
    EXPECT_LT(head, 4);
    int op = agents.SelectOperation(
        RandomInputs(1, CascadePolicy::OpInputDim(), i), &rng);
    EXPECT_GE(op, 0);
    EXPECT_LT(op, kNumOperations);
    int tail = agents.SelectTail(
        RandomInputs(5, CascadePolicy::TailInputDim(), i), &rng);
    EXPECT_GE(tail, 0);
    EXPECT_LT(tail, 5);
  }
}

TEST(CascadingAgentsTest, ExplorationCoversActions) {
  AgentConfig cfg;
  cfg.epsilon = 0.3;
  CascadingAgents agents(cfg);
  Rng rng(2);
  nn::Matrix inputs = RandomInputs(6, CascadePolicy::HeadInputDim(), 9);
  std::set<int> seen;
  for (int i = 0; i < 300; ++i) seen.insert(agents.SelectHead(inputs, &rng));
  EXPECT_GE(seen.size(), 5u);
}

TEST(CascadingAgentsTest, CriticConvergesOnSelfLoop) {
  // On a self-loop transition (s' = s) the TD update is a γ-contraction with
  // fixed point V* = r / (1 − γ); the critic must converge there.
  AgentConfig cfg;
  cfg.critic_lr = 5e-3;
  CascadingAgents agents(cfg);
  Transition t = MakeTransition(0.2, 7);
  t.next_state = t.state;
  double before = agents.Value(t.state);
  for (int i = 0; i < 1500; ++i) agents.Optimize(t);
  double v = agents.Value(t.state);
  double fixed_point = t.reward / (1.0 - cfg.gamma);  // 2.0
  EXPECT_NEAR(v, fixed_point, 0.25);
  EXPECT_LT(std::abs(agents.TdError(t)), 0.1);
  EXPECT_NE(before, v);
}

TEST(CascadingAgentsTest, PositiveAdvantageRaisesActionProbability) {
  AgentConfig cfg;
  cfg.epsilon = 0.0;
  CascadingAgents agents(cfg);
  Transition t = MakeTransition(5.0, 11);  // big positive reward
  // Estimate selection frequency of the stored action before/after training.
  auto frequency = [&](uint64_t seed) {
    Rng rng(seed);
    int hits = 0;
    for (int i = 0; i < 400; ++i) {
      hits += (agents.SelectHead(t.head_inputs, &rng) == t.head_action);
    }
    return static_cast<double>(hits) / 400.0;
  };
  double before = frequency(100);
  for (int i = 0; i < 60; ++i) agents.Optimize(t);
  double after = frequency(100);
  EXPECT_GT(after, before);
}

TEST(CascadingAgentsTest, UnaryTransitionSkipsTail) {
  CascadingAgents agents(AgentConfig{});
  Transition t = MakeTransition(0.5, 13);
  t.tail_action = -1;  // unary step
  for (int i = 0; i < 5; ++i) agents.Optimize(t);  // must not crash
  EXPECT_TRUE(std::isfinite(agents.TdError(t)));
}

TEST(CascadingAgentsTest, TdErrorMatchesDefinition) {
  CascadingAgents agents(AgentConfig{});
  Transition t = MakeTransition(0.3, 17);
  double td = agents.TdError(t);
  AgentConfig cfg;
  double manual =
      t.reward + cfg.gamma * agents.Value(t.next_state) - agents.Value(t.state);
  EXPECT_NEAR(td, manual, 1e-12);
}

// A NaN reward makes the critic target and the advantage NaN, so every
// gradient is NaN: each update is dropped and its gradients zeroed, so a
// later finite update trains as if the NaN one had never happened.
TEST(CascadingAgentsTest, NonFiniteRewardLeavesWeightsUnchanged) {
  CascadingAgents agents(AgentConfig{});
  CascadingAgents reference(AgentConfig{});
  const std::string before = Snapshot(&agents);
  ASSERT_EQ(before, Snapshot(&reference));
  agents.Optimize(MakeTransition(std::nan(""), 31));
  EXPECT_EQ(Snapshot(&agents), before);
  const Transition finite = MakeTransition(0.4, 37);
  agents.Optimize(finite);
  reference.Optimize(finite);
  EXPECT_NE(Snapshot(&agents), before);
  EXPECT_EQ(Snapshot(&agents), Snapshot(&reference));
}

class QVariantTest : public testing::TestWithParam<QVariant> {};

// Same for the Q-learning nets (online and, for the dueling variants, the
// value net). The snapshot's last field is the update counter, which does
// count the dropped update.
TEST_P(QVariantTest, NonFiniteRewardLeavesWeightsUnchanged) {
  QCascade agents(GetParam(), QAgentConfig{});
  QCascade reference(GetParam(), QAgentConfig{});
  auto weights = [](QCascade* policy) {
    std::string bytes = Snapshot(policy);
    bytes.resize(bytes.size() - sizeof(int32_t));
    return bytes;
  };
  const std::string before = weights(&agents);
  ASSERT_EQ(before, weights(&reference));
  agents.Optimize(MakeTransition(std::nan(""), 41));
  EXPECT_EQ(weights(&agents), before);
  const Transition finite = MakeTransition(0.6, 43);
  agents.Optimize(finite);
  reference.Optimize(finite);
  EXPECT_NE(weights(&agents), before);
  EXPECT_EQ(weights(&agents), weights(&reference));
}

TEST_P(QVariantTest, SelectionsInRange) {
  QCascade agents(GetParam(), QAgentConfig{});
  Rng rng(3);
  int head =
      agents.SelectHead(RandomInputs(4, CascadePolicy::HeadInputDim(), 1),
                        &rng);
  EXPECT_GE(head, 0);
  EXPECT_LT(head, 4);
  int op = agents.SelectOperation(
      RandomInputs(1, CascadePolicy::OpInputDim(), 2), &rng);
  EXPECT_GE(op, 0);
  EXPECT_LT(op, kNumOperations);
}

TEST_P(QVariantTest, OptimizeReducesTdError) {
  QAgentConfig cfg;
  cfg.learning_rate = 5e-3;
  QCascade agents(GetParam(), cfg);
  Transition t = MakeTransition(1.0, 23);
  double before = std::abs(agents.TdError(t));
  for (int i = 0; i < 150; ++i) agents.Optimize(t);
  double after = std::abs(agents.TdError(t));
  EXPECT_LT(after, before + 0.05);
  EXPECT_LT(after, 0.5);
}

TEST_P(QVariantTest, TerminalTransitionUsesRewardOnly) {
  QCascade agents(GetParam(), QAgentConfig{});
  Transition t = MakeTransition(0.7, 29);
  t.next_head_inputs = nn::Matrix();  // no next candidates
  EXPECT_TRUE(std::isfinite(agents.TdError(t)));
  agents.Optimize(t);  // must not crash
}

INSTANTIATE_TEST_SUITE_P(AllVariants, QVariantTest,
                         testing::Values(QVariant::kDqn, QVariant::kDoubleDqn,
                                         QVariant::kDuelingDqn,
                                         QVariant::kDuelingDoubleDqn));

TEST(QVariantTest, NamesMatchFigure7) {
  EXPECT_STREQ(QVariantName(QVariant::kDqn), "DQN");
  EXPECT_STREQ(QVariantName(QVariant::kDoubleDqn), "DDQN");
  EXPECT_STREQ(QVariantName(QVariant::kDuelingDqn), "DuelingDQN");
  EXPECT_STREQ(QVariantName(QVariant::kDuelingDoubleDqn), "DuelingDDQN");
}

}  // namespace
}  // namespace fastft
