// The engine's starting state, rebuilt from public constructors in the same
// way FastFtEngine::Run builds it (src/core/engine.cc, "Substrate setup").
// The set-up timing and the layer driver both use it, so the two measure
// the same construction the engine performs.

#pragma once

#include <algorithm>
#include <memory>

#include "common/rng.h"
#include "core/agents.h"
#include "core/engine.h"
#include "core/feature_space.h"
#include "core/novelty_estimator.h"
#include "core/performance_predictor.h"
#include "core/q_agents.h"
#include "core/tokenizer.h"
#include "ml/evaluator.h"

namespace perfbench {

inline fastft::FeatureSpaceConfig SpaceConfigFor(
    const fastft::EngineConfig& config, const fastft::Dataset& dataset) {
  fastft::FeatureSpaceConfig fs = config.feature_space;
  fs.max_features = std::max(fs.max_features, dataset.NumFeatures() + 16);
  return fs;
}

inline fastft::EvaluatorConfig EvaluatorConfigFor(
    const fastft::EngineConfig& config) {
  fastft::EvaluatorConfig eval = config.evaluator;
  eval.seed = fastft::DeriveSeed(config.seed, 21);
  eval.num_threads = config.num_threads;
  return eval;
}

inline fastft::PredictorConfig PredictorConfigFor(
    const fastft::EngineConfig& config, const fastft::Tokenizer& tokenizer) {
  fastft::PredictorConfig pp;
  pp.backbone = config.backbone;
  pp.vocab_size = tokenizer.vocab_size();
  pp.prefix_cache_bytes = static_cast<size_t>(config.prefix_cache_kb) * 1024;
  pp.seed = fastft::DeriveSeed(config.seed, 22);
  return pp;
}

inline fastft::NoveltyConfig NoveltyConfigFor(
    const fastft::EngineConfig& config, const fastft::Tokenizer& tokenizer) {
  fastft::NoveltyConfig ne;
  ne.backbone = config.backbone;
  ne.vocab_size = tokenizer.vocab_size();
  ne.prefix_cache_bytes = static_cast<size_t>(config.prefix_cache_kb) * 1024;
  ne.seed = fastft::DeriveSeed(config.seed, 23);
  return ne;
}

inline std::unique_ptr<fastft::CascadePolicy> MakePolicy(
    const fastft::EngineConfig& config) {
  if (config.framework == fastft::RlFramework::kActorCritic) {
    fastft::AgentConfig ac = config.agent;
    ac.seed = fastft::DeriveSeed(config.seed, 11);
    return std::make_unique<fastft::CascadingAgents>(ac);
  }
  fastft::QAgentConfig qc = config.q_agent;
  qc.seed = fastft::DeriveSeed(config.seed, 12);
  fastft::QVariant variant = fastft::QVariant::kDqn;
  switch (config.framework) {
    case fastft::RlFramework::kDoubleDqn:
      variant = fastft::QVariant::kDoubleDqn;
      break;
    case fastft::RlFramework::kDuelingDqn:
      variant = fastft::QVariant::kDuelingDqn;
      break;
    case fastft::RlFramework::kDuelingDoubleDqn:
      variant = fastft::QVariant::kDuelingDoubleDqn;
      break;
    default:
      break;
  }
  return std::make_unique<fastft::QCascade>(variant, qc);
}

/// Feature space, tokenizer, evaluator and both estimation networks, built
/// in the engine's order. The baseline evaluation is left to the caller.
struct EngineParts {
  EngineParts(const fastft::EngineConfig& config,
              const fastft::Dataset& dataset)
      : space(dataset, SpaceConfigFor(config, dataset)),
        tokenizer(config.tokenizer_feature_buckets,
                  config.tokenizer_max_length),
        evaluator(EvaluatorConfigFor(config)),
        predictor(PredictorConfigFor(config, tokenizer)),
        novelty(NoveltyConfigFor(config, tokenizer)) {}

  fastft::FeatureSpace space;
  fastft::Tokenizer tokenizer;
  fastft::Evaluator evaluator;
  fastft::PerformancePredictor predictor;
  fastft::NoveltyEstimator novelty;
};

}  // namespace perfbench
