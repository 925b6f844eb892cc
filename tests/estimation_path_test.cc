// Estimation hot-path tests: inference/training bit-identity, prefix-cache
// equivalence, batched scoring determinism, and full-engine invariance to
// thread count and cache size.
//
// Every comparison is exact `==` on doubles — the acceleration layers
// (incremental encoding, batched fan-out, blocked kernels) are required to
// reproduce the serial from-scratch arithmetic bit for bit.

#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <vector>

#include "common/metrics.h"
#include "common/rng.h"
#include "core/engine.h"
#include "core/novelty_estimator.h"
#include "core/performance_predictor.h"
#include "data/synthetic.h"
#include "nn/sequence_model.h"

namespace fastft {
namespace {

// Token sequences shaped like the tokenizer's output: BOS ... EOS with the
// trailing EOS replaced on every extension (the engine's append pattern).
std::vector<std::vector<int>> GrowingSequences(int count, int vocab,
                                               uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> sequences;
  std::vector<int> body = {1};  // BOS
  for (int i = 0; i < count; ++i) {
    body.push_back(3 + static_cast<int>(rng.Uniform() * (vocab - 4)));
    std::vector<int> seq = body;
    seq.push_back(2);  // EOS
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

std::vector<std::vector<int>> IndependentSequences(int count, int vocab,
                                                   uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> sequences;
  for (int i = 0; i < count; ++i) {
    std::vector<int> seq = {1};
    int len = 3 + static_cast<int>(rng.Uniform() * 20);
    for (int j = 0; j < len; ++j) {
      seq.push_back(3 + static_cast<int>(rng.Uniform() * (vocab - 4)));
    }
    seq.push_back(2);
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

// Registry delta across `fn`: what the prefix caches it ran counted.
obs::MetricsSnapshot MetricsDelta(const std::function<void()>& fn) {
  const obs::MetricsSnapshot start = obs::MetricsRegistry::Global().Snapshot();
  fn();
  return obs::DeltaSnapshot(start, obs::MetricsRegistry::Global().Snapshot());
}

class BackboneModelTest : public ::testing::TestWithParam<nn::Backbone> {};

// The inference path (Predict, prefix cache enabled) must be bit-identical
// to the training-forward path for every backbone.
TEST_P(BackboneModelTest, PredictBitIdenticalToForward) {
  nn::SequenceModelConfig cfg;
  cfg.backbone = GetParam();
  cfg.seed = 404;
  nn::SequenceModel model(cfg);
  for (const std::vector<int>& seq : GrowingSequences(12, cfg.vocab_size, 5)) {
    double trained_path = model.Forward(seq);
    double infer_path = model.Predict(seq);
    EXPECT_EQ(trained_path, infer_path);
    // Repeat from a warmed cache: still identical.
    EXPECT_EQ(model.Predict(seq), trained_path);
  }
}

// Cached (incremental) and from-scratch (cache disabled) encodes agree
// exactly, and the growing-sequence pattern actually reuses prefixes.
TEST_P(BackboneModelTest, PrefixCacheEquivalentToScratch) {
  nn::SequenceModelConfig cached_cfg;
  cached_cfg.backbone = GetParam();
  cached_cfg.seed = 405;
  nn::SequenceModelConfig scratch_cfg = cached_cfg;
  scratch_cfg.prefix_cache_bytes = 0;
  nn::SequenceModel cached(cached_cfg);
  nn::SequenceModel scratch(scratch_cfg);

  const std::vector<std::vector<int>> sequences = GrowingSequences(16, 64, 6);
  const obs::MetricsSnapshot delta = MetricsDelta([&] {
    for (const std::vector<int>& seq : sequences) {
      EXPECT_EQ(cached.Predict(seq), scratch.Predict(seq));
      EXPECT_EQ(cached.Encode(seq), scratch.Encode(seq));
    }
  });
  if (GetParam() != nn::Backbone::kTransformer) {
    EXPECT_GT(delta.CounterValue("encode_cache.lookups"), 0);
    EXPECT_GT(delta.CounterValue("encode_cache.hits"), 0);
    EXPECT_GT(delta.CounterValue("encode_cache.tokens_reused"), 0);
  } else {
    // The transformer has no incremental form; its cache stays disabled.
    EXPECT_EQ(delta.CounterValue("encode_cache.lookups"), 0);
  }
  // A disabled cache records nothing, so the counts above are the cached
  // model's alone.
  const obs::MetricsSnapshot scratch_delta = MetricsDelta([&] {
    for (const std::vector<int>& seq : sequences) scratch.Predict(seq);
  });
  EXPECT_EQ(scratch_delta.CounterValue("encode_cache.lookups"), 0);
}

// A weight update must drop cached states: post-training predictions match
// a cache-less twin trained identically.
TEST_P(BackboneModelTest, CacheInvalidatedByTraining) {
  nn::SequenceModelConfig cached_cfg;
  cached_cfg.backbone = GetParam();
  cached_cfg.seed = 406;
  nn::SequenceModelConfig scratch_cfg = cached_cfg;
  scratch_cfg.prefix_cache_bytes = 0;
  nn::SequenceModel cached(cached_cfg);
  nn::SequenceModel scratch(scratch_cfg);

  std::vector<std::vector<int>> sequences = GrowingSequences(8, 64, 7);
  for (const std::vector<int>& seq : sequences) cached.Predict(seq);  // warm

  const obs::MetricsSnapshot delta = MetricsDelta([&] {
    for (const std::vector<int>& seq : sequences) {
      EXPECT_EQ(cached.TrainStep(seq, 0.5), scratch.TrainStep(seq, 0.5));
      cached.ApplyStep();
      scratch.ApplyStep();
    }
  });
  for (const std::vector<int>& seq : sequences) {
    EXPECT_EQ(cached.Predict(seq), scratch.Predict(seq));
  }
  if (GetParam() != nn::Backbone::kTransformer) {
    EXPECT_GT(delta.CounterValue("encode_cache.invalidations"), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, BackboneModelTest,
                         ::testing::Values(nn::Backbone::kLstm,
                                           nn::Backbone::kRnn,
                                           nn::Backbone::kTransformer),
                         [](const auto& info) {
                           return nn::BackboneName(info.param);
                         });

TEST(NoveltyEstimatorTest, DeterministicAcrossInstances) {
  NoveltyConfig cfg;
  cfg.seed = 99;
  NoveltyEstimator a(cfg);
  NoveltyEstimator b(cfg);
  for (const std::vector<int>& seq : IndependentSequences(10, 64, 8)) {
    EXPECT_EQ(a.Novelty(seq), b.Novelty(seq));
    EXPECT_EQ(a.NormalizedNovelty(seq), b.NormalizedNovelty(seq));
    EXPECT_EQ(a.TargetEmbedding(seq), b.TargetEmbedding(seq));
  }
}

TEST(BatchScoringTest, PredictBatchBitIdenticalAcrossThreadCounts) {
  PredictorConfig cfg;
  cfg.seed = 17;
  PerformancePredictor predictor(cfg);
  std::vector<std::vector<int>> batch = IndependentSequences(24, 64, 9);

  std::vector<double> serial;
  for (const std::vector<int>& seq : batch) serial.push_back(predictor.Predict(seq));
  EXPECT_EQ(predictor.PredictBatch(batch, 1), serial);
  EXPECT_EQ(predictor.PredictBatch(batch, 4), serial);
}

TEST(BatchScoringTest, NoveltyBatchesBitIdenticalAcrossThreadCounts) {
  NoveltyConfig cfg;
  cfg.seed = 18;
  // Running-scale state mutates per score, so each variant gets an
  // identically-seeded fresh estimator.
  NoveltyEstimator serial(cfg);
  NoveltyEstimator batched1(cfg);
  NoveltyEstimator batched4(cfg);
  std::vector<std::vector<int>> batch = IndependentSequences(24, 64, 10);

  std::vector<double> raw_expected, norm_expected;
  for (const std::vector<int>& seq : batch) {
    raw_expected.push_back(serial.Novelty(seq));
  }
  for (const std::vector<int>& seq : batch) {
    norm_expected.push_back(serial.NormalizedNovelty(seq));
  }
  EXPECT_EQ(batched1.NoveltyBatch(batch, 1), raw_expected);
  EXPECT_EQ(batched4.NoveltyBatch(batch, 4), raw_expected);
  EXPECT_EQ(batched1.NormalizedNoveltyBatch(batch, 1), norm_expected);
  EXPECT_EQ(batched4.NormalizedNoveltyBatch(batch, 4), norm_expected);

  std::vector<std::vector<double>> embeddings =
      serial.TargetEmbeddingBatch(batch, 4);
  ASSERT_EQ(embeddings.size(), batch.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(embeddings[i], serial.TargetEmbedding(batch[i]));
  }
}

EngineConfig SmallEngineConfig(uint64_t seed) {
  EngineConfig cfg;
  cfg.episodes = 5;
  cfg.steps_per_episode = 4;
  cfg.cold_start_episodes = 2;
  cfg.finetune_every_episodes = 2;
  cfg.cold_start_train_epochs = 4;
  cfg.collect_novelty_metrics = true;  // exercises the Fig. 14 sweep
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.seed = seed;
  return cfg;
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 77;
  return MakeClassification(spec);
}

void ExpectRunsBitIdentical(const EngineResult& a, const EngineResult& b) {
  EXPECT_EQ(a.base_score, b.base_score);
  EXPECT_EQ(a.best_score, b.best_score);
  EXPECT_EQ(a.downstream_evaluations, b.downstream_evaluations);
  EXPECT_EQ(a.predictor_estimations, b.predictor_estimations);
  EXPECT_EQ(a.episode_best, b.episode_best);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].reward, b.trace[i].reward);
    EXPECT_EQ(a.trace[i].performance, b.trace[i].performance);
    EXPECT_EQ(a.trace[i].novelty, b.trace[i].novelty);
    EXPECT_EQ(a.trace[i].novelty_distance, b.trace[i].novelty_distance);
    EXPECT_EQ(a.trace[i].downstream_evaluated, b.trace[i].downstream_evaluated);
  }
}

TEST(EngineEstimationTest, RunBitIdenticalAtOneAndFourThreads) {
  Dataset dataset = SmallDataset();
  EngineConfig serial_cfg = SmallEngineConfig(31);
  serial_cfg.num_threads = 1;
  EngineConfig parallel_cfg = SmallEngineConfig(31);
  parallel_cfg.num_threads = 4;
  EngineResult serial = FastFtEngine(serial_cfg).Run(dataset).ValueOrDie();
  EngineResult parallel = FastFtEngine(parallel_cfg).Run(dataset).ValueOrDie();
  ExpectRunsBitIdentical(serial, parallel);
}

TEST(EngineEstimationTest, RunBitIdenticalWithAndWithoutPrefixCache) {
  Dataset dataset = SmallDataset();
  EngineConfig cached_cfg = SmallEngineConfig(32);
  EngineConfig uncached_cfg = SmallEngineConfig(32);
  uncached_cfg.prefix_cache_kb = 0;
  EngineResult cached = FastFtEngine(cached_cfg).Run(dataset).ValueOrDie();
  EngineResult uncached = FastFtEngine(uncached_cfg).Run(dataset).ValueOrDie();
  ExpectRunsBitIdentical(cached, uncached);

  // The estimation loop queries the cache and reuses prefix work...
  EXPECT_GT(cached.metrics.CounterValue("encode_cache.lookups"), 0);
  EXPECT_GT(cached.metrics.CounterValue("encode_cache.tokens_reused"), 0);
  // ...while training epochs invalidate it.
  EXPECT_GT(cached.metrics.CounterValue("encode_cache.invalidations"), 0);
  EXPECT_EQ(uncached.metrics.CounterValue("encode_cache.lookups"), 0);
}

TEST(EngineEstimationTest, RejectsNegativePrefixCacheSize) {
  EngineConfig cfg = SmallEngineConfig(33);
  cfg.prefix_cache_kb = -1;
  Result<EngineResult> r = FastFtEngine(cfg).Run(SmallDataset());
  EXPECT_FALSE(r.ok());
}

}  // namespace
}  // namespace fastft
