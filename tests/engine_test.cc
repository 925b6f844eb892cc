// Integration tests for the FastFT engine (Algorithms 1 & 2).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "core/engine.h"
#include "data/dataset_zoo.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

EngineConfig FastConfig(uint64_t seed = 2024) {
  EngineConfig cfg;
  cfg.episodes = 5;
  cfg.steps_per_episode = 4;
  cfg.cold_start_episodes = 2;
  cfg.finetune_every_episodes = 2;
  cfg.cold_start_train_epochs = 4;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.seed = seed;
  return cfg;
}

Dataset SmallDataset() {
  SyntheticSpec spec;
  spec.samples = 140;
  spec.features = 7;
  spec.seed = 50;
  return MakeClassification(spec);
}

TEST(EngineTest, RunsAndImprovesOrMatchesBase) {
  FastFtEngine engine(FastConfig());
  EngineResult r = engine.Run(SmallDataset()).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
  EXPECT_GT(r.best_score, 0.0);
  EXPECT_EQ(r.total_steps, 5 * 4);
  EXPECT_EQ(r.trace.size(), 20u);
  EXPECT_EQ(r.episode_best.size(), 5u);
  EXPECT_TRUE(r.best_dataset.Validate().ok());
}

TEST(EngineTest, DeterministicGivenSeed) {
  EngineResult a = FastFtEngine(FastConfig(7)).Run(SmallDataset()).ValueOrDie();
  EngineResult b = FastFtEngine(FastConfig(7)).Run(SmallDataset()).ValueOrDie();
  EXPECT_DOUBLE_EQ(a.best_score, b.best_score);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.trace[i].reward, b.trace[i].reward);
  }
}

TEST(EngineTest, SeedsChangeTrajectories) {
  EngineResult a = FastFtEngine(FastConfig(7)).Run(SmallDataset()).ValueOrDie();
  EngineResult b = FastFtEngine(FastConfig(8)).Run(SmallDataset()).ValueOrDie();
  bool any_diff = false;
  for (size_t i = 0; i < a.trace.size(); ++i) {
    any_diff |= (a.trace[i].reward != b.trace[i].reward);
  }
  EXPECT_TRUE(any_diff);
}

TEST(EngineTest, ColdStartAlwaysEvaluatesDownstream) {
  EngineConfig cfg = FastConfig();
  FastFtEngine engine(cfg);
  EngineResult r = engine.Run(SmallDataset()).ValueOrDie();
  for (const StepTrace& t : r.trace) {
    if (t.episode < cfg.cold_start_episodes && t.generated) {
      EXPECT_TRUE(t.downstream_evaluated)
          << "cold-start step used the predictor";
    }
  }
}

TEST(EngineTest, PredictorReducesDownstreamEvaluations) {
  EngineConfig with = FastConfig(3);
  with.episodes = 8;
  EngineConfig without = with;
  without.use_performance_predictor = false;
  EngineResult r_with = FastFtEngine(with).Run(SmallDataset()).ValueOrDie();
  EngineResult r_without = FastFtEngine(without).Run(SmallDataset()).ValueOrDie();
  EXPECT_LT(r_with.downstream_evaluations, r_without.downstream_evaluations);
  EXPECT_GT(r_with.predictor_estimations, 0);
  EXPECT_EQ(r_without.predictor_estimations, 0);
}

TEST(EngineTest, AblationFlagsRun) {
  for (int mask = 0; mask < 8; ++mask) {
    EngineConfig cfg = FastConfig(mask + 10);
    cfg.episodes = 3;
    cfg.use_performance_predictor = mask & 1;
    cfg.use_novelty = mask & 2;
    cfg.prioritized_replay = mask & 4;
    EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
    EXPECT_GE(r.best_score, r.base_score) << "mask " << mask;
  }
}

// Sum of the listed spans' totals in a run, in seconds.
double SpanSeconds(const EngineResult& r,
                   const std::vector<std::string>& names) {
  uint64_t total_ns = 0;
  for (const std::string& name : names) {
    auto span = r.spans.find(name);
    if (span != r.spans.end()) total_ns += span->second.total_ns;
  }
  return static_cast<double>(total_ns) * 1e-9;
}

// Each Table II bucket is the sum of its spans' totals, and "checkpoint"
// appears only when the run checkpoints.
TEST(EngineTest, TimeBreakdownCoversRun) {
  const std::map<std::string, std::vector<std::string>> spans_of = {
      {"evaluation", {"engine/evaluate"}},
      {"optimization",
       {"engine/select_action", "engine/optimize", "engine/coldstart_train",
        "engine/finetune"}},
      {"estimation", {"engine/estimate", "engine/novelty_metrics"}},
      {"checkpoint",
       {"engine/checkpoint_serialize", "engine/checkpoint_write"}},
  };
  EngineConfig cfg = FastConfig();
  cfg.collect_novelty_metrics = true;
  EngineResult plain = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  cfg.checkpoint_path = testing::TempDir() + "/time_buckets.ffcp";
  EngineResult ckpt = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  std::remove(cfg.checkpoint_path.c_str());

  for (const EngineResult* r : {&plain, &ckpt}) {
    const bool checkpointed = r == &ckpt;
    std::map<std::string, double> times = TimeBreakdown(r->spans);
    EXPECT_EQ(times.size(), checkpointed ? 4u : 3u);
    for (const auto& [bucket, names] : spans_of) {
      if (bucket == "checkpoint" && !checkpointed) {
        EXPECT_EQ(times.count(bucket), 0u);
        continue;
      }
      EXPECT_GT(times[bucket], 0.0) << bucket;
      EXPECT_NEAR(times[bucket], SpanSeconds(*r, names), 1e-9) << bucket;
    }
    // The baseline and the per-step evaluation are two call sites of
    // engine/evaluate; their spans merge under the one name.
    EXPECT_EQ(r->spans.at("engine/evaluate").count,
              r->downstream_evaluations);
  }
}

// Run() reports a delta: spans from an earlier run in the same process do
// not leak into the next run's totals.
TEST(EngineTest, SpanDeltaExcludesEarlierRuns) {
  for (int run = 0; run < 2; ++run) {
    EngineResult r =
        FastFtEngine(FastConfig()).Run(SmallDataset()).ValueOrDie();
    EXPECT_EQ(r.spans.at("engine/step").count, r.total_steps) << run;
    EXPECT_EQ(r.spans.at("engine/episode").count, 5) << run;
  }
}

TEST(EngineTest, NoveltyMetricsCollectedOnDemand) {
  EngineConfig cfg = FastConfig();
  cfg.collect_novelty_metrics = true;
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  bool any_distance = false;
  int last_unseen = 0;
  for (const StepTrace& t : r.trace) {
    any_distance |= (t.novelty_distance > 0.0);
    EXPECT_GE(t.unseen_cumulative, last_unseen);  // monotone counter
    last_unseen = t.unseen_cumulative;
  }
  EXPECT_TRUE(any_distance);
  EXPECT_GT(last_unseen, 0);
}

TEST(EngineTest, TraceNamesGeneratedFeatures) {
  EngineResult r = FastFtEngine(FastConfig()).Run(SmallDataset()).ValueOrDie();
  bool any_named = false;
  for (const StepTrace& t : r.trace) any_named |= !t.top_new_feature.empty();
  EXPECT_TRUE(any_named);
}

class FrameworkTest : public testing::TestWithParam<RlFramework> {};

TEST_P(FrameworkTest, AllRlFrameworksRun) {
  EngineConfig cfg = FastConfig(33);
  cfg.episodes = 3;
  cfg.framework = GetParam();
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
  EXPECT_EQ(r.total_steps, 3 * 4);
}

INSTANTIATE_TEST_SUITE_P(
    AllFrameworks, FrameworkTest,
    testing::Values(RlFramework::kActorCritic, RlFramework::kDqn,
                    RlFramework::kDoubleDqn, RlFramework::kDuelingDqn,
                    RlFramework::kDuelingDoubleDqn));

class EngineBackboneTest : public testing::TestWithParam<nn::Backbone> {};

TEST_P(EngineBackboneTest, AllSequenceBackbonesRun) {
  EngineConfig cfg = FastConfig(44);
  cfg.episodes = 4;
  cfg.backbone = GetParam();
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
}

INSTANTIATE_TEST_SUITE_P(AllBackbones, EngineBackboneTest,
                         testing::Values(nn::Backbone::kLstm,
                                         nn::Backbone::kRnn,
                                         nn::Backbone::kTransformer));

TEST(EngineTest, RegressionTaskRuns) {
  SyntheticSpec spec;
  spec.samples = 130;
  spec.features = 6;
  Dataset ds = MakeRegression(spec);
  EngineResult r = FastFtEngine(FastConfig(55)).Run(ds).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
  EXPECT_TRUE(r.best_dataset.task == TaskType::kRegression);
}

TEST(EngineTest, DetectionTaskRuns) {
  SyntheticSpec spec;
  spec.samples = 200;
  spec.features = 6;
  spec.anomaly_rate = 0.12;
  Dataset ds = MakeDetection(spec);
  EngineResult r = FastFtEngine(FastConfig(66)).Run(ds).ValueOrDie();
  EXPECT_GE(r.best_score, r.base_score);
}

TEST(EngineTest, ZeroThresholdsSuppressTriggers) {
  // α = β = 0: after cold start the engine must never call downstream.
  EngineConfig cfg = FastConfig(77);
  cfg.alpha_percentile = 0.0;
  cfg.beta_percentile = 0.0;
  cfg.episodes = 6;
  EngineResult r = FastFtEngine(cfg).Run(SmallDataset()).ValueOrDie();
  for (const StepTrace& t : r.trace) {
    if (t.episode >= cfg.cold_start_episodes) {
      EXPECT_FALSE(t.downstream_evaluated);
    }
  }
}

TEST(EngineTest, DegenerateDatasetSurfacesAsStatusNotZeroScore) {
  // Two rows across two folds means the evaluator skips every fold and
  // returns NaN (never a fake 0.0); the engine has no baseline anchor and
  // must refuse the run with an explanatory Status instead of reporting a
  // zero base score.
  Dataset tiny;
  tiny.name = "tiny";
  tiny.task = TaskType::kClassification;
  Status st = tiny.features.AddColumn("a", {0.25, 0.75});
  st = tiny.features.AddColumn("b", {1.0, -1.0});
  tiny.labels = {0, 1};
  ASSERT_TRUE(tiny.Validate().ok());
  Result<EngineResult> run = FastFtEngine(FastConfig()).Run(tiny);
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInternal);
  EXPECT_NE(run.status().message().find("fold"), std::string::npos);
}

TEST(EngineTest, NegativeThreadCountRejected) {
  EngineConfig cfg = FastConfig();
  cfg.num_threads = -1;
  Result<EngineResult> run = FastFtEngine(cfg).Run(SmallDataset());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(EngineTest, MiBinsOtherThanFeatureSpaceBinsRejected) {
  // The engine clusters through the FeatureSpace, whose MI caches use a
  // fixed bin count; any other clustering.mi_bins would be ignored.
  EngineConfig cfg = FastConfig();
  cfg.clustering.mi_bins = FeatureSpace::kMiBins + 4;
  Status st = ValidateEngineConfig(cfg);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(st.message().find("mi_bins"), std::string::npos);
  Result<EngineResult> run = FastFtEngine(cfg).Run(SmallDataset());
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
  cfg.clustering.mi_bins = FeatureSpace::kMiBins;
  EXPECT_TRUE(ValidateEngineConfig(cfg).ok());
}

TEST(EngineTest, RlFrameworkNames) {
  EXPECT_STREQ(RlFrameworkName(RlFramework::kActorCritic), "ActorCritic");
  EXPECT_STREQ(RlFrameworkName(RlFramework::kDuelingDoubleDqn),
               "DuelingDDQN");
}

}  // namespace
}  // namespace fastft
