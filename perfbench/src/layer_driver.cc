#include "layer_driver.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "common/metrics.h"
#include "common/rng.h"
#include "common/threadpool.h"
#include "core/checkpoint.h"
#include "core/clustering.h"
#include "core/operations.h"
#include "core/replay_buffer.h"
#include "core/state.h"
#include "engine_parts.h"

namespace perfbench {
namespace {

using fastft::obs::Counter;

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Process CPU time (user + sys, all threads) in microseconds.
double CpuUs() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_utime.tv_sec + usage.ru_stime.tv_sec) *
             1e6 +
         static_cast<double>(usage.ru_utime.tv_usec + usage.ru_stime.tv_usec);
}

// In-memory span log. A span's parent is the span open when it began.
class SpanLog {
 public:
  int Begin(const char* layer, const char* call) {
    Span span;
    span.layer = layer;
    span.call = call;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(span);
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return open_.back();
  }

  void End(int index, int64_t work = 0) {
    Span& span = spans_[static_cast<size_t>(index)];
    span.end_ns = NowNs();
    span.work = work;
    open_.pop_back();
  }

  // Runs fn() inside a span of `layer`/`call` and returns its result.
  template <typename Fn>
  auto Time(const char* layer, const char* call, Fn&& fn) {
    const int index = Begin(layer, call);
    if constexpr (std::is_void_v<decltype(fn())>) {
      fn();
      End(index);
    } else {
      auto result = fn();
      End(index);
      return result;
    }
  }

  std::vector<Span> Take() { return std::move(spans_); }

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
};

Counter* GetCounter(const char* name) {
  return fastft::obs::MetricsRegistry::Global().GetCounter(name);
}

double HistogramSumMs(const fastft::obs::MetricsSnapshot& delta,
                      const std::string& name) {
  const fastft::obs::MetricValue* value = delta.Find(name);
  return value == nullptr ? 0.0 : value->histogram.sum / 1000.0;
}

int64_t TokenCount(const std::vector<std::vector<int>>& sequences) {
  int64_t total = 0;
  for (const std::vector<int>& tokens : sequences) {
    total += static_cast<int64_t>(tokens.size());
  }
  return total;
}

double Ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

fastft::nn::Matrix RowToMatrix(const std::vector<double>& row) {
  fastft::nn::Matrix m(1, static_cast<int>(row.size()));
  for (size_t j = 0; j < row.size(); ++j) m(0, static_cast<int>(j)) = row[j];
  return m;
}

// Columns offered to one crossing step: every head column for a unary
// operation, the head × tail pairs (capped per step) for a binary one.
int64_t CandidatesOffered(fastft::OpType op, const std::vector<int>& head,
                          const std::vector<int>& tail, int cap) {
  if (fastft::IsUnary(op)) return static_cast<int64_t>(head.size());
  int64_t pairs = 0;
  for (int h : head) {
    for (int t : tail) {
      if (h == t &&
          (op == fastft::OpType::kSub || op == fastft::OpType::kDiv)) {
        continue;
      }
      ++pairs;
    }
  }
  return std::min<int64_t>(pairs, cap);
}

// One replay of an engine run through the layers.
class Replay {
 public:
  Replay(const fastft::Dataset& dataset, const fastft::EngineConfig& config,
         const fastft::EngineResult& engine, std::string checkpoint_path)
      : dataset_(dataset),
        config_(config),
        engine_(engine),
        checkpoint_path_(std::move(checkpoint_path)),
        est_threads_(fastft::common::ResolveThreadCount(config.num_threads)) {}

  LayerDriverResult Run();

 private:
  std::vector<std::vector<int>> Cluster();
  std::vector<double> StateOf(const std::vector<int>& columns);
  std::vector<double> SetState();
  fastft::nn::Matrix HeadRows(const std::vector<std::vector<int>>& clusters,
                              const std::vector<double>& overall);
  template <typename Fn>
  double Evaluate(const char* call, Fn&& fn);
  template <typename Fn>
  auto Estimate(const char* call, Fn&& fn);
  void Step(int step, const fastft::StepTrace& engine_step);
  void EpisodeEnd(int episode);
  std::map<std::string, double> Metrics(
      const std::vector<Span>& spans,
      const fastft::obs::MetricsSnapshot& delta) const;

  const fastft::Dataset& dataset_;
  const fastft::EngineConfig& config_;
  const fastft::EngineResult& engine_;
  const std::string checkpoint_path_;
  const int est_threads_;

  SpanLog log_;
  std::optional<EngineParts> parts_;
  std::unique_ptr<fastft::CascadePolicy> policy_;
  std::optional<fastft::PrioritizedReplayBuffer> buffer_;
  std::optional<fastft::Rng> rng_;
  fastft::EngineRunState run_state_;
  fastft::EngineResult progress_;  // what the engine has reported so far
  std::string last_snapshot_;
  double best_ = 0.0;

  // Work counters, read from the public metrics registry at boundaries.
  Counter* const folds_ = GetCounter("evaluator.folds");
  Counter* const folds_skipped_ = GetCounter("evaluator.folds_skipped");
  Counter* const trees_fit_ = GetCounter("forest.trees_fit");
  Counter* const cache_lookups_ = GetCounter("encode_cache.lookups");
  Counter* const cache_hits_ = GetCounter("encode_cache.hits");
  Counter* const tokens_encoded_ = GetCounter("encode_cache.tokens_encoded");
  Counter* const replay_adds_ = GetCounter("replay.adds");
  Counter* const replay_samples_ = GetCounter("replay.samples");
  Counter* const replay_updates_ = GetCounter("replay.priority_updates");

  // Per-layer work accumulated at span boundaries.
  int64_t folds_done_ = 0;
  int64_t folds_skipped_done_ = 0;
  int64_t trees_done_ = 0;
  double evaluator_cpu_us_ = 0.0;
  int64_t mi_pairs_ = 0;
  int64_t columns_added_ = 0;
  int64_t candidates_offered_ = 0;
  int64_t tokens_trained_ = 0;
  int64_t cache_lookups_done_ = 0;
  int64_t cache_hits_done_ = 0;
  int64_t tokens_encoded_done_ = 0;
  int64_t checkpoint_writes_ = 0;
  int steps_matched_ = 0;
  int steps_total_ = 0;
};

std::vector<std::vector<int>> Replay::Cluster() {
  const int64_t d = parts_->space.NumColumns();
  const int64_t pairs = d * (d - 1) / 2;
  const int index = log_.Begin("clustering", "ClusterFeatures");
  std::vector<std::vector<int>> clusters =
      fastft::ClusterFeatures(parts_->space, config_.clustering);
  log_.End(index, pairs);
  mi_pairs_ += pairs;
  return clusters;
}

std::vector<double> Replay::StateOf(const std::vector<int>& columns) {
  return log_.Time("state", "ClusterState", [&] {
    return fastft::ClusterState(parts_->space, columns);
  });
}

std::vector<double> Replay::SetState() {
  return log_.Time("state", "FeatureSetState",
                   [&] { return fastft::FeatureSetState(parts_->space); });
}

fastft::nn::Matrix Replay::HeadRows(
    const std::vector<std::vector<int>>& clusters,
    const std::vector<double>& overall) {
  fastft::nn::Matrix inputs(static_cast<int>(clusters.size()),
                            fastft::CascadePolicy::HeadInputDim());
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::vector<double> row = fastft::Concat(StateOf(clusters[i]), overall);
    for (size_t j = 0; j < row.size(); ++j) {
      inputs(static_cast<int>(i), static_cast<int>(j)) = row[j];
    }
  }
  return inputs;
}

template <typename Fn>
double Replay::Evaluate(const char* call, Fn&& fn) {
  const int64_t folds = folds_->Value();
  const int64_t skipped = folds_skipped_->Value();
  const int64_t trees = trees_fit_->Value();
  const double cpu_us = CpuUs();
  const int index = log_.Begin("evaluator", call);
  const double score = fn();
  log_.End(index, folds_->Value() - folds);
  evaluator_cpu_us_ += CpuUs() - cpu_us;
  folds_done_ += folds_->Value() - folds;
  folds_skipped_done_ += folds_skipped_->Value() - skipped;
  trees_done_ += trees_fit_->Value() - trees;
  return score;
}

template <typename Fn>
auto Replay::Estimate(const char* call, Fn&& fn) {
  const int64_t lookups = cache_lookups_->Value();
  const int64_t hits = cache_hits_->Value();
  const int64_t encoded = tokens_encoded_->Value();
  const int index = log_.Begin("estimation", call);
  auto value = fn();
  log_.End(index, tokens_encoded_->Value() - encoded);
  cache_lookups_done_ += cache_lookups_->Value() - lookups;
  cache_hits_done_ += cache_hits_->Value() - hits;
  tokens_encoded_done_ += tokens_encoded_->Value() - encoded;
  return value;
}

// One exploration step, in the order of FastFtEngine::Run's step body.
void Replay::Step(int step, const fastft::StepTrace& engine_step) {
  fastft::CascadePolicy& policy = *policy_;
  fastft::Rng* rng = &*rng_;
  fastft::FeatureSpace& space = parts_->space;
  const int global_step = run_state_.global_step;
  const double epsilon =
      config_.epsilon_end + (config_.epsilon_start - config_.epsilon_end) *
                                std::exp(-static_cast<double>(global_step) /
                                         std::max(config_.epsilon_decay_steps,
                                                  1));
  policy.SetExplorationRate(epsilon);

  // --- Action selection and generation (engine/select_action). ---
  fastft::Transition t;
  std::vector<std::vector<int>> clusters = Cluster();
  std::vector<double> overall = SetState();
  t.state = overall;
  t.head_inputs = HeadRows(clusters, overall);
  t.head_action = log_.Time("agent", "SelectHead", [&] {
    return policy.SelectHead(t.head_inputs, rng);
  });
  const std::vector<int>& head = clusters[static_cast<size_t>(t.head_action)];
  std::vector<double> head_rep = StateOf(head);
  t.op_input = RowToMatrix(fastft::Concat(head_rep, overall));
  t.op_action = log_.Time("agent", "SelectOperation", [&] {
    return policy.SelectOperation(t.op_input, rng);
  });
  const fastft::OpType op = fastft::OpFromIndex(t.op_action);
  std::vector<int> tail;
  if (!fastft::IsUnary(op)) {
    fastft::nn::Matrix tail_inputs(static_cast<int>(clusters.size()),
                                   fastft::CascadePolicy::TailInputDim());
    std::vector<double> prefix = fastft::Concat(
        fastft::Concat(head_rep, overall), fastft::OperationOneHot(op));
    for (size_t i = 0; i < clusters.size(); ++i) {
      std::vector<double> row = fastft::Concat(prefix, StateOf(clusters[i]));
      for (size_t j = 0; j < row.size(); ++j) {
        tail_inputs(static_cast<int>(i), static_cast<int>(j)) = row[j];
      }
    }
    t.tail_inputs = tail_inputs;
    t.tail_action = log_.Time("agent", "SelectTail", [&] {
      return policy.SelectTail(t.tail_inputs, rng);
    });
    tail = clusters[static_cast<size_t>(t.tail_action)];
  }
  const int64_t offered = CandidatesOffered(
      op, head, tail, space.config().max_new_per_step);
  const int apply = log_.Begin("generation", "ApplyOperation");
  const int added = space.ApplyOperation(op, head, tail, rng);
  log_.End(apply, added);
  columns_added_ += added;
  candidates_offered_ += offered;
  ++steps_total_;
  if ((added > 0) == engine_step.generated) ++steps_matched_;
  t.next_state = SetState();
  if (config_.framework != fastft::RlFramework::kActorCritic) {
    std::vector<std::vector<int>> next_clusters = Cluster();
    t.next_head_inputs = HeadRows(next_clusters, t.next_state);
  }
  t.tokens = log_.Time("generation", "SequenceTokens", [&] {
    return space.SequenceTokens(parts_->tokenizer);
  });

  // --- Reward estimation (engine/estimate). ---
  if (run_state_.components_ready) {
    if (config_.use_performance_predictor) {
      const double predicted = Estimate("Predict", [&] {
        return parts_->predictor.Predict(t.tokens);
      });
      run_state_.prediction_history[static_cast<size_t>(step)].push_back(
          predicted);
    }
    if (config_.use_novelty) {
      const double novelty = Estimate("NormalizedNovelty", [&] {
        return parts_->novelty.NormalizedNovelty(t.tokens);
      });
      run_state_.novelty_history[static_cast<size_t>(step)].push_back(novelty);
    }
  }

  // --- Downstream evaluation (engine/evaluate), where the engine ran one. ---
  if (engine_step.downstream_evaluated) {
    const fastft::Dataset candidate = log_.Time(
        "generation", "ToDataset", [&] { return space.ToDataset(); });
    (void)Evaluate("EvaluateBatch", [&] {
      return parts_->evaluator.EvaluateBatch({&candidate})[0];
    });
    run_state_.sequence_records.push_back({t.tokens, engine_step.performance});
    if (engine_step.performance > best_) {
      best_ = engine_step.performance;
      progress_.best_dataset = log_.Time("generation", "ToDataset",
                                         [&] { return space.ToDataset(); });
    }
  }
  t.reward = engine_step.reward;
  t.performance = engine_step.performance;

  // --- Memory + optimization (engine/optimize). ---
  fastft::PrioritizedReplayBuffer& buffer = *buffer_;
  const double priority =
      log_.Time("agent", "TdError", [&] { return policy.TdError(t); });
  log_.Time("agent", "Add", [&] { buffer.Add(std::move(t), priority); });
  const int sampled = log_.Time("agent", "SampleIndex", [&] {
    return buffer.SampleIndex(rng, config_.prioritized_replay);
  });
  log_.Time("agent", "Optimize",
            [&] { policy.Optimize(buffer.Get(sampled)); });
  const double updated = log_.Time(
      "agent", "TdError", [&] { return policy.TdError(buffer.Get(sampled)); });
  log_.Time("agent", "UpdatePriority",
            [&] { buffer.UpdatePriority(sampled, updated); });

  progress_.trace.push_back(engine_step);
  ++run_state_.global_step;
}

// Component training and the checkpoint, in the order of the engine's
// episode boundary.
void Replay::EpisodeEnd(int episode) {
  std::vector<fastft::SequenceRecord>& records = run_state_.sequence_records;
  if (episode == config_.cold_start_episodes - 1) {
    fastft::Rng train_rng(fastft::DeriveSeed(config_.seed, 31));
    std::vector<std::vector<int>> sequences;
    for (const fastft::SequenceRecord& r : records) {
      sequences.push_back(r.tokens);
    }
    const int64_t epoch_tokens = TokenCount(sequences);
    const int epochs = config_.cold_start_train_epochs;
    if (config_.use_performance_predictor) {
      const int index = log_.Begin("seqmodel", "PerformancePredictor::Fit");
      (void)parts_->predictor.Fit(records, epochs, &train_rng);
      log_.End(index, epochs * epoch_tokens);
      tokens_trained_ += epochs * epoch_tokens;
    }
    if (config_.use_novelty) {
      const int index = log_.Begin("seqmodel", "NoveltyEstimator::Fit");
      (void)parts_->novelty.Fit(sequences, epochs, &train_rng, est_threads_);
      log_.End(index, epochs * epoch_tokens);
      tokens_trained_ += epochs * epoch_tokens;
    }
    run_state_.components_ready = true;
  } else if (run_state_.components_ready &&
             (episode + 1 - config_.cold_start_episodes) %
                     std::max(config_.finetune_every_episodes, 1) ==
                 0 &&
             buffer_->size() > 0) {
    const std::vector<int> indices =
        log_.Time("agent", "UniformSampleIndices", [&] {
          return buffer_->UniformSampleIndices(config_.finetune_batch,
                                               &*rng_);
        });
    std::vector<fastft::SequenceRecord> batch;
    std::vector<std::vector<int>> sequences;
    for (int idx : indices) {
      const fastft::Transition& m = buffer_->Get(idx);
      batch.push_back({m.tokens, m.performance});
      sequences.push_back(m.tokens);
    }
    const int64_t pass_tokens = TokenCount(sequences);
    for (int k = 0; config_.use_performance_predictor &&
                    k < config_.finetune_epochs;
         ++k) {
      const int index = log_.Begin("seqmodel", "PerformancePredictor::Finetune");
      (void)parts_->predictor.Finetune(batch);
      log_.End(index, pass_tokens);
      tokens_trained_ += pass_tokens;
    }
    for (int k = 0; config_.use_novelty && k < config_.finetune_epochs; ++k) {
      const int index = log_.Begin("seqmodel", "NoveltyEstimator::Finetune");
      (void)parts_->novelty.Finetune(sequences, est_threads_);
      log_.End(index, pass_tokens);
      tokens_trained_ += pass_tokens;
    }
  }
  const size_t episode_index = static_cast<size_t>(episode);
  if (episode_index < engine_.episode_best.size()) {
    progress_.best_score = engine_.episode_best[episode_index];
    progress_.episode_best.push_back(progress_.best_score);
  }
  run_state_.next_episode = episode + 1;

  if (config_.checkpoint_path.empty()) return;
  fastft::EngineCheckpointContext ctx;
  ctx.rng = &*rng_;
  ctx.policy = policy_.get();
  ctx.buffer = &*buffer_;
  ctx.predictor = &parts_->predictor;
  ctx.novelty = &parts_->novelty;
  ctx.run_state = &run_state_;
  ctx.result = &progress_;
  last_snapshot_ = log_.Time("io", "SerializeEngineState", [&] {
    return fastft::SerializeEngineState(config_, ctx, last_snapshot_.size());
  });
  if ((episode + 1) % config_.checkpoint_every_episodes == 0) {
    const int index = log_.Begin("io", "WriteCheckpoint");
    const fastft::Status written =
        fastft::WriteCheckpoint(checkpoint_path_, last_snapshot_);
    log_.End(index, static_cast<int64_t>(last_snapshot_.size()));
    if (written.ok()) ++checkpoint_writes_;
  }
}

LayerDriverResult Replay::Run() {
  fastft::obs::MetricsRegistry& registry =
      fastft::obs::MetricsRegistry::Global();
  const fastft::obs::MetricsSnapshot start = registry.Snapshot();
  const int64_t replay_ops_start = replay_adds_->Value() +
                                   replay_samples_->Value() +
                                   replay_updates_->Value();

  const int setup = log_.Begin("driver", "setup");
  parts_.emplace(config_, dataset_);
  policy_ = MakePolicy(config_);
  buffer_.emplace(config_.memory_size);
  rng_.emplace(config_.seed);
  run_state_.prediction_history.resize(
      static_cast<size_t>(config_.steps_per_episode));
  run_state_.novelty_history.resize(
      static_cast<size_t>(config_.steps_per_episode));
  (void)Evaluate("Evaluate",
                 [&] { return parts_->evaluator.Evaluate(dataset_); });
  log_.End(setup);
  best_ = engine_.base_score;
  progress_.base_score = engine_.base_score;
  progress_.best_score = engine_.base_score;
  progress_.best_dataset = dataset_;

  size_t next = 0;
  for (int episode = 0; episode < engine_.completed_episodes; ++episode) {
    const int episode_span = log_.Begin("driver", "episode");
    parts_->space.Reset();
    for (int step = 0; step < config_.steps_per_episode &&
                       next < engine_.trace.size();
         ++step) {
      const int step_span = log_.Begin("driver", "step");
      Step(step, engine_.trace[next++]);
      log_.End(step_span);
    }
    const int end_span = log_.Begin("driver", "episode_end");
    EpisodeEnd(episode);
    log_.End(end_span);
    log_.End(episode_span);
  }

  const fastft::obs::MetricsSnapshot delta =
      fastft::obs::DeltaSnapshot(start, registry.Snapshot());
  LayerDriverResult result;
  result.spans = log_.Take();
  result.metrics = Metrics(result.spans, delta);
  result.metrics["replay.ops"] = static_cast<double>(
      replay_adds_->Value() + replay_samples_->Value() +
      replay_updates_->Value() - replay_ops_start);
  result.steps_matched = steps_matched_;
  result.steps_total = steps_total_;
  return result;
}

std::map<std::string, double> Replay::Metrics(
    const std::vector<Span>& spans,
    const fastft::obs::MetricsSnapshot& delta) const {
  std::map<std::string, double> m;
  for (const char* layer : {"evaluator", "clustering", "state", "generation",
                            "seqmodel", "estimation", "agent", "io"}) {
    const LayerTotals totals = TotalsOf(spans, layer);
    m[std::string(layer) + ".calls"] = static_cast<double>(totals.calls);
    m[std::string(layer) + ".busy_ms"] = totals.busy_ms;
  }
  m["evaluator.folds"] = static_cast<double>(folds_done_);
  m["evaluator.folds_skipped"] = static_cast<double>(folds_skipped_done_);
  m["evaluator.trees_fit"] = static_cast<double>(trees_done_);
  m["evaluator.us_per_tree"] =
      Ratio(evaluator_cpu_us_, static_cast<double>(trees_done_));
  m["clustering.mi_pairs"] = static_cast<double>(mi_pairs_);
  m["clustering.ns_per_mi_pair"] = Ratio(m["clustering.busy_ms"] * 1e6,
                                         static_cast<double>(mi_pairs_));
  m["generation.columns_added"] = static_cast<double>(columns_added_);
  m["generation.accept_ratio"] =
      Ratio(static_cast<double>(columns_added_),
            static_cast<double>(candidates_offered_));
  m["seqmodel.tokens_trained"] = static_cast<double>(tokens_trained_);
  m["estimation.cache_hit_ratio"] =
      Ratio(static_cast<double>(cache_hits_done_),
            static_cast<double>(cache_lookups_done_));
  m["estimation.tokens_encoded"] = static_cast<double>(tokens_encoded_done_);
  m["io.checkpoint_writes"] = static_cast<double>(checkpoint_writes_);
  m["pool.tasks"] = static_cast<double>(delta.CounterValue("pool.tasks"));
  m["pool.queue_wait_ms"] = HistogramSumMs(delta, "pool.queue_wait_us");
  m["pool.task_run_ms"] = HistogramSumMs(delta, "pool.task_run_us");
  return m;
}

}  // namespace

LayerTotals TotalsOf(const std::vector<Span>& spans, const std::string& layer,
                     const std::string& call) {
  LayerTotals totals;
  for (const Span& span : spans) {
    if (layer != span.layer || (!call.empty() && call != span.call)) continue;
    ++totals.calls;
    totals.busy_ms += static_cast<double>(span.end_ns - span.start_ns) / 1e6;
  }
  return totals;
}

LayerDriverResult DriveLayers(const fastft::Dataset& dataset,
                              const fastft::EngineConfig& config,
                              const fastft::EngineResult& engine_run,
                              const std::string& checkpoint_path) {
  return Replay(dataset, config, engine_run, checkpoint_path).Run();
}

}  // namespace perfbench
