#include "core/engine.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/recorder.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/threadpool.h"
#include "common/trace.h"
#include "core/checkpoint.h"
#include "core/mutual_information.h"
#include "core/state.h"

namespace fastft {
namespace {

struct EngineMetrics {
  obs::Counter* steps;
  obs::Counter* episodes;
  obs::Counter* candidate_batches;
};

const EngineMetrics& Metrics() {
  static const EngineMetrics metrics = [] {
    obs::MetricsRegistry& registry = obs::MetricsRegistry::Global();
    return EngineMetrics{
        registry.GetCounter("engine.steps"),
        registry.GetCounter("engine.episodes"),
        registry.GetCounter("engine.candidate_batches"),
    };
  }();
  return metrics;
}

// Arms tracing for the duration of one Run() and writes the Chrome-trace
// export on every exit path (early Status returns included). Declared before
// the "engine/run" span so the span closes — and lands in a ring — before
// the rings are frozen and exported.
class TraceSession {
 public:
  TraceSession(const std::string& path, int ring_capacity) : path_(path) {
    if (path_.empty()) return;
    obs::TraceOptions options;
    options.ring_capacity = static_cast<size_t>(ring_capacity);
    obs::StartTracing(options);
    active_ = true;
  }
  ~TraceSession() {
    if (!active_) return;
    obs::StopTracing();
    Status status = obs::WriteChromeTrace(path_);
    if (!status.ok()) {
      FASTFT_LOG(Warning) << "failed to write trace to '" << path_
                          << "': " << status.ToString();
    }
  }

  TraceSession(const TraceSession&) = delete;
  TraceSession& operator=(const TraceSession&) = delete;

 private:
  std::string path_;
  bool active_ = false;
};

// Arms the flight recorder for one Run(). Unlike TraceSession this only
// manages the rings: the stream writer (obs::RecordStream) is opened after
// the resume block, once the episode cursor is known, and flushes at
// episode boundaries inside the loop.
class RecordSession {
 public:
  RecordSession(const std::string& path, int ring_capacity) {
    if (path.empty()) return;
    obs::RecorderOptions options;
    options.ring_capacity = static_cast<size_t>(ring_capacity);
    obs::StartRecording(options);
    active_ = true;
  }
  ~RecordSession() {
    if (active_) obs::StopRecording();
  }

  bool active() const { return active_; }

  RecordSession(const RecordSession&) = delete;
  RecordSession& operator=(const RecordSession&) = delete;

 private:
  bool active_ = false;
};

obs::AgentDecision DecisionFrom(const SelectionStats& stats, int action) {
  obs::AgentDecision d;
  d.action = action;
  d.candidates = stats.candidates;
  d.chosen_score = stats.chosen_score;
  d.runner_up_score = stats.runner_up_score;
  return d;
}

std::unique_ptr<CascadePolicy> MakePolicy(const EngineConfig& config) {
  switch (config.framework) {
    case RlFramework::kActorCritic: {
      AgentConfig ac = config.agent;
      ac.seed = DeriveSeed(config.seed, 11);
      return std::make_unique<CascadingAgents>(ac);
    }
    case RlFramework::kDqn:
    case RlFramework::kDoubleDqn:
    case RlFramework::kDuelingDqn:
    case RlFramework::kDuelingDoubleDqn: {
      QAgentConfig qc = config.q_agent;
      qc.seed = DeriveSeed(config.seed, 12);
      QVariant variant = QVariant::kDqn;
      if (config.framework == RlFramework::kDoubleDqn) {
        variant = QVariant::kDoubleDqn;
      } else if (config.framework == RlFramework::kDuelingDqn) {
        variant = QVariant::kDuelingDqn;
      } else if (config.framework == RlFramework::kDuelingDoubleDqn) {
        variant = QVariant::kDuelingDoubleDqn;
      }
      return std::make_unique<QCascade>(variant, qc);
    }
  }
  FASTFT_CHECK(false) << "unreachable";
  return nullptr;
}

// Builds one input row per candidate cluster for the head agent.
nn::Matrix BuildHeadInputs(const FeatureSpace& space,
                           const std::vector<std::vector<int>>& clusters,
                           const std::vector<double>& overall) {
  nn::Matrix inputs(static_cast<int>(clusters.size()),
                    CascadePolicy::HeadInputDim());
  for (size_t i = 0; i < clusters.size(); ++i) {
    std::vector<double> row = Concat(ClusterState(space, clusters[i]),
                                     overall);
    for (size_t j = 0; j < row.size(); ++j) {
      inputs(static_cast<int>(i), static_cast<int>(j)) = row[j];
    }
  }
  return inputs;
}

nn::Matrix RowToMatrix(const std::vector<double>& row) {
  nn::Matrix m(1, static_cast<int>(row.size()));
  for (size_t j = 0; j < row.size(); ++j) {
    m(0, static_cast<int>(j)) = row[j];
  }
  return m;
}

// Upper percentile threshold: values >= threshold are in the top-p percent.
double TopPercentileThreshold(std::vector<double> values, double percent) {
  if (values.empty()) return std::numeric_limits<double>::infinity();
  return Quantile(std::move(values), 1.0 - percent / 100.0);
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Status ValidateEngineConfig(const EngineConfig& config) {
  auto invalid = [](std::string msg) {
    return Status::InvalidArgument("invalid EngineConfig: " + std::move(msg));
  };
  if (config.episodes < 1) {
    return invalid("episodes must be >= 1, got " +
                   std::to_string(config.episodes));
  }
  if (config.steps_per_episode < 1) {
    return invalid("steps_per_episode must be >= 1, got " +
                   std::to_string(config.steps_per_episode));
  }
  if (config.cold_start_episodes < 1) {
    return invalid(
        "cold_start_episodes must be >= 1 (the cold start anchors the "
        "evaluation components), got " +
        std::to_string(config.cold_start_episodes));
  }
  if (config.memory_size < 1) {
    return invalid("memory_size must be >= 1, got " +
                   std::to_string(config.memory_size));
  }
  if (config.finetune_batch < 1) {
    return invalid("finetune_batch must be >= 1, got " +
                   std::to_string(config.finetune_batch));
  }
  if (config.finetune_epochs < 0) {
    return invalid("finetune_epochs must be >= 0, got " +
                   std::to_string(config.finetune_epochs));
  }
  if (!(config.alpha_percentile >= 0.0 && config.alpha_percentile <= 100.0)) {
    return invalid("alpha_percentile must be in [0, 100], got " +
                   std::to_string(config.alpha_percentile));
  }
  if (!(config.beta_percentile >= 0.0 && config.beta_percentile <= 100.0)) {
    return invalid("beta_percentile must be in [0, 100], got " +
                   std::to_string(config.beta_percentile));
  }
  if (!(config.epsilon_start >= 0.0 && config.epsilon_start <= 1.0) ||
      !(config.epsilon_end >= 0.0 && config.epsilon_end <= 1.0)) {
    return invalid("epsilon_start/epsilon_end must be in [0, 1]");
  }
  if (!std::isfinite(config.novelty_weight_start) ||
      !std::isfinite(config.novelty_weight_end)) {
    return invalid("novelty weights must be finite");
  }
  if (config.novelty_decay_steps < 1) {
    return invalid("novelty_decay_steps must be >= 1, got " +
                   std::to_string(config.novelty_decay_steps));
  }
  if (config.tokenizer_feature_buckets < 1 || config.tokenizer_max_length < 1) {
    return invalid("tokenizer_feature_buckets and tokenizer_max_length must "
                   "be >= 1");
  }
  if (config.clustering.mi_bins != FeatureSpace::kMiBins) {
    return invalid("clustering.mi_bins must be " +
                   std::to_string(FeatureSpace::kMiBins) +
                   " (the FeatureSpace's MI bin count), got " +
                   std::to_string(config.clustering.mi_bins));
  }
  if (config.num_threads < 0) {
    return invalid("num_threads must be >= 0 (0 = all hardware threads), "
                   "got " +
                   std::to_string(config.num_threads));
  }
  if (config.prefix_cache_kb < 0) {
    return invalid("prefix_cache_kb must be >= 0 (0 disables the cache), "
                   "got " +
                   std::to_string(config.prefix_cache_kb));
  }
  if (!config.trace_path.empty() && config.trace_ring_capacity < 1) {
    return invalid("trace_ring_capacity must be >= 1 when tracing, got " +
                   std::to_string(config.trace_ring_capacity));
  }
  if (!config.record_path.empty() && config.record_path.back() == '/') {
    return invalid("record_path must name a file, not a directory: '" +
                   config.record_path + "'");
  }
  if (!config.record_path.empty() && config.record_ring_capacity < 1) {
    return invalid("record_ring_capacity must be >= 1 when recording, got " +
                   std::to_string(config.record_ring_capacity));
  }
  if (config.checkpoint_every_episodes < 1) {
    return invalid("checkpoint_every_episodes must be >= 1, got " +
                   std::to_string(config.checkpoint_every_episodes));
  }
  if (config.wall_clock_budget_ms < 0) {
    return invalid("wall_clock_budget_ms must be >= 0 (0 = no budget), got " +
                   std::to_string(config.wall_clock_budget_ms));
  }
  if (config.resume && config.checkpoint_path.empty()) {
    return invalid("resume requires checkpoint_path (there is nothing to "
                   "resume from)");
  }
  return Status::OK();
}

const char* RlFrameworkName(RlFramework framework) {
  switch (framework) {
    case RlFramework::kActorCritic:
      return "ActorCritic";
    case RlFramework::kDqn:
      return "DQN";
    case RlFramework::kDoubleDqn:
      return "DDQN";
    case RlFramework::kDuelingDqn:
      return "DuelingDQN";
    case RlFramework::kDuelingDoubleDqn:
      return "DuelingDDQN";
  }
  return "?";
}

FastFtEngine::FastFtEngine(EngineConfig config) : config_(std::move(config)) {}

Result<EngineResult> FastFtEngine::Run(const Dataset& dataset) {
  Status dataset_status = dataset.Validate();
  if (!dataset_status.ok()) {
    return Status::InvalidArgument(
        "cannot run on invalid dataset '" + dataset.name + "': " +
        dataset_status.message() +
        " (check inputs with Dataset::Validate() before Run)");
  }
  FASTFT_RETURN_NOT_OK(ValidateEngineConfig(config_));
  TraceSession trace_session(config_.trace_path, config_.trace_ring_capacity);
  RecordSession record_session(config_.record_path,
                               config_.record_ring_capacity);
  FASTFT_TRACE_SPAN("engine/run");
  // Metrics and span-total deltas: counting is always on; each snapshot pair
  // brackets this run so EngineResult reports only what the run itself did.
  const obs::SpanTotals spans_start = obs::ReadSpanTotals();
  const obs::MetricsSnapshot metrics_start =
      obs::MetricsRegistry::Global().Snapshot();
  EngineResult result;
  HealthReport& health = result.health;
  Rng rng(config_.seed);

  // Cooperative deadline watchdog: armed before any evaluation so even the
  // baseline respects the budget; checked at episode/step boundaries here
  // and per fold/candidate inside the evaluator.
  common::DeadlineToken deadline;
  deadline.ArmBudget(config_.wall_clock_budget_ms);
  if (config_.cancel_flag != nullptr) {
    deadline.AttachExternalFlag(config_.cancel_flag.get());
  }

  // Substrate setup.
  FeatureSpaceConfig fs_config = config_.feature_space;
  fs_config.max_features =
      std::max(fs_config.max_features, dataset.NumFeatures() + 16);
  FeatureSpace space(dataset, fs_config);
  Tokenizer tokenizer(config_.tokenizer_feature_buckets,
                      config_.tokenizer_max_length);

  EvaluatorConfig eval_config = config_.evaluator;
  eval_config.seed = DeriveSeed(config_.seed, 21);
  eval_config.num_threads = config_.num_threads;
  eval_config.deadline = &deadline;
  Evaluator evaluator(eval_config);

  // Downstream candidate scoring goes through one guarded batch: candidates
  // fan out across the shared pool (bit-identical to serial — every
  // candidate's fold seeds are fixed), while the evaluator/evaluate fault
  // point and every health-ladder decision run on this thread, in candidate
  // order, so the fault schedule and quarantine semantics are unchanged.
  auto evaluate_candidates =
      [&](const std::vector<const Dataset*>& candidates) {
        std::vector<double> scores = evaluator.EvaluateBatch(candidates);
        result.downstream_evaluations += static_cast<int64_t>(scores.size());
        Metrics().candidate_batches->Increment();
        for (double& score : scores) {
          if (FASTFT_FAULT_POINT("evaluator/evaluate")) {
            score = kNaN;
          }
        }
        return scores;
      };

  const size_t cache_bytes =
      static_cast<size_t>(config_.prefix_cache_kb) * 1024;
  // Estimation-side parallelism (the Fig. 14 embedding sweep); downstream
  // evaluation resolves the same knob inside the evaluator. The novelty
  // target passes in Fit/Finetune stay serial: they resume from the shared
  // prefix cache (a few ms per run), and on the pool their hits would depend
  // on scheduling, which the run report's cache counters must not.
  const int est_threads = common::ResolveThreadCount(config_.num_threads);

  PredictorConfig pp_config;
  pp_config.backbone = config_.backbone;
  pp_config.vocab_size = tokenizer.vocab_size();
  pp_config.prefix_cache_bytes = cache_bytes;
  pp_config.seed = DeriveSeed(config_.seed, 22);
  // optional<> so a failed checkpoint restore can rebuild the estimation
  // networks from their seeds (SequenceModel is intentionally non-copyable).
  std::optional<PerformancePredictor> predictor;
  predictor.emplace(pp_config);

  NoveltyConfig ne_config;
  ne_config.backbone = config_.backbone;
  ne_config.vocab_size = tokenizer.vocab_size();
  ne_config.prefix_cache_bytes = cache_bytes;
  ne_config.seed = DeriveSeed(config_.seed, 23);
  std::optional<NoveltyEstimator> novelty;
  novelty.emplace(ne_config);

  std::unique_ptr<CascadePolicy> policy = MakePolicy(config_);
  PrioritizedReplayBuffer buffer(config_.memory_size);

  // Cross-episode state, hoisted into a struct so it can be snapshotted at
  // episode boundaries and restored on resume (core/checkpoint.h).
  EngineRunState rs;
  rs.prediction_history.resize(config_.steps_per_episode);
  rs.novelty_history.resize(config_.steps_per_episode);

  auto checkpoint_context = [&]() {
    EngineCheckpointContext ctx;
    ctx.rng = &rng;
    ctx.policy = policy.get();
    ctx.buffer = &buffer;
    ctx.predictor = &*predictor;
    ctx.novelty = &*novelty;
    ctx.run_state = &rs;
    ctx.result = &result;
    return ctx;
  };

  // --- Resume: restore the last episode-boundary snapshot, if any. ---
  if (config_.resume) {
    Status restored = RestoreEngineState(config_.checkpoint_path, config_,
                                         checkpoint_context());
    if (restored.ok()) {
      result.resumed = true;
      FASTFT_LOG(Info) << "resumed '" << dataset.name << "' from '"
                       << config_.checkpoint_path << "' at episode "
                       << rs.next_episode;
    } else if (restored.code() == StatusCode::kNotFound) {
      FASTFT_LOG(Info) << "no checkpoint at '" << config_.checkpoint_path
                       << "'; starting fresh";
    } else {
      // Corrupted / mismatched checkpoints degrade to a fresh run. A failed
      // restore leaves components partially overwritten, so every one of
      // them is rebuilt from the seed.
      FASTFT_LOG(Warning) << "checkpoint restore from '"
                          << config_.checkpoint_path
                          << "' failed: " << restored.ToString()
                          << "; starting fresh";
      rng = Rng(config_.seed);
      policy = MakePolicy(config_);
      buffer = PrioritizedReplayBuffer(config_.memory_size);
      predictor.emplace(pp_config);
      novelty.emplace(ne_config);
      result = EngineResult{};
      rs = EngineRunState{};
      rs.prediction_history.resize(config_.steps_per_episode);
      rs.novelty_history.resize(config_.steps_per_episode);
    }
  }

  // Open the record stream at the episode cursor: a fresh run truncates any
  // stale stream; a resumed run keeps the blocks of episodes before the
  // cursor so kill → resume yields one coherent stream.
  std::optional<obs::RecordStream> record_stream;
  if (record_session.active()) {
    record_stream.emplace(obs::RecordStream::Open(
        config_.record_path, result.resumed ? rs.next_episode : 0));
  }
  // Interleaves a fault / health-ladder event into the decision stream
  // (no-op when recording is off; never observable in scores or reports).
  auto record_guard_event = [&](obs::RecordEventKind kind, int episode,
                                int step, const char* site,
                                std::string detail) {
    if (!record_session.active()) return;
    obs::RecordEvent ev;
    ev.kind = kind;
    ev.episode = episode;
    ev.step = step;
    ev.global_step = rs.global_step;
    ev.site = site;
    ev.detail = std::move(detail);
    obs::Emit(ev);
  };

  bool interrupted = deadline.Expired();

  if (!result.resumed && !interrupted) {
    // Baseline downstream score of the untouched dataset. This score anchors
    // every later degradation fallback, so a non-finite baseline is the one
    // component failure the run cannot absorb — it surfaces as a Status
    // (unless the budget expired mid-baseline, which is an interruption,
    // not an error). A resumed run restored its baseline from the snapshot.
    FASTFT_TRACE_SPAN("engine/evaluate");
    double base = evaluator.Evaluate(dataset);
    ++result.downstream_evaluations;
    if (FASTFT_FAULT_POINT("evaluator/base")) base = kNaN;
    if (!std::isfinite(base)) {
      if (deadline.Expired()) {
        interrupted = true;
      } else {
        return Status::Internal(
            "baseline downstream evaluation of '" + dataset.name +
            "' returned a non-finite score; the run has no anchor to degrade "
            "to (a NaN means every cross-validation fold was skipped — the "
            "dataset is too small for " +
            std::to_string(eval_config.folds) +
            "-fold evaluation — otherwise check the labels and the evaluator "
            "configuration)");
      }
    } else {
      result.base_score = base;
      result.best_score = base;
      result.best_dataset = dataset;
    }
  }

  // Aliases into the snapshotted run state; the loop body below reads and
  // writes them exactly as the plain locals they used to be.
  //
  // Histories for percentile triggers and component training. Predicted
  // performance and novelty both grow systematically within an episode (the
  // token sequence lengthens every step), so percentiles are tracked *per
  // step index*: a step triggers when it is exceptional among steps at the
  // same position, not merely because it is late in its episode.
  std::vector<SequenceRecord>& sequence_records = rs.sequence_records;
  std::vector<std::vector<double>>& prediction_history = rs.prediction_history;
  std::vector<std::vector<double>>& novelty_history = rs.novelty_history;
  bool& components_ready = rs.components_ready;
  // Downstream-evaluation budget for the exploration phase: the percentile
  // triggers aim at evaluating the top α% + β% of steps, but with short
  // histories every record-breaking step would fire (P ≈ 1/(n+1) per step).
  // The cap enforces the intended rate at any run length.
  int64_t& warm_steps = rs.warm_steps;
  int64_t& warm_evals = rs.warm_evals;
  // Running mean of observed novelty scores: the Eq. 6 bonus is applied
  // *centered* so that only above-average novelty is reinforced. An
  // uncentered (always-positive) bonus uniformly inflates advantages and
  // collapses the softmax policy onto whatever it just did — the opposite
  // of exploration — before the critic can absorb the offset.
  double& novelty_mean = rs.novelty_mean;
  int64_t& novelty_count = rs.novelty_count;
  // Fig. 14 bookkeeping.
  std::vector<std::vector<double>>& embedding_history = rs.embedding_history;
  std::unordered_set<uint64_t>& seen_expressions = rs.seen_expressions;
  int& global_step = rs.global_step;

  // One in-memory snapshot is kept at every episode boundary (pure
  // serialization, no I/O); the disk write happens at the configured cadence
  // and — via the final flush after the loop — whenever the run ends with a
  // boundary state newer than what is on disk.
  std::string last_snapshot;
  bool snapshot_dirty = false;
  auto write_checkpoint = [&]() {
    if (last_snapshot.empty()) return;
    FASTFT_TRACE_SPAN("engine/checkpoint_write");
    // Kill sites for the chaos harness (tools/check_crash.sh): dying right
    // before or right after the atomic write must both leave a resumable
    // checkpoint on disk (the previous one, or this one).
    (void)FASTFT_FAULT_POINT("checkpoint/before_write");
    if (FASTFT_FAULT_POINT("checkpoint/write")) {
      FASTFT_LOG(Warning)
          << "injected checkpoint write fault; continuing without a snapshot";
      return;
    }
    Status written = WriteCheckpoint(config_.checkpoint_path, last_snapshot);
    if (written.ok()) {
      snapshot_dirty = false;
    } else {
      FASTFT_LOG(Warning) << "checkpoint write to '" << config_.checkpoint_path
                          << "' failed: " << written.ToString()
                          << "; the run continues uncheckpointed";
    }
    (void)FASTFT_FAULT_POINT("checkpoint/after_write");
  };

  for (int episode = rs.next_episode; episode < config_.episodes; ++episode) {
    if (deadline.Expired()) {
      interrupted = true;
      break;
    }
    FASTFT_TRACE_SPAN("engine/episode");
    Metrics().episodes->Increment();
    space.Reset();
    double prev_perf = result.base_score;
    const bool cold = episode < config_.cold_start_episodes;

    for (int step = 0; step < config_.steps_per_episode; ++step) {
      if (deadline.Expired()) {
        interrupted = true;
        break;
      }
      FASTFT_TRACE_SPAN("engine/step");
      Metrics().steps->Increment();
      // Anneal random exploration toward strategy-driven selection.
      const double epsilon =
          config_.epsilon_end +
          (config_.epsilon_start - config_.epsilon_end) *
              std::exp(-static_cast<double>(global_step) /
                       std::max(config_.epsilon_decay_steps, 1));
      policy->SetExplorationRate(epsilon);
      obs::RecordEvent rev;  // step provenance, filled as the step computes
      Transition t;
      int added = 0;
      {
        FASTFT_TRACE_SPAN("engine/select_action");
        std::vector<std::vector<int>> clusters =
            ClusterFeatures(space, config_.clustering);
        std::vector<double> overall = FeatureSetState(space);
        t.state = overall;

        t.head_inputs = BuildHeadInputs(space, clusters, overall);
        t.head_action = policy->SelectHead(t.head_inputs, &rng);
        const std::vector<int>& head_cluster = clusters[t.head_action];

        std::vector<double> head_rep = ClusterState(space, head_cluster);
        t.op_input = RowToMatrix(Concat(head_rep, overall));
        t.op_action = policy->SelectOperation(t.op_input, &rng);
        OpType op = OpFromIndex(t.op_action);

        std::vector<int> tail_cluster;
        if (!IsUnary(op)) {
          nn::Matrix tail_inputs(static_cast<int>(clusters.size()),
                                 CascadePolicy::TailInputDim());
          std::vector<double> prefix =
              Concat(Concat(head_rep, overall), OperationOneHot(op));
          for (size_t i = 0; i < clusters.size(); ++i) {
            std::vector<double> row =
                Concat(prefix, ClusterState(space, clusters[i]));
            for (size_t j = 0; j < row.size(); ++j) {
              tail_inputs(static_cast<int>(i), static_cast<int>(j)) = row[j];
            }
          }
          t.tail_inputs = tail_inputs;
          t.tail_action = policy->SelectTail(tail_inputs, &rng);
          tail_cluster = clusters[t.tail_action];
        }

        added = space.ApplyOperation(op, head_cluster, tail_cluster, &rng);
        t.next_state = FeatureSetState(space);
        // Candidates at the next state — only the Q-learning variants need
        // them for bootstrap targets; skip the extra clustering otherwise.
        if (config_.framework != RlFramework::kActorCritic) {
          std::vector<std::vector<int>> next_clusters =
              ClusterFeatures(space, config_.clustering);
          t.next_head_inputs =
              BuildHeadInputs(space, next_clusters, t.next_state);
        }
      }
      const bool generated_new = added > 0;
      if (record_session.active()) {
        rev.episode = episode;
        rev.step = step;
        rev.global_step = global_step;
        rev.epsilon = epsilon;
        rev.head = DecisionFrom(policy->head_selection(), t.head_action);
        rev.op = DecisionFrom(policy->op_selection(), t.op_action);
        if (t.tail_action >= 0) {
          rev.tail = DecisionFrom(policy->tail_selection(), t.tail_action);
        }
      }

      t.tokens = space.SequenceTokens(tokenizer);
      const std::vector<int> step_tokens = t.tokens;

      // --- Reward estimation (Algorithm 2 lines 4-10). ---
      // Each component call is guarded: an injected fault or a genuinely
      // non-finite output drops the value, quarantines the component, and
      // the loop continues in the matching ablation mode (-PP / -NE).
      double predicted = 0.0;
      double novelty_score = 0.0;
      bool have_prediction = false;
      if (components_ready) {
        FASTFT_TRACE_SPAN("engine/estimate");
        if (config_.use_performance_predictor &&
            !health.predictor.quarantined()) {
          predicted = predictor->Predict(t.tokens);
          ++result.predictor_estimations;
          if (FASTFT_FAULT_POINT("predictor/predict")) predicted = kNaN;
          if (!std::isfinite(predicted)) {
            const bool was_quarantined = health.predictor.quarantined();
            health.RecordComponentFault(&health.predictor);
            record_guard_event(obs::RecordEventKind::kFault, episode, step,
                               "predictor/predict", "non-finite prediction");
            if (!was_quarantined && health.predictor.quarantined()) {
              record_guard_event(obs::RecordEventKind::kHealth, episode, step,
                                 "health/quarantine", health.predictor.name);
            }
            predicted = 0.0;
          } else {
            have_prediction = true;
          }
        }
        if (config_.use_novelty && !health.novelty.quarantined()) {
          novelty_score = novelty->NormalizedNovelty(t.tokens);
          if (FASTFT_FAULT_POINT("novelty/estimate")) novelty_score = kNaN;
          if (!std::isfinite(novelty_score)) {
            const bool was_quarantined = health.novelty.quarantined();
            health.RecordComponentFault(&health.novelty);
            record_guard_event(obs::RecordEventKind::kFault, episode, step,
                               "novelty/estimate", "non-finite novelty");
            if (!was_quarantined && health.novelty.quarantined()) {
              record_guard_event(obs::RecordEventKind::kHealth, episode, step,
                                 "health/quarantine", health.novelty.name);
            }
            novelty_score = 0.0;
          }
        }
      }
      // Effective availability for the rest of this step; a component
      // quarantined above degrades the step to the matching ablation path.
      const bool pp_on = config_.use_performance_predictor &&
                         !health.predictor.quarantined();
      const bool ne_on =
          config_.use_novelty && !health.novelty.quarantined();

      bool run_downstream = cold || !pp_on;
      if (!run_downstream && components_ready) {
        // Strict comparisons: with clamped or discretized scores, ties at
        // the threshold must not all trigger (that would defeat the
        // percentile semantics).
        bool perf_trigger =
            config_.alpha_percentile > 0.0 &&
            predicted > TopPercentileThreshold(prediction_history[step],
                                               config_.alpha_percentile);
        bool novelty_trigger =
            ne_on && config_.beta_percentile > 0.0 &&
            novelty_score > TopPercentileThreshold(novelty_history[step],
                                                   config_.beta_percentile);
        run_downstream = perf_trigger || novelty_trigger;
        double budget = (config_.alpha_percentile + config_.beta_percentile) /
                            100.0 * static_cast<double>(warm_steps) +
                        1.0;
        if (run_downstream && static_cast<double>(warm_evals) >= budget) {
          run_downstream = false;
        }
      }
      if (!cold && pp_on) ++warm_steps;
      if (pp_on && components_ready) {
        prediction_history[step].push_back(predicted);
      }
      if (ne_on && components_ready) {
        novelty_history[step].push_back(novelty_score);
      }

      double v = prev_perf;
      if (!generated_new) {
        // Nothing changed; skip re-evaluating an identical dataset.
        run_downstream = false;
        v = prev_perf;
      } else if (run_downstream) {
        FASTFT_TRACE_SPAN("engine/evaluate");
        Dataset candidate = space.ToDataset();
        double measured = evaluate_candidates({&candidate})[0];
        if (deadline.Expired()) {
          // The deadline fired inside the batch: `measured` may cover only
          // some folds (or none), which is NOT deterministic across thread
          // counts. Discard it and stop at this boundary — resume replays
          // the whole episode from the last snapshot.
          interrupted = true;
          break;
        }
        if (!std::isfinite(measured)) {
          // Guard: drop the poisoned measurement and fall back to the
          // predicted value (or carry the previous performance). The
          // evaluator is ground truth, so it degrades per call — skip and
          // count — rather than by quarantine. A degenerate candidate
          // (every fold skipped) lands here too and is counted the same
          // way in the health report.
          health.RecordEvaluatorFault();
          record_guard_event(obs::RecordEventKind::kFault, episode, step,
                             "evaluator/evaluate",
                             "non-finite downstream score dropped");
          run_downstream = false;
          v = have_prediction ? predicted : prev_perf;
        } else {
          v = measured;
          if (!cold && pp_on) ++warm_evals;
          sequence_records.push_back({t.tokens, v});
        }
      } else {
        v = predicted;
      }

      // Eq. 5 / Eq. 6 reward with ε-decayed novelty bonus.
      double reward = v - prev_perf;
      const double reward_performance = reward;
      double eps_i = 0.0;
      if (ne_on && components_ready) {
        eps_i = config_.novelty_weight_end +
                (config_.novelty_weight_start - config_.novelty_weight_end) *
                    std::exp(-static_cast<double>(global_step) /
                             static_cast<double>(config_.novelty_decay_steps));
        ++novelty_count;
        novelty_mean +=
            (novelty_score - novelty_mean) / static_cast<double>(novelty_count);
        reward += eps_i * (novelty_score - novelty_mean);
      }
      t.reward = reward;
      t.performance = v;
      prev_perf = v;

      if (run_downstream && v > result.best_score) {
        result.best_score = v;
        result.best_dataset = space.ToDataset();
      }

      // --- Memory + optimization (Algorithm 2 lines 15-18). ---
      {
        FASTFT_TRACE_SPAN("engine/optimize");
        double priority = policy->TdError(t);
        buffer.Add(std::move(t), priority);
        int index =
            buffer.SampleIndex(&rng, config_.prioritized_replay);
        policy->Optimize(buffer.Get(index));
        double updated_priority = policy->TdError(buffer.Get(index));
        buffer.UpdatePriority(index, updated_priority);
        if (record_session.active()) {
          rev.priority_added = priority;
          rev.priority_updated = updated_priority;
          rev.replay_sampled = index;
          rev.replay_size = static_cast<int32_t>(buffer.size());
        }
      }

      // --- Trace entry. ---
      StepTrace trace;
      trace.episode = episode;
      trace.step = step;
      trace.reward = reward;
      trace.performance = v;
      trace.downstream_evaluated = run_downstream;
      trace.generated = generated_new;
      trace.novelty = novelty_score;
      if (config_.collect_novelty_metrics) {
        FASTFT_TRACE_SPAN("engine/novelty_metrics");
        std::vector<double> embedding = novelty->TargetEmbedding(step_tokens);
        // Fig. 14 sweep: distances to the history fan out over the pool;
        // the min-reduction runs here in input order, so the metric is
        // bit-identical to the serial scan at any thread count.
        std::vector<double> distances(embedding_history.size());
        common::ParallelFor(
            0, static_cast<int64_t>(embedding_history.size()), est_threads,
            [&](int64_t i) {
              distances[static_cast<size_t>(i)] =
                  1.0 - CosineSimilarity(
                            embedding,
                            embedding_history[static_cast<size_t>(i)]);
            });
        double min_distance = 1.0;
        for (double d : distances) min_distance = std::min(min_distance, d);
        if (embedding_history.empty()) min_distance = 1.0;
        trace.novelty_distance = min_distance;
        embedding_history.push_back(std::move(embedding));
        for (const ExprPtr& expr : space.GeneratedExpressions()) {
          seen_expressions.insert(ExprHash(expr));
        }
        trace.unseen_cumulative = static_cast<int>(seen_expressions.size());
      }
      // Fig. 15: name the most label-relevant feature created this step.
      if (space.NumGenerated() > 0) {
        int best_col = -1;
        double best_rel = -1.0;
        for (int c = space.NumOriginals(); c < space.NumColumns(); ++c) {
          double rel = space.LabelRelevance(c);
          if (rel > best_rel) {
            best_rel = rel;
            best_col = c;
          }
        }
        if (best_col >= 0) trace.top_new_feature = space.ColumnName(best_col);
      }
      if (record_session.active()) {
        rev.novelty = novelty_score;
        rev.predicted = predicted;
        rev.performance = v;
        rev.reward = reward;
        rev.reward_performance = reward_performance;
        rev.reward_novelty = reward - reward_performance;
        rev.novelty_weight = eps_i;
        rev.downstream_evaluated = run_downstream;
        rev.generated = generated_new;
        rev.detail = trace.top_new_feature;
        obs::Emit(rev);
      }
      result.trace.push_back(std::move(trace));
      ++global_step;
    }
    // Stop at the boundary: everything this episode wrote since the last
    // snapshot is discarded (the snapshot below is NOT taken), so resume
    // replays the episode deterministically from its start.
    if (interrupted) break;

    // --- Component training / finetuning (Algorithms 1 & 2). ---
    if (episode == config_.cold_start_episodes - 1) {
      FASTFT_TRACE_SPAN("engine/coldstart_train");
      Rng train_rng(DeriveSeed(config_.seed, 31));
      if (config_.use_performance_predictor) {
        double mse = predictor->Fit(
            sequence_records, config_.cold_start_train_epochs, &train_rng);
        if (FASTFT_FAULT_POINT("predictor/coldstart")) mse = kNaN;
        if (!std::isfinite(mse)) {
          health.RecordComponentFault(&health.predictor);
          record_guard_event(obs::RecordEventKind::kFault, episode, -1,
                             "predictor/coldstart",
                             "non-finite cold-start loss");
          ++health.skipped_updates;
        }
      }
      if (config_.use_novelty) {
        std::vector<std::vector<int>> sequences;
        sequences.reserve(sequence_records.size());
        for (const SequenceRecord& r : sequence_records) {
          sequences.push_back(r.tokens);
        }
        double loss = novelty->Fit(sequences, config_.cold_start_train_epochs,
                                   &train_rng);
        if (FASTFT_FAULT_POINT("novelty/coldstart")) loss = kNaN;
        if (!std::isfinite(loss)) {
          health.RecordComponentFault(&health.novelty);
          record_guard_event(obs::RecordEventKind::kFault, episode, -1,
                             "novelty/coldstart",
                             "non-finite cold-start loss");
          ++health.skipped_updates;
        }
      }
      components_ready = true;
    } else if (components_ready &&
               (episode + 1 - config_.cold_start_episodes) %
                       std::max(config_.finetune_every_episodes, 1) ==
                   0 &&
               buffer.size() > 0) {
      FASTFT_TRACE_SPAN("engine/finetune");
      std::vector<int> indices =
          buffer.UniformSampleIndices(config_.finetune_batch, &rng);
      std::vector<SequenceRecord> batch;
      std::vector<std::vector<int>> sequences;
      for (int idx : indices) {
        const Transition& m = buffer.Get(idx);
        batch.push_back({m.tokens, m.performance});
        sequences.push_back(m.tokens);
      }
      // One finetune round per component. Healthy: K guarded epochs, where
      // a non-finite loss quarantines mid-round. Quarantined: the backoff
      // counts down in finetune rounds; on expiry one probe pass decides
      // between re-arming (recovery) and doubling the backoff.
      auto finetune_component = [&](ComponentHealth* component,
                                    const char* site, auto&& pass) {
        if (component->quarantined()) {
          if (component->TickBackoff()) {
            double loss = pass();
            if (FASTFT_FAULT_POINT(site)) loss = kNaN;
            const bool recovered = std::isfinite(loss);
            health.ResolveProbe(component, recovered);
            record_guard_event(obs::RecordEventKind::kHealth, episode, -1,
                               recovered ? "health/recovery"
                                         : "health/probe_failed",
                               component->name);
          }
          return;
        }
        for (int k = 0; k < config_.finetune_epochs; ++k) {
          double loss = pass();
          if (FASTFT_FAULT_POINT(site)) loss = kNaN;
          if (!std::isfinite(loss)) {
            health.RecordComponentFault(component);
            record_guard_event(obs::RecordEventKind::kFault, episode, -1, site,
                               "non-finite finetune loss");
            record_guard_event(obs::RecordEventKind::kHealth, episode, -1,
                               "health/quarantine", component->name);
            ++health.skipped_updates;
            break;
          }
        }
      };
      if (config_.use_performance_predictor) {
        finetune_component(&health.predictor, "predictor/finetune",
                           [&] { return predictor->Finetune(batch); });
      }
      if (config_.use_novelty) {
        finetune_component(&health.novelty, "novelty/finetune", [&] {
          return novelty->Finetune(sequences);
        });
      }
    }

    result.episode_best.push_back(result.best_score);

    // --- Episode-boundary record flush. ---
    // Only completed episodes are flushed: an interrupted episode replays
    // on resume, so its partial events stay in the rings and are discarded
    // when the session closes (a flush would duplicate them post-resume).
    if (record_stream) {
      obs::RecordEvent boundary;
      boundary.kind = obs::RecordEventKind::kEpisode;
      boundary.episode = episode;
      boundary.step = config_.steps_per_episode;
      boundary.global_step = global_step;
      boundary.best_score = result.best_score;
      boundary.replay_size = static_cast<int32_t>(buffer.size());
      obs::Emit(boundary);
      obs::DrainedEvents drained = obs::DrainRecordedEvents();
      result.recorded_events += static_cast<int64_t>(drained.events.size());
      result.recorded_dropped += drained.TotalDropped();
      Status flushed = record_stream->FlushEpisode(episode, drained);
      if (!flushed.ok()) {
        FASTFT_LOG(Warning) << "record flush to '" << config_.record_path
                            << "' failed: " << flushed.ToString()
                            << "; the run continues unrecorded for this "
                               "episode";
      }
    }

    // --- Episode-boundary snapshot. ---
    rs.next_episode = episode + 1;
    if (!config_.checkpoint_path.empty()) {
      {
        FASTFT_TRACE_SPAN("engine/checkpoint_serialize");
        last_snapshot = SerializeEngineState(config_, checkpoint_context(),
                                             last_snapshot.size());
      }
      snapshot_dirty = true;
      if ((episode + 1) % config_.checkpoint_every_episodes == 0) {
        write_checkpoint();
      }
    }
  }

  // Final flush: make sure the newest boundary state is on disk, whether the
  // run completed (so it can be resumed with a longer horizon) or was
  // interrupted mid-episode (so resume replays from the last boundary).
  if (snapshot_dirty) write_checkpoint();

  result.total_steps = global_step;
  result.interrupted = interrupted;
  result.completed_episodes = rs.next_episode;
  result.metrics = obs::DeltaSnapshot(metrics_start,
                                     obs::MetricsRegistry::Global().Snapshot());
  result.spans = obs::SpanTotalsDelta(spans_start, obs::ReadSpanTotals());
  return result;
}

std::map<std::string, double> TimeBreakdown(const obs::SpanTotals& spans) {
  static const std::map<std::string, std::string> kBucketOf = {
      {"engine/evaluate", "evaluation"},
      {"engine/select_action", "optimization"},
      {"engine/optimize", "optimization"},
      {"engine/coldstart_train", "optimization"},
      {"engine/finetune", "optimization"},
      {"engine/estimate", "estimation"},
      {"engine/novelty_metrics", "estimation"},
      {"engine/checkpoint_serialize", "checkpoint"},
      {"engine/checkpoint_write", "checkpoint"},
  };
  std::map<std::string, double> seconds;
  for (const auto& [name, bucket] : kBucketOf) {
    auto span = spans.find(name);
    if (span != spans.end()) {
      seconds[bucket] += static_cast<double>(span->second.total_ns) * 1e-9;
    }
  }
  return seconds;
}

}  // namespace fastft
