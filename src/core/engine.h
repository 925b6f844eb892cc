// The FastFT engine: cold start + efficient exploration + optimization
// (paper §III-D, Algorithms 1 and 2, Fig. 3).
//
// One Run() executes the full pipeline on a dataset:
//   1. Cold start — explore with downstream-task feedback, collecting
//      (sequence, score) pairs; then train the Performance Predictor and
//      Novelty Estimator on the collected memory.
//   2. Efficient exploration — per step, estimate novelty and performance
//      with the evaluation components; trigger a real downstream evaluation
//      only for sequences in the top-α performance percentile or top-β
//      novelty percentile; shape the reward per Eq. 6 with the ε-decayed
//      novelty bonus; store transitions in the prioritized buffer and
//      optimize the cascading agents from replayed critical memories.
//   3. Periodic finetuning of both evaluation components from the buffer.
//
// Every ablation of the paper is a configuration flag here:
//   use_performance_predictor=false → FASTFT^-PP   (Table II, Fig. 6/9)
//   use_novelty=false               → FASTFT^-NE   (Fig. 6/14)
//   prioritized_replay=false        → FASTFT^-RCT  (Fig. 6)
//   framework=kDqn...               → Fig. 7
//   backbone=kRnn/kTransformer      → FASTFT^R / FASTFT^T (Fig. 8)

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/trace.h"
#include "core/agents.h"
#include "core/clustering.h"
#include "core/feature_space.h"
#include "core/health.h"
#include "core/novelty_estimator.h"
#include "core/performance_predictor.h"
#include "core/q_agents.h"
#include "core/replay_buffer.h"
#include "core/tokenizer.h"
#include "ml/evaluator.h"

namespace fastft {

enum class RlFramework {
  kActorCritic,
  kDqn,
  kDoubleDqn,
  kDuelingDqn,
  kDuelingDoubleDqn,
};

const char* RlFrameworkName(RlFramework framework);

struct EngineConfig {
  // Exploration schedule (paper defaults: 200 episodes × 15 steps, cold
  // start 10 episodes; scaled down here so a Run is laptop-fast — benches
  // override as needed).
  int episodes = 12;
  int steps_per_episode = 8;
  int cold_start_episodes = 3;

  // Evaluation components & ablations.
  bool use_performance_predictor = true;  // false → FASTFT^-PP
  bool use_novelty = true;                // false → FASTFT^-NE
  bool prioritized_replay = true;         // false → FASTFT^-RCT
  int finetune_every_episodes = 3;        // paper E = 5
  int finetune_epochs = 4;                // paper K
  int cold_start_train_epochs = 10;
  int finetune_batch = 8;

  // Adaptive downstream triggers (percentiles; paper α=10, β=5). A value
  // of 0 disables that trigger entirely (Fig. 12's degenerate setting).
  double alpha_percentile = 10.0;
  double beta_percentile = 5.0;

  // Novelty reward schedule (Eq. 6): ε from ε_s to ε_e over M steps.
  double novelty_weight_start = 0.10;   // paper ε_s
  double novelty_weight_end = 0.005;    // paper ε_e
  int novelty_decay_steps = 1000;       // paper M

  int memory_size = 16;  // paper S

  // Exploration annealing: the agents' residual random-action probability
  // decays from start to end over `epsilon_decay_steps` global steps. This
  // models the paper's premise that random exploration *ends* and the
  // trained strategy takes over (challenge C2).
  double epsilon_start = 0.25;
  double epsilon_end = 0.03;
  int epsilon_decay_steps = 150;

  RlFramework framework = RlFramework::kActorCritic;
  AgentConfig agent;
  QAgentConfig q_agent;

  nn::Backbone backbone = nn::Backbone::kLstm;

  FeatureSpaceConfig feature_space;
  ClusteringConfig clustering;
  /// Downstream evaluator settings. Its num_threads is overridden by
  /// EngineConfig::num_threads below; forest_threads passes through.
  EvaluatorConfig evaluator;

  /// Worker threads for downstream evaluation (k-fold fan-out and batched
  /// candidate scoring) and for batched estimation (novelty distillation
  /// targets, Fig. 14 embedding-distance sweep). 1 = serial, 0 = all
  /// hardware threads. Scores, traces, and health reports are bit-identical
  /// for any value; only the wall clock changes.
  int num_threads = 1;
  /// Per-network byte cap (in KiB) of the estimation prefix-state caches
  /// (predictor + novelty target/estimator). 0 disables caching; scores are
  /// bit-identical either way, only the estimation wall clock changes.
  int prefix_cache_kb = 256;
  int tokenizer_feature_buckets = 48;
  int tokenizer_max_length = 192;

  /// Collect the Fig. 14 per-step novelty metrics (extra encoder passes).
  bool collect_novelty_metrics = false;

  /// When non-empty, Run() records spans (engine steps, evaluator folds,
  /// pool tasks, estimator batches, cache lookups, ...) and writes a
  /// Chrome-trace JSON file here on exit — load it in Perfetto or
  /// chrome://tracing. Tracing never changes scores: spans only read clocks.
  std::string trace_path;
  /// Per-thread span ring capacity while tracing (drop-oldest beyond this;
  /// the export reports how many were dropped).
  int trace_ring_capacity = 65536;

  /// When non-empty, Run() records per-step decision provenance — candidate
  /// sets, chosen/runner-up scores, the Eq. 6 reward decomposition, replay
  /// priorities, health events (see common/recorder.h) — and flushes the
  /// versioned binary stream here at every episode boundary through the
  /// atomic-write path. Recording never changes scores, reports, or traces;
  /// on resume the stream reopens at the checkpoint's episode cursor so
  /// kill → resume yields one coherent stream.
  std::string record_path;
  /// Per-thread decision-event ring capacity while recording (drop-oldest
  /// beyond this; the stream carries exact per-thread dropped counters).
  int record_ring_capacity = 16384;

  /// When non-empty, Run() snapshots its full state here (atomically: temp
  /// file + fsync + rename) at episode boundaries. Checkpointing never
  /// changes scores; it only adds the serialize/write wall clock.
  std::string checkpoint_path;
  /// Episode cadence of checkpoint writes (boundary state is also written
  /// on deadline/cancellation regardless of cadence).
  int checkpoint_every_episodes = 1;
  /// Attempt to restore from checkpoint_path before running. A missing
  /// file runs fresh silently; a corrupted or mismatched one runs fresh
  /// with a logged warning. A resumed run converges to the bit-identical
  /// final result of the uninterrupted run.
  bool resume = false;
  /// Cooperative wall-clock budget (0 = none). Checked at episode/step
  /// boundaries and inside evaluator batches; on expiry the run stops at
  /// the next boundary, writes a final checkpoint (when configured), and
  /// returns a valid partial result with `interrupted` set.
  int64_t wall_clock_budget_ms = 0;
  /// Optional external kill switch, polled alongside the budget. The engine
  /// holds a reference, so a controlling thread may flip it at any time.
  std::shared_ptr<std::atomic<bool>> cancel_flag;

  uint64_t seed = 2024;
};

/// Per-step trace entry for the figure harnesses.
struct StepTrace {
  int episode = 0;
  int step = 0;
  double reward = 0.0;
  double performance = 0.0;  // v_j actually used as feedback
  bool downstream_evaluated = false;
  /// Whether this step added at least one new column.
  bool generated = false;
  double novelty = 0.0;  // normalized novelty bonus (0 when unused)
  /// Fig. 14 metrics (when collect_novelty_metrics):
  double novelty_distance = 0.0;      // min cosine distance to history
  int unseen_cumulative = 0;          // distinct expressions seen so far
  /// Highest-relevance feature generated this step (Fig. 15); empty if none.
  std::string top_new_feature;
};

struct EngineResult {
  double base_score = 0.0;
  double best_score = 0.0;
  Dataset best_dataset;
  std::vector<StepTrace> trace;
  /// Best-so-far score after each episode (Fig. 7 convergence curves).
  std::vector<double> episode_best;
  /// Delta of the always-on span totals over this run; TimeBreakdown maps
  /// it to the Table II buckets. Like `metrics` it is process-wide: engines
  /// running concurrently in one process see each other's spans.
  obs::SpanTotals spans;
  /// Run totals. They are checkpointed, so a resumed run reports the count
  /// of the whole run, not just of the part after the restore.
  int64_t downstream_evaluations = 0;
  int64_t predictor_estimations = 0;
  int total_steps = 0;
  /// Faults observed, updates skipped, quarantines, and recoveries during
  /// the run (all zero on a healthy run).
  HealthReport health;
  /// Delta of the process-wide metrics registry over this run (counters,
  /// gauges, histograms). Process-local: a resumed run counts only what it
  /// did after the restore, and the run totals above are the checkpointed
  /// record of the whole run.
  obs::MetricsSnapshot metrics;
  /// True when the run stopped early on the wall-clock budget or the
  /// cancel flag; the result is then a valid partial report covering
  /// `completed_episodes` episodes.
  bool interrupted = false;
  /// Episodes fully finished (== config.episodes on a complete run).
  int completed_episodes = 0;
  /// True when this run restored state from a checkpoint.
  bool resumed = false;
  /// Flight-recorder tallies for this run (zero with recording off). These
  /// stay OUT of the run report, which is byte-identical with recording on
  /// or off.
  int64_t recorded_events = 0;
  int64_t recorded_dropped = 0;
};

/// The paper's Table II time split, in seconds, summed from span totals:
///   "evaluation"    engine/evaluate
///   "optimization"  engine/select_action, engine/optimize,
///                   engine/coldstart_train, engine/finetune
///   "estimation"    engine/estimate, engine/novelty_metrics
///   "checkpoint"    engine/checkpoint_serialize, engine/checkpoint_write
/// A bucket is present only when one of its spans ran. Every span is opened
/// on the thread driving the run, so parallel fan-out shrinks a bucket
/// rather than summing per-worker time.
std::map<std::string, double> TimeBreakdown(const obs::SpanTotals& spans);

/// Rejects configurations the engine cannot run (non-positive schedules,
/// out-of-range percentiles, ...) with an actionable message.
Status ValidateEngineConfig(const EngineConfig& config);

class FastFtEngine {
 public:
  explicit FastFtEngine(EngineConfig config);

  /// Runs the full pipeline; deterministic given config.seed.
  ///
  /// Invalid datasets/configurations surface as a Status instead of
  /// aborting. Component failures mid-run (injected faults, non-finite
  /// losses or scores) never abort either: the failing component is
  /// quarantined — the engine continues in the matching FASTFT^-PP /
  /// FASTFT^-NE ablation mode — re-armed with exponential backoff, and the
  /// outcome is recorded in EngineResult::health.
  Result<EngineResult> Run(const Dataset& dataset);

  const EngineConfig& config() const { return config_; }

 private:
  EngineConfig config_;
};

}  // namespace fastft

