// Overhead of the observability layer: the same engine run with tracing
// disabled vs. enabled (spans recorded into per-thread rings). The claim
// under test is the DESIGN.md guarantee that FASTFT_TRACE_SPAN is cheap
// enough to leave compiled in everywhere: enabled tracing must cost < 2% of
// engine wall-clock, and the exported scores must be bit-identical.
//
// The measured loop brackets StartTracing/StopTracing directly (no file
// path), so JSON serialization and disk I/O — a one-time cost at run exit —
// are timed separately and excluded from the overhead figure.

#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/timer.h"
#include "common/trace.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

EngineConfig OverheadConfig(uint64_t seed) {
  EngineConfig cfg;
  cfg.episodes = bench::FullMode() ? 10 : 6;
  cfg.steps_per_episode = 6;
  cfg.cold_start_episodes = 2;
  cfg.evaluator.folds = 2;
  cfg.evaluator.forest_trees = 6;
  cfg.num_threads = bench::BenchThreads();
  cfg.seed = seed;
  return cfg;
}

double RunOnce(const Dataset& dataset, uint64_t seed) {
  EngineResult result =
      FastFtEngine(OverheadConfig(seed)).Run(dataset).ValueOrDie();
  return result.best_score;
}

int Main() {
  bench::PrintTitle(
      "Trace overhead: engine run with span recording off vs. on");

  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 6;
  spec.seed = 33;
  Dataset dataset = MakeClassification(spec);

  const int reps = bench::FullMode() ? 6 : 4;
  // Warm-up: touch every lazy singleton (shared pool, caches, registries)
  // outside the timed loops.
  RunOnce(dataset, 1);

  WallTimer timer;
  std::vector<double> scores_off;
  for (int r = 0; r < reps; ++r) {
    scores_off.push_back(RunOnce(dataset, 100 + static_cast<uint64_t>(r)));
  }
  const double seconds_off = timer.Seconds();

  timer.Restart();
  std::vector<double> scores_on;
  for (int r = 0; r < reps; ++r) {
    obs::StartTracing();
    scores_on.push_back(RunOnce(dataset, 100 + static_cast<uint64_t>(r)));
    obs::StopTracing();
  }
  const double seconds_on = timer.Seconds();

  timer.Restart();
  const std::string json = obs::ChromeTraceJson(obs::SnapshotTrace());
  const double export_s = timer.Seconds();
  const int64_t last_run_events = obs::SnapshotTrace().TotalEvents();

  bool identical = true;
  for (int r = 0; r < reps; ++r) {
    identical = identical && scores_off[r] == scores_on[r];
  }
  const double overhead_pct =
      seconds_off > 0 ? (seconds_on - seconds_off) / seconds_off * 100.0
                      : 0.0;

  std::printf("%d engine runs   tracing off %.3fs   on %.3fs   overhead "
              "%+.2f%%   (%lld spans/run, export %.1fms, %zu-byte JSON)\n",
              reps, seconds_off, seconds_on, overhead_pct,
              static_cast<long long>(last_run_events), export_s * 1000.0,
              json.size());

  std::printf("{\"bench\": \"trace_overhead\", \"reps\": %d, "
              "\"seconds_off\": %.4f, \"seconds_on\": %.4f, "
              "\"overhead_pct\": %.3f, \"spans_per_run\": %lld, "
              "\"export_ms\": %.2f, \"bit_identical\": %s}\n",
              reps, seconds_off, seconds_on, overhead_pct,
              static_cast<long long>(last_run_events), export_s * 1000.0,
              identical ? "true" : "false");

  bench::ShapeCheck(identical,
                    "scores are bit-identical with tracing on vs. off");
  bench::ShapeCheck(overhead_pct < 2.0,
                    "enabled span recording costs < 2% engine wall-clock");
  return identical ? 0 : 1;
}

}  // namespace
}  // namespace fastft

int main() { return fastft::Main(); }
