// Estimation hot path: per-step estimate latency with and without the
// prefix-state cache, plus serial-vs-batched scoring wall clock.
//
// Layer 1 replays the engine's append pattern — each step extends the token
// sequence by a few tokens and re-scores it with Predict + NormalizedNovelty
// — against two identically-seeded component pairs, one with the prefix
// cache enabled and one from-scratch. Layer 2 fans a batch of independent
// sequences over the shared pool (cache disabled, isolating the fan-out).
//
// Determinism is the hard requirement: cached, uncached, serial, and batched
// scores must agree bit for bit. The summary is also emitted as one JSON
// line (machine-readable perf trajectory for future PRs, same spirit as
// bench/parallel_eval's layer report).

#include <cinttypes>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/simd_kernels.h"
#include "common/threadpool.h"
#include "common/timer.h"
#include "core/novelty_estimator.h"
#include "core/performance_predictor.h"

namespace fastft {
namespace {

constexpr int kThreads = 4;
constexpr int kVocab = 64;
constexpr int kLongStep = 32;  // acceptance: >= 2x for sequences >= 32 tokens

// One simulated episode: sequences grow by three tokens per step with the
// trailing EOS replaced, exactly the tokenizer's append pattern.
std::vector<std::vector<int>> Episode(int steps, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<int>> sequences;
  std::vector<int> body = {1};  // BOS
  for (int i = 0; i < steps; ++i) {
    for (int j = 0; j < 3; ++j) {
      body.push_back(3 + static_cast<int>(rng.Uniform() * (kVocab - 4)));
    }
    std::vector<int> seq = body;
    seq.push_back(2);  // EOS
    sequences.push_back(std::move(seq));
  }
  return sequences;
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

int main_impl() {
  bench::PrintTitle("Estimation hot path — prefix cache + batched scoring");
  const int hardware = common::ResolveThreadCount(0);
  std::printf("hardware threads: %d\n", hardware);

  // --- Layer 1: per-step estimation along growing sequences. -------------
  const int episodes = bench::FullMode() ? 12 : 6;
  const int steps = 40;  // final sequences reach 122 tokens
  std::vector<std::vector<std::vector<int>>> workload;
  for (int e = 0; e < episodes; ++e) {
    workload.push_back(Episode(steps, 500 + static_cast<uint64_t>(e)));
  }

  PredictorConfig pp_cached;
  pp_cached.seed = 51;
  PredictorConfig pp_scratch = pp_cached;
  pp_scratch.prefix_cache_bytes = 0;
  NoveltyConfig ne_cached;
  ne_cached.seed = 73;
  NoveltyConfig ne_scratch = ne_cached;
  ne_scratch.prefix_cache_bytes = 0;

  // Identically-seeded pairs: same weights, same scores, different encoder
  // work. Both sides score the same steps in the same order, so the novelty
  // running scale follows the same trajectory.
  auto run_steps = [&](PerformancePredictor* predictor,
                       NoveltyEstimator* novelty, double* long_seconds,
                       int64_t* long_steps) {
    std::vector<double> scores;
    WallTimer timer;
    for (const auto& episode : workload) {
      for (const std::vector<int>& seq : episode) {
        timer.Restart();
        double predicted = predictor->Predict(seq);
        double nov = novelty->NormalizedNovelty(seq);
        double elapsed = timer.Seconds();
        if (static_cast<int>(seq.size()) >= kLongStep) {
          *long_seconds += elapsed;
          ++*long_steps;
        }
        scores.push_back(predicted);
        scores.push_back(nov);
      }
    }
    return scores;
  };

  PerformancePredictor scratch_pred(pp_scratch);
  NoveltyEstimator scratch_nov(ne_scratch);
  double scratch_s = 0.0;
  int64_t long_steps = 0;
  std::vector<double> scratch_scores =
      run_steps(&scratch_pred, &scratch_nov, &scratch_s, &long_steps);

  PerformancePredictor cached_pred(pp_cached);
  NoveltyEstimator cached_nov(ne_cached);
  double cached_s = 0.0;
  int64_t long_steps_cached = 0;
  // The registry delta brackets only the cached run, so it counts exactly
  // this pair's prefix caches (the scratch pair's caches are disabled).
  const obs::MetricsSnapshot cache_start =
      obs::MetricsRegistry::Global().Snapshot();
  std::vector<double> cached_scores =
      run_steps(&cached_pred, &cached_nov, &cached_s, &long_steps_cached);
  const obs::MetricsSnapshot cache = obs::DeltaSnapshot(
      cache_start, obs::MetricsRegistry::Global().Snapshot());
  const int64_t lookups = cache.CounterValue("encode_cache.lookups");
  const int64_t hits = cache.CounterValue("encode_cache.hits");
  const int64_t tokens_reused =
      cache.CounterValue("encode_cache.tokens_reused");
  const int64_t tokens_encoded =
      cache.CounterValue("encode_cache.tokens_encoded");
  const double hit_rate =
      lookups > 0 ? static_cast<double>(hits) / static_cast<double>(lookups)
                  : 0.0;
  const double token_reuse_rate =
      tokens_reused + tokens_encoded > 0
          ? static_cast<double>(tokens_reused) /
                static_cast<double>(tokens_reused + tokens_encoded)
          : 0.0;

  const bool step_identical = BitIdentical(scratch_scores, cached_scores);
  const double step_speedup = cached_s > 0 ? scratch_s / cached_s : 0.0;
  const double us_scratch =
      long_steps > 0 ? 1e6 * scratch_s / static_cast<double>(long_steps) : 0.0;
  const double us_cached =
      long_steps > 0 ? 1e6 * cached_s / static_cast<double>(long_steps) : 0.0;
  std::printf("per-step (len >= %d, %" PRId64
              " steps)   scratch %8.1f us   cached %8.1f us   "
              "speedup %5.2fx   scores %s\n",
              kLongStep, long_steps, us_scratch, us_cached, step_speedup,
              step_identical ? "bit-identical" : "DIFFER");
  std::printf("prefix cache   hit rate %.3f   token reuse %.3f   "
              "(%" PRId64 " lookups, %" PRId64 " reused, %" PRId64
              " encoded)\n",
              hit_rate, token_reuse_rate, lookups, tokens_reused,
              tokens_encoded);

  // --- Layer 1b: SIMD on/off determinism. --------------------------------
  // A third identically-seeded pair scores the same workload with the
  // vector kernels disabled; the SIMD layer's bit-identity contract says
  // the scores cannot move.
  const bool simd_was_enabled = simd::Enabled();
  simd::SetEnabled(false);
  PerformancePredictor scalar_pred(pp_cached);
  NoveltyEstimator scalar_nov(ne_cached);
  double scalar_kernels_s = 0.0;
  int64_t long_steps_scalar = 0;
  std::vector<double> scalar_kernel_scores =
      run_steps(&scalar_pred, &scalar_nov, &scalar_kernels_s,
                &long_steps_scalar);
  simd::SetEnabled(simd_was_enabled);
  const bool simd_identical =
      BitIdentical(scalar_kernel_scores, cached_scores);
  const double simd_speedup =
      cached_s > 0 ? scalar_kernels_s / cached_s : 0.0;
  std::printf("simd (%s)   scalar-kernel %.3fs   vector-kernel %.3fs   "
              "speedup %5.2fx   scores %s\n",
              simd::ActiveBackend(), scalar_kernels_s, cached_s, simd_speedup,
              simd_identical ? "bit-identical" : "DIFFER");

  // --- Layer 2: batched scoring fan-out (cache disabled). ----------------
  const int batch_size = bench::FullMode() ? 96 : 48;
  std::vector<std::vector<int>> batch;
  {
    Rng rng(909);
    for (int i = 0; i < batch_size; ++i) {
      std::vector<int> seq = {1};
      for (int j = 0; j < 47; ++j) {
        seq.push_back(3 + static_cast<int>(rng.Uniform() * (kVocab - 4)));
      }
      seq.push_back(2);
      batch.push_back(std::move(seq));
    }
  }
  PerformancePredictor batch_pred(pp_scratch);
  NoveltyEstimator batch_nov(ne_scratch);
  const int rounds = bench::FullMode() ? 6 : 3;

  WallTimer timer;
  std::vector<double> serial_pred, serial_nov;
  for (int r = 0; r < rounds; ++r) {
    serial_pred = batch_pred.PredictBatch(batch, 1);
    serial_nov = batch_nov.NoveltyBatch(batch, 1);
  }
  const double batch_serial_s = timer.Seconds();

  timer.Restart();
  std::vector<double> parallel_pred, parallel_nov;
  for (int r = 0; r < rounds; ++r) {
    parallel_pred = batch_pred.PredictBatch(batch, kThreads);
    parallel_nov = batch_nov.NoveltyBatch(batch, kThreads);
  }
  const double batch_parallel_s = timer.Seconds();

  const bool batch_identical = BitIdentical(serial_pred, parallel_pred) &&
                               BitIdentical(serial_nov, parallel_nov);
  const double batch_speedup =
      batch_parallel_s > 0 ? batch_serial_s / batch_parallel_s : 0.0;
  std::printf("batch   %3d seqs x %d rounds   serial %.3fs   %d-thread "
              "%.3fs   speedup %.2fx   scores %s\n",
              batch_size, rounds, batch_serial_s, kThreads, batch_parallel_s,
              batch_speedup, batch_identical ? "bit-identical" : "DIFFER");

  // Machine-readable perf trajectory for future PRs.
  std::printf("{\"bench\": \"estimation_path\", "
              "\"per_step\": {\"long_steps\": %" PRId64
              ", \"scratch_us\": %.2f, \"cached_us\": %.2f, "
              "\"speedup\": %.3f, \"hit_rate\": %.4f, "
              "\"token_reuse_rate\": %.4f}, "
              "\"batch\": {\"size\": %d, \"threads\": %d, "
              "\"serial_s\": %.4f, \"parallel_s\": %.4f, "
              "\"speedup\": %.3f}, "
              "\"simd\": {\"backend\": \"%s\", \"scalar_kernel_s\": %.4f, "
              "\"speedup\": %.3f, \"bit_identical\": %s}, "
              "\"bit_identical\": %s}\n",
              long_steps, us_scratch, us_cached, step_speedup,
              hit_rate, token_reuse_rate, batch_size, kThreads,
              batch_serial_s, batch_parallel_s, batch_speedup,
              simd::ActiveBackend(), scalar_kernels_s, simd_speedup,
              simd_identical ? "true" : "false",
              (step_identical && batch_identical && simd_identical)
                  ? "true"
                  : "false");

  bench::ShapeCheck(step_identical && batch_identical,
                    "cached and batched estimation reproduces serial "
                    "from-scratch scores bit for bit");
  bench::ShapeCheck(simd_identical,
                    "vector kernels reproduce scalar-kernel scores bit for "
                    "bit (FASTFT_SIMD on vs off)");
  bench::ShapeCheck(step_speedup >= 2.0,
                    "prefix cache >= 2x per-step estimation speedup for "
                    "sequences >= " + std::to_string(kLongStep) + " tokens");
  if (hardware >= 2) {
    bench::ShapeCheck(batch_speedup >= 2.0,
                      "batched scoring >= 2x faster at " +
                          std::to_string(kThreads) +
                          " threads (near-linear scaling)");
  } else {
    std::printf("paper-shape check: [SKIP] batch scaling needs >= 2 hardware "
                "threads (this host has %d; determinism still asserted)\n",
                hardware);
  }
  return (step_identical && batch_identical && simd_identical) ? 0 : 1;
}

}  // namespace
}  // namespace fastft

int main() { return fastft::main_impl(); }
