// Micro-benchmarks (google-benchmark) for the performance-critical
// primitives: operation application, MI estimation, clustering, feature
// generation, state representation, predictor inference and training steps,
// tree, forest and boosting fits, and —
// the paper's central contrast — one predictor forward pass vs. one full
// downstream evaluation.
//
// Before the google-benchmark suite runs, a per-kernel scalar-vs-SIMD gate
// times every simd_kernels entry point at representative shapes, asserts the
// outputs are bit-identical, and persists the speedups to BENCH_kernels.json
// (atomic write, beside BENCH_robustness.json) so the kernel perf trajectory
// is machine-checkable across PRs.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/fs.h"
#include "common/rng.h"
#include "common/simd_kernels.h"
#include "common/timer.h"
#include "core/clustering.h"
#include "core/feature_space.h"
#include "core/mutual_information.h"
#include "core/operations.h"
#include "core/performance_predictor.h"
#include "core/state.h"
#include "data/synthetic.h"
#include "ml/decision_tree.h"
#include "ml/evaluator.h"
#include "ml/gradient_boosting.h"
#include "ml/random_forest.h"
#include "nn/sequence_model.h"

namespace fastft {
namespace {

// --- Scalar-vs-SIMD kernel gate -------------------------------------------

std::vector<double> GateVec(int n, Rng* rng) {
  std::vector<double> v(n);
  for (double& x : v) x = rng->Normal(0.0, 1.0);
  return v;
}

/// Best-of-5 wall time of `reps` back-to-back kernel invocations.
template <typename Fn>
double TimeKernel(int reps, const Fn& fn) {
  double best = 1e300;
  for (int trial = 0; trial < 5; ++trial) {
    WallTimer timer;
    for (int r = 0; r < reps; ++r) fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

struct KernelResult {
  const char* name;
  bool matmul_family;  // the kernels under the >= 2x acceptance gate
  double scalar_s = 0.0;
  double simd_s = 0.0;
  bool identical = false;

  double Speedup() const { return simd_s > 0.0 ? scalar_s / simd_s : 0.0; }
};

/// Runs `fn` (which writes into `out`) under both backends, records the
/// timings, and checks the two outputs bit for bit.
template <typename Fn>
KernelResult RunKernelGate(const char* name, bool matmul_family, int reps,
                           std::vector<double>* out, const Fn& fn) {
  KernelResult result{name, matmul_family};
  simd::SetEnabled(false);
  fn();
  std::vector<double> scalar_out = *out;
  result.scalar_s = TimeKernel(reps, fn);
  simd::SetEnabled(true);
  fn();
  result.identical = (*out == scalar_out);
  result.simd_s = TimeKernel(reps, fn);
  return result;
}

/// Times every simd_kernels entry point scalar-vs-vector, persists
/// BENCH_kernels.json, and returns 0 iff every pair was bit-identical.
int KernelGate() {
  bench::PrintTitle("SIMD kernel gate (scalar vs " +
                    std::string(simd::VectorBackendAvailable()
                                    ? simd::ActiveBackend()
                                    : "none") +
                    ")");
  Rng rng(77);
  // Representative shapes: the predictor's LSTM works on hidden 32 →
  // W (128 x 64); batch forward passes run ~100-row activations against
  // 64-wide layers.
  const int m = 96, kdim = 64, n = 64;
  const int mv_rows = 128, mv_cols = 64;
  const int vec_n = 4096;

  std::vector<double> a = GateVec(m * kdim, &rng);
  std::vector<double> b = GateVec(kdim * n, &rng);
  std::vector<double> at = GateVec(kdim * m, &rng);   // (kdim x m)
  std::vector<double> bt = GateVec(n * kdim, &rng);   // (n x kdim)
  std::vector<double> w = GateVec(mv_rows * mv_cols, &rng);
  std::vector<double> bias = GateVec(mv_rows, &rng);
  std::vector<double> z = GateVec(mv_cols, &rng);
  std::vector<double> x = GateVec(vec_n, &rng);
  std::vector<double> y = GateVec(vec_n, &rng);
  std::vector<double> out(static_cast<size_t>(m) * n);
  std::vector<double> small_out(std::max(mv_rows, vec_n));

  std::vector<KernelResult> results;
  results.push_back(RunKernelGate("matmul", true, 200, &out, [&] {
    simd::MatMul(a.data(), b.data(), out.data(), m, kdim, n);
  }));
  results.push_back(RunKernelGate("transpose_matmul", true, 200, &out, [&] {
    simd::TransposeMatMul(at.data(), b.data(), out.data(), m, kdim, n,
                          /*accumulate=*/false);
  }));
  results.push_back(RunKernelGate("matmul_transpose", true, 200, &out, [&] {
    simd::MatMulTranspose(a.data(), bt.data(), out.data(), m, kdim, n);
  }));
  results.push_back(RunKernelGate("matvec", false, 4000, &small_out, [&] {
    simd::MatVec(w.data(), bias.data(), z.data(), small_out.data(), mv_rows,
                 mv_cols);
  }));
  // The recurrent backward's kernels at one LSTM layer's shapes (4H = 128
  // gate rows, zdim = 64, a 53-token sequence). OuterAccumulate and
  // AdamUpdate write their inputs, so each call first restores them; the
  // restore copy is inside both timings.
  const int seq_len = 53;
  std::vector<double> gates = GateVec(seq_len * mv_rows, &rng);
  std::vector<double> zs = GateVec(seq_len * mv_cols, &rng);
  const std::vector<double> grad_seed = GateVec(mv_rows * mv_cols, &rng);
  std::vector<double> grad_out(grad_seed.size());
  results.push_back(RunKernelGate("vec_mat", false, 4000, &small_out, [&] {
    simd::VecMat(gates.data(), w.data(), small_out.data(), mv_rows, mv_cols);
  }));
  results.push_back(
      RunKernelGate("outer_accumulate", false, 400, &grad_out, [&] {
        std::copy(grad_seed.begin(), grad_seed.end(), grad_out.begin());
        simd::OuterAccumulate(gates.data(), zs.data(), grad_out.data(),
                              mv_rows, seq_len, mv_cols);
      }));
  // Adam state laid out value | grad | m | v, v kept non-negative.
  std::vector<double> adam_seed = GateVec(4 * vec_n, &rng);
  for (int i = 3 * vec_n; i < 4 * vec_n; ++i) {
    adam_seed[i] = std::abs(adam_seed[i]);
  }
  std::vector<double> adam_state(adam_seed.size());
  const simd::AdamScalars adam{1e-3, 0.9, 0.999, 1e-8, 0.1, 0.001};
  results.push_back(RunKernelGate("adam_update", false, 2000, &adam_state,
                                  [&] {
    std::copy(adam_seed.begin(), adam_seed.end(), adam_state.begin());
    double* st = adam_state.data();
    simd::AdamUpdate(st, st + vec_n, st + 2 * vec_n, st + 3 * vec_n, vec_n,
                     adam);
  }));
  results.push_back(RunKernelGate("axpy", false, 8000, &small_out, [&] {
    std::fill(small_out.begin(), small_out.end(), 0.0);
    simd::Axpy(1.25, x.data(), small_out.data(), vec_n);
  }));
  results.push_back(RunKernelGate("dot", false, 8000, &small_out, [&] {
    small_out[0] = simd::Dot(x.data(), y.data(), vec_n);
  }));
  results.push_back(RunKernelGate("sum_and_sumsq", false, 8000, &small_out,
                                  [&] {
    simd::SumAndSumSq(x.data(), vec_n, &small_out[0], &small_out[1]);
  }));
  simd::SetEnabled(true);

  bool all_identical = true;
  for (const KernelResult& r : results) {
    all_identical = all_identical && r.identical;
    std::printf("%-18s scalar %8.3f ms   simd %8.3f ms   speedup %5.2fx   %s\n",
                r.name, 1e3 * r.scalar_s, 1e3 * r.simd_s, r.Speedup(),
                r.identical ? "bit-identical" : "DIFFER");
  }

  const bool vector_available = simd::VectorBackendAvailable();
  bool matmul_gate = true;
  for (const KernelResult& r : results) {
    if (r.matmul_family) matmul_gate = matmul_gate && r.Speedup() >= 2.0;
  }
  bench::ShapeCheck(all_identical,
                    "every kernel is bit-identical scalar vs SIMD");
  if (vector_available) {
    bench::ShapeCheck(matmul_gate,
                      "MatMul-family kernels >= 2x with FASTFT_SIMD=ON at "
                      "representative shapes");
  } else {
    std::printf("paper-shape check: [SKIP] >= 2x gate needs a vector backend "
                "(this build/host runs scalar only)\n");
  }

  std::ostringstream json;
  json << "{\n";
  json << "    \"shapes\": {\"matmul\": [" << m << ", " << kdim << ", " << n
       << "], \"matvec\": [" << mv_rows << ", " << mv_cols
       << "], \"vec_mat\": [" << mv_rows << ", " << mv_cols
       << "], \"outer_accumulate\": [" << mv_rows << ", " << seq_len << ", "
       << mv_cols << "], \"vector_n\": " << vec_n << "},\n";
  json << "    \"kernels\": {\n";
  bool first = true;
  for (const KernelResult& r : results) {
    json << (first ? "" : ",\n") << "      \"" << r.name << "\": {"
         << "\"scalar_ms\": " << 1e3 * r.scalar_s
         << ", \"simd_ms\": " << 1e3 * r.simd_s
         << ", \"speedup\": " << r.Speedup()
         << ", \"bit_identical\": " << (r.identical ? "true" : "false")
         << "}";
    first = false;
  }
  json << "\n    },\n";
  json << "    \"matmul_family_gate_2x\": "
       << (vector_available ? (matmul_gate ? "true" : "false") : "null")
       << ",\n";
  json << "    \"all_bit_identical\": " << (all_identical ? "true" : "false")
       << "\n  }";
  bench::PersistLedger("BENCH_kernels.json", "micro_core_kernels",
                       json.str());
  return all_identical ? 0 : 1;
}

Dataset BenchDataset(int samples = 500, int features = 16) {
  SyntheticSpec spec;
  spec.samples = samples;
  spec.features = features;
  spec.seed = 5;
  return MakeClassification(spec);
}

void BM_ApplyBinaryOp(benchmark::State& state) {
  Rng rng(1);
  std::vector<double> a(state.range(0)), b(state.range(0));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal();
    b[i] = rng.Normal();
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ApplyBinary(OpType::kDiv, a, b));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ApplyBinaryOp)->Arg(1000)->Arg(10000);

void BM_QuantileBin(benchmark::State& state) {
  Rng rng(2);
  std::vector<double> v(state.range(0));
  for (double& x : v) x = rng.Normal();
  for (auto _ : state) benchmark::DoNotOptimize(QuantileBin(v, 8));
}
BENCHMARK(BM_QuantileBin)->Arg(500)->Arg(5000);

void BM_MutualInformation(benchmark::State& state) {
  Rng rng(3);
  std::vector<double> a(state.range(0)), b(state.range(0));
  for (size_t i = 0; i < a.size(); ++i) {
    a[i] = rng.Normal();
    b[i] = a[i] + rng.Normal();
  }
  std::vector<int> ba = QuantileBin(a, 8), bb = QuantileBin(b, 8);
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscreteMutualInformation(ba, bb));
  }
}
BENCHMARK(BM_MutualInformation)->Arg(500)->Arg(5000);

// Clustering a space whose MI caches are cold: every pair is computed.
void BM_ClusterFeaturesCold(benchmark::State& state) {
  Dataset ds = BenchDataset(400, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    state.PauseTiming();
    FeatureSpace space(ds);
    state.ResumeTiming();
    benchmark::DoNotOptimize(ClusterFeatures(space));
  }
}
BENCHMARK(BM_ClusterFeaturesCold)->Arg(8)->Arg(16)->Arg(32);

// The engine's per-step pattern: one crossing adds a column, then clustering
// computes only that column's pairs and reads the rest from the cache. The
// space returns to its (warm) originals whenever it reaches the budget.
void BM_ClusterFeaturesIncremental(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  Dataset ds = BenchDataset(400, d);
  FeatureSpace space(ds);
  std::vector<std::pair<int, int>> pairs;
  for (int h = 0; h < d; ++h) {
    for (int t = h + 1; t < d; ++t) pairs.emplace_back(h, t);
  }
  const OpType ops[] = {OpType::kMul, OpType::kAdd, OpType::kSub,
                        OpType::kDiv};
  Rng rng(5);
  benchmark::DoNotOptimize(ClusterFeatures(space));
  size_t next = 0;
  for (auto _ : state) {
    state.PauseTiming();
    if (space.NumColumns() >= space.config().max_features) {
      space.Reset();
      next = 0;
    }
    const auto [h, t] = pairs[(next / 4) % pairs.size()];
    space.ApplyOperation(ops[next % 4], {h}, {t}, &rng);
    ++next;
    state.ResumeTiming();
    benchmark::DoNotOptimize(ClusterFeatures(space));
  }
}
BENCHMARK(BM_ClusterFeaturesIncremental)->Arg(8)->Arg(16)->Arg(32);

void BM_StateRepresentation(benchmark::State& state) {
  Dataset ds = BenchDataset(400, 16);
  FeatureSpace space(ds);
  for (auto _ : state) benchmark::DoNotOptimize(FeatureSetState(space));
}
BENCHMARK(BM_StateRepresentation);

void BM_PredictorForward(benchmark::State& state) {
  PredictorConfig cfg;
  PerformancePredictor predictor(cfg);
  Rng rng(4);
  std::vector<int> tokens(state.range(0));
  for (int& t : tokens) t = rng.UniformInt(60);
  for (auto _ : state) benchmark::DoNotOptimize(predictor.Predict(tokens));
}
BENCHMARK(BM_PredictorForward)->Arg(32)->Arg(128);

// The paper's headline contrast: estimating a reward with one forward pass
// vs. running the full k-fold downstream evaluation.
void BM_DownstreamEvaluation(benchmark::State& state) {
  Dataset ds = BenchDataset(static_cast<int>(state.range(0)), 16);
  Evaluator evaluator;
  for (auto _ : state) benchmark::DoNotOptimize(evaluator.Evaluate(ds));
}
BENCHMARK(BM_DownstreamEvaluation)->Arg(200)->Arg(500)->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// Tree fits at the engine benchmark's two input shapes: arg 0 is the
// 900x48 4-class classification set, arg 1 the 160x48 regression set.
Dataset FitShape(int64_t shape) {
  SyntheticSpec spec;
  spec.features = 48;
  spec.informative = 26;
  spec.interaction_terms = 16;
  spec.seed = 5;
  if (shape == 0) {
    spec.samples = 900;
    spec.classes = 4;
    return MakeClassification(spec);
  }
  spec.samples = 160;
  return MakeRegression(spec);
}

// One episode of feature generation at the wide shape (arg 0 above; budget
// 48 + 16 columns, as the engine sets it): 16 crossing steps alternating a
// unary op on 4 head columns with a binary op on 3 x 3 pairs. Heads mix
// originals with the newest generated columns, so the space passes its
// budget and trims; then it resets to its (warm) originals. Items are steps.
void BM_FeatureSpaceStep(benchmark::State& state) {
  const Dataset ds = FitShape(0);
  const int d = ds.NumFeatures();
  FeatureSpaceConfig config;
  config.max_features = d + 16;
  FeatureSpace space(ds, config);
  constexpr int kSteps = 16;
  int64_t added = 0;
  for (auto _ : state) {
    Rng rng(9);
    for (int step = 0; step < kSteps; ++step) {
      const int n = space.NumColumns();
      const int base = (7 * step) % d;
      const int op = step / 2;
      if (step % 2 == 0) {
        added += space.ApplyOperation(
            OpFromIndex(op % kNumUnaryOperations),
            {base, (base + 11) % d, n - 1, n - 2}, {}, &rng);
      } else {
        added += space.ApplyOperation(
            OpFromIndex(kNumUnaryOperations + op % 4),
            {base, (base + 11) % d, n - 1}, {(base + 3) % d, n - 2, n - 3},
            &rng);
      }
    }
    benchmark::DoNotOptimize(added);
    space.Reset();
  }
  state.SetItemsProcessed(state.iterations() * kSteps);
  state.counters["columns_added"] = benchmark::Counter(
      static_cast<double>(added), benchmark::Counter::kAvgIterations);
}
BENCHMARK(BM_FeatureSpaceStep)->Unit(benchmark::kMillisecond);

void BM_RandomForestFit(benchmark::State& state) {
  Dataset ds = FitShape(state.range(0));
  Rows x = ds.features.ToRows();
  ForestConfig fc;
  fc.regression = ds.task == TaskType::kRegression;
  fc.num_trees = 8;
  fc.max_depth = 6;
  for (auto _ : state) {
    RandomForest forest(fc);
    forest.Fit(x, ds.labels);
    benchmark::DoNotOptimize(forest.num_classes());
  }
}
BENCHMARK(BM_RandomForestFit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_DecisionTreeFit(benchmark::State& state) {
  Dataset ds = FitShape(state.range(0));
  Rows x = ds.features.ToRows();
  TreeConfig tc;
  tc.regression = ds.task == TaskType::kRegression;
  tc.max_depth = 6;
  tc.max_features = 0;  // every feature at every node
  for (auto _ : state) {
    DecisionTree tree(tc);
    tree.Fit(x, ds.labels);
    benchmark::DoNotOptimize(tree.FeatureImportance().data());
  }
}
BENCHMARK(BM_DecisionTreeFit)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_GradientBoostingFit(benchmark::State& state) {
  Dataset ds = FitShape(1);
  Rows x = ds.features.ToRows();
  BoostingConfig bc;
  bc.regression = true;
  for (auto _ : state) {
    GradientBoosting gb(bc);
    gb.Fit(x, ds.labels);
    benchmark::DoNotOptimize(gb.Predict({x[0]}));
  }
}
BENCHMARK(BM_GradientBoostingFit)->Unit(benchmark::kMillisecond);

// One per-sample SGD step of the predictor's sequence model (2×LSTM(32),
// embedding 32): TrainStep on a sequence of the given length, then
// ApplyStep (clip + Adam), the pair the engine runs per training sample.
// Samples cycle through 16 random sequences and targets, as a replay does:
// one sequence trained over and over soon passes no gradient through the
// ReLU head on most steps, and would time the all-zero shortcut instead of
// the backward pass.
void BM_SequenceModelTrainStep(benchmark::State& state) {
  nn::SequenceModelConfig config;
  nn::SequenceModel model(config);
  Rng rng(8);
  std::vector<std::vector<int>> samples(16);
  std::vector<double> targets(samples.size());
  for (size_t i = 0; i < samples.size(); ++i) {
    samples[i].resize(state.range(0));
    for (int& t : samples[i]) t = rng.UniformInt(config.vocab_size);
    targets[i] = rng.Uniform();
  }
  size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.TrainStep(samples[next], targets[next]));
    model.ApplyStep();
    next = (next + 1) % samples.size();
  }
}
BENCHMARK(BM_SequenceModelTrainStep)->Arg(16)->Arg(53)->Arg(128);

// The hot matrix product at the gate's shape, through the dispatcher, for
// profiling runs (the gate above owns the scalar-vs-SIMD comparison).
void BM_SimdMatMul(benchmark::State& state) {
  const bool use_simd = state.range(0) != 0;
  Rng rng(6);
  const int m = 96, kdim = 64, n = 64;
  std::vector<double> a(m * kdim), b(kdim * n), out(m * n);
  for (double& v : a) v = rng.Normal();
  for (double& v : b) v = rng.Normal();
  simd::SetEnabled(use_simd);
  for (auto _ : state) {
    simd::MatMul(a.data(), b.data(), out.data(), m, kdim, n);
    benchmark::DoNotOptimize(out.data());
  }
  simd::SetEnabled(true);
  state.SetLabel(use_simd && simd::VectorBackendAvailable() ? "vector"
                                                            : "scalar");
}
BENCHMARK(BM_SimdMatMul)->Arg(0)->Arg(1);

}  // namespace
}  // namespace fastft

int main(int argc, char** argv) {
  const int gate_rc = fastft::KernelGate();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return gate_rc;
}
