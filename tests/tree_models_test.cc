// Tests for decision tree, random forest, and gradient boosting.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/simd_kernels.h"
#include "ml/decision_tree.h"
#include "ml/gradient_boosting.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace fastft {
namespace {

// XOR-ish dataset: label depends on sign(x0 * x1) — needs depth >= 2.
void MakeXor(int n, Rows* x, std::vector<double>* y, uint64_t seed = 1) {
  Rng rng(seed);
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(-1, 1);
    double b = rng.Uniform(-1, 1);
    x->push_back({a, b});
    y->push_back(a * b > 0 ? 1.0 : 0.0);
  }
}

TEST(DecisionTreeTest, FitsXorPerfectlyWithDepth) {
  Rows x;
  std::vector<double> y;
  MakeXor(300, &x, &y);
  TreeConfig tc;
  tc.max_depth = 6;
  tc.min_samples_leaf = 1;
  DecisionTree tree(tc);
  tree.Fit(x, y);
  std::vector<double> pred = tree.Predict(x);
  EXPECT_GT(Accuracy(y, pred), 0.95);
  EXPECT_EQ(tree.num_classes(), 2);
}

TEST(DecisionTreeTest, DepthOneCannotFitXor) {
  Rows x;
  std::vector<double> y;
  MakeXor(300, &x, &y);
  TreeConfig tc;
  tc.max_depth = 1;
  DecisionTree tree(tc);
  tree.Fit(x, y);
  EXPECT_LT(Accuracy(y, tree.Predict(x)), 0.75);
}

TEST(DecisionTreeTest, PureNodeIsLeaf) {
  Rows x = {{0}, {1}, {2}};
  std::vector<double> y = {1, 1, 1};
  DecisionTree tree;
  tree.Fit(x, y);
  EXPECT_DOUBLE_EQ(tree.Predict({{5}})[0], 1.0);
}

TEST(DecisionTreeTest, RegressionFitsStep) {
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 100; ++i) {
    x.push_back({static_cast<double>(i)});
    y.push_back(i < 50 ? 1.0 : 5.0);
  }
  TreeConfig tc;
  tc.regression = true;
  tc.max_depth = 2;
  DecisionTree tree(tc);
  tree.Fit(x, y);
  EXPECT_NEAR(tree.Predict({{10}})[0], 1.0, 0.2);
  EXPECT_NEAR(tree.Predict({{90}})[0], 5.0, 0.2);
}

TEST(DecisionTreeTest, ImportanceConcentratesOnSplitFeature) {
  // Feature 1 fully determines the label; feature 0 is noise.
  Rng rng(4);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 200; ++i) {
    double signal = rng.Uniform(-1, 1);
    x.push_back({rng.Uniform(-1, 1), signal});
    y.push_back(signal > 0 ? 1.0 : 0.0);
  }
  DecisionTree tree;
  tree.Fit(x, y);
  const auto& importance = tree.FeatureImportance();
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_GT(importance[1], 0.9);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(DecisionTreeTest, ProbaSumsToOne) {
  Rows x;
  std::vector<double> y;
  MakeXor(100, &x, &y);
  DecisionTree tree;
  tree.Fit(x, y);
  std::vector<double> p = tree.PredictProba(x[0]);
  double sum = 0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(DecisionTreeTest, MinSamplesLeafRespected) {
  Rows x;
  std::vector<double> y;
  MakeXor(50, &x, &y);
  TreeConfig tc;
  tc.min_samples_leaf = 25;  // at most one split possible
  DecisionTree tree(tc);
  tree.Fit(x, y);  // must not crash; prediction still defined
  EXPECT_EQ(tree.Predict(x).size(), x.size());
}

TEST(RandomForestTest, BeatsSingleStumpOnXor) {
  Rows x;
  std::vector<double> y;
  MakeXor(400, &x, &y);
  ForestConfig fc;
  fc.num_trees = 15;
  fc.max_depth = 6;
  RandomForest forest(fc);
  forest.Fit(x, y);
  EXPECT_GT(Accuracy(y, forest.Predict(x)), 0.9);
}

TEST(RandomForestTest, DeterministicGivenSeed) {
  Rows x;
  std::vector<double> y;
  MakeXor(150, &x, &y);
  ForestConfig fc;
  fc.seed = 5;
  RandomForest a(fc), b(fc);
  a.Fit(x, y);
  b.Fit(x, y);
  EXPECT_EQ(a.Predict(x), b.Predict(x));
}

TEST(RandomForestTest, RegressionAveragesTrees) {
  Rng rng(8);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.Uniform(-2, 2);
    x.push_back({a});
    y.push_back(3.0 * a + rng.Normal(0, 0.1));
  }
  ForestConfig fc;
  fc.regression = true;
  fc.num_trees = 10;
  RandomForest forest(fc);
  forest.Fit(x, y);
  EXPECT_GT(OneMinusRae(y, forest.Predict(x)), 0.8);
}

TEST(RandomForestTest, ScoreIsProbability) {
  Rows x;
  std::vector<double> y;
  MakeXor(150, &x, &y);
  RandomForest forest;
  forest.Fit(x, y);
  for (double s : forest.PredictScore(x)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}

TEST(RandomForestTest, ImportanceNormalized) {
  Rows x;
  std::vector<double> y;
  MakeXor(200, &x, &y);
  RandomForest forest;
  forest.Fit(x, y);
  double sum = 0;
  for (double v : forest.FeatureImportance()) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GradientBoostingTest, BinaryClassificationOnXor) {
  Rows x;
  std::vector<double> y;
  MakeXor(400, &x, &y);
  BoostingConfig bc;
  bc.num_rounds = 30;
  bc.max_depth = 3;
  GradientBoosting gb(bc);
  gb.Fit(x, y);
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.85);
}

TEST(GradientBoostingTest, RegressionReducesError) {
  Rng rng(10);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 250; ++i) {
    double a = rng.Uniform(-2, 2);
    x.push_back({a});
    y.push_back(a * a + rng.Normal(0, 0.05));
  }
  BoostingConfig bc;
  bc.regression = true;
  bc.num_rounds = 25;
  GradientBoosting gb(bc);
  gb.Fit(x, y);
  EXPECT_GT(OneMinusRae(y, gb.Predict(x)), 0.7);
}

TEST(GradientBoostingTest, MulticlassOneVsRest) {
  Rng rng(12);
  Rows x;
  std::vector<double> y;
  for (int i = 0; i < 300; ++i) {
    double a = rng.Uniform(0, 3);
    x.push_back({a});
    y.push_back(std::floor(a));
  }
  GradientBoosting gb;
  gb.Fit(x, y);
  EXPECT_GT(Accuracy(y, gb.Predict(x)), 0.85);
}

TEST(GradientBoostingDeathTest, RejectsInvalidClassificationLabels) {
  // static_cast<int>(label) silently truncated -1 and 0.5 onto class 0;
  // bad labels must fail loudly instead of training on garbage targets.
  Rows x = {{0.0}, {1.0}, {2.0}, {3.0}};
  GradientBoosting gb;
  EXPECT_DEATH(gb.Fit(x, {0.0, 1.0, -1.0, 1.0}), "non-negative");
  EXPECT_DEATH(gb.Fit(x, {0.0, 1.0, 0.5, 1.0}), "non-negative");
  EXPECT_DEATH(
      gb.Fit(x, {0.0, 1.0, std::numeric_limits<double>::quiet_NaN(), 1.0}),
      "non-negative");
}

TEST(GradientBoostingTest, RegressionAcceptsArbitraryTargets) {
  // The label check is classification-only: regression targets may be
  // negative or fractional.
  Rows x = {{0.0}, {1.0}, {2.0}, {3.0}};
  BoostingConfig bc;
  bc.regression = true;
  bc.num_rounds = 2;
  GradientBoosting gb(bc);
  gb.Fit(x, {-1.5, 0.25, -3.0, 2.5});
  EXPECT_EQ(gb.Predict(x).size(), 4u);
}

TEST(GradientBoostingTest, ScoresInUnitIntervalForClassification) {
  Rows x;
  std::vector<double> y;
  MakeXor(100, &x, &y);
  GradientBoosting gb;
  gb.Fit(x, y);
  for (double s : gb.PredictScore(x)) {
    EXPECT_GE(s, 0.0);
    EXPECT_LE(s, 1.0);
  }
}


TEST(RandomForestTest, ParallelMatchesSerial) {
  Rows x;
  std::vector<double> y;
  MakeXor(250, &x, &y);
  ForestConfig serial;
  serial.num_trees = 12;
  serial.seed = 77;
  ForestConfig parallel = serial;
  parallel.num_threads = 4;
  RandomForest a(serial), b(parallel);
  a.Fit(x, y);
  b.Fit(x, y);
  EXPECT_EQ(a.Predict(x), b.Predict(x));
  EXPECT_EQ(a.PredictScore(x), b.PredictScore(x));
  EXPECT_EQ(a.FeatureImportance(), b.FeatureImportance());
}

TEST(RandomForestTest, MoreThreadsThanTreesClamped) {
  Rows x;
  std::vector<double> y;
  MakeXor(100, &x, &y);
  ForestConfig fc;
  fc.num_trees = 3;
  fc.num_threads = 16;
  RandomForest forest(fc);
  forest.Fit(x, y);  // must not crash / deadlock
  EXPECT_EQ(forest.Predict(x).size(), x.size());
}

// ---------------------------------------------------------------------------
// Ranked split search vs the per-node pair sort it replaced.

double RefGini(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0.0;
  double gini = 1.0;
  for (double c : counts) {
    double p = c / total;
    gini -= p * p;
  }
  return gini;
}

// The pair-sort tree the ranked search replaced, copied verbatim as the
// exactness reference: every node sorts (value, label) pairs per candidate
// feature.
struct PairSortTree {
  TreeConfig config;
  int num_classes = 0;
  int num_features = 0;
  std::vector<DecisionTree::Node> nodes;
  std::vector<double> importance;

  void Fit(const Rows& x, const std::vector<double>& y) {
    num_features = static_cast<int>(x[0].size());
    nodes.clear();
    importance.assign(num_features, 0.0);
    if (config.regression) {
      num_classes = 0;
    } else {
      int max_label = 0;
      for (double v : y) max_label = std::max(max_label, static_cast<int>(v));
      num_classes = max_label + 1;
    }
    std::vector<int> rows(x.size());
    std::iota(rows.begin(), rows.end(), 0);
    Rng rng(config.seed);
    BuildNode(x, y, rows, 0, &rng);
    double total = 0.0;
    for (double v : importance) total += v;
    if (total > 0) {
      for (double& v : importance) v /= total;
    }
  }

  int BuildNode(const Rows& x, const std::vector<double>& y,
                std::vector<int>& rows, int depth, Rng* rng) {
    const int node_index = static_cast<int>(nodes.size());
    nodes.emplace_back();
    const double n = static_cast<double>(rows.size());
    double node_impurity = 0.0;
    if (config.regression) {
      std::vector<double> labels;
      for (int r : rows) labels.push_back(y[r]);
      double sum = 0.0, sumsq = 0.0;
      simd::SumAndSumSq(labels.data(), static_cast<int>(labels.size()), &sum,
                        &sumsq);
      double mean = sum / n;
      node_impurity = std::max(0.0, sumsq / n - mean * mean);
      nodes[node_index].value = {mean};
    } else {
      std::vector<double> counts(num_classes, 0.0);
      for (int r : rows) counts[static_cast<int>(y[r])] += 1.0;
      node_impurity = RefGini(counts, n);
      for (double& c : counts) c /= n;
      nodes[node_index].value = std::move(counts);
    }
    const bool can_split = depth < config.max_depth &&
                           static_cast<int>(rows.size()) >=
                               2 * config.min_samples_leaf &&
                           node_impurity > 1e-12;
    if (!can_split) return node_index;

    std::vector<int> candidates;
    if (config.max_features > 0 && config.max_features < num_features) {
      candidates =
          rng->SampleWithoutReplacement(num_features, config.max_features);
    } else {
      candidates.resize(num_features);
      std::iota(candidates.begin(), candidates.end(), 0);
    }
    int best_feature = -1;
    double best_threshold = 0.0;
    double best_gain = 1e-12;
    std::vector<std::pair<double, double>> pairs;
    std::vector<double> sorted_labels;
    for (int feature : candidates) {
      pairs.clear();
      for (int r : rows) pairs.emplace_back(x[r][feature], y[r]);
      std::sort(pairs.begin(), pairs.end());
      if (pairs.front().first == pairs.back().first) continue;
      if (config.regression) {
        sorted_labels.clear();
        for (const auto& [v, label] : pairs) sorted_labels.push_back(label);
        double left_sum = 0.0, left_sumsq = 0.0;
        double total_sum = 0.0, total_sumsq = 0.0;
        simd::SumAndSumSq(sorted_labels.data(),
                          static_cast<int>(sorted_labels.size()), &total_sum,
                          &total_sumsq);
        for (size_t i = 0; i + 1 < pairs.size(); ++i) {
          left_sum += pairs[i].second;
          left_sumsq += pairs[i].second * pairs[i].second;
          if (pairs[i].first == pairs[i + 1].first) continue;
          double nl = static_cast<double>(i + 1);
          double nr = n - nl;
          if (nl < config.min_samples_leaf || nr < config.min_samples_leaf) {
            continue;
          }
          double ml = left_sum / nl;
          double mr = (total_sum - left_sum) / nr;
          double vl = std::max(0.0, left_sumsq / nl - ml * ml);
          double vr =
              std::max(0.0, (total_sumsq - left_sumsq) / nr - mr * mr);
          double gain = node_impurity - (nl / n) * vl - (nr / n) * vr;
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = feature;
            best_threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
          }
        }
      } else {
        std::vector<double> left_counts(num_classes, 0.0);
        std::vector<double> total_counts(num_classes, 0.0);
        for (const auto& [v, label] : pairs) {
          total_counts[static_cast<int>(label)] += 1.0;
        }
        std::vector<double> right_counts = total_counts;
        for (size_t i = 0; i + 1 < pairs.size(); ++i) {
          int cls = static_cast<int>(pairs[i].second);
          left_counts[cls] += 1.0;
          right_counts[cls] -= 1.0;
          if (pairs[i].first == pairs[i + 1].first) continue;
          double nl = static_cast<double>(i + 1);
          double nr = n - nl;
          if (nl < config.min_samples_leaf || nr < config.min_samples_leaf) {
            continue;
          }
          double gain = node_impurity - (nl / n) * RefGini(left_counts, nl) -
                        (nr / n) * RefGini(right_counts, nr);
          if (gain > best_gain) {
            best_gain = gain;
            best_feature = feature;
            best_threshold = 0.5 * (pairs[i].first + pairs[i + 1].first);
          }
        }
      }
    }
    if (best_feature < 0) return node_index;

    std::vector<int> left_rows, right_rows;
    for (int r : rows) {
      (x[r][best_feature] <= best_threshold ? left_rows : right_rows)
          .push_back(r);
    }
    if (left_rows.empty() || right_rows.empty()) return node_index;
    importance[best_feature] += n * best_gain;
    int left = BuildNode(x, y, left_rows, depth + 1, rng);
    int right = BuildNode(x, y, right_rows, depth + 1, rng);
    nodes[node_index].feature = best_feature;
    nodes[node_index].threshold = best_threshold;
    nodes[node_index].left = left;
    nodes[node_index].right = right;
    nodes[node_index].is_leaf = false;
    return node_index;
  }
};

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Node features, threshold bits, leaf values and importances, bitwise.
void ExpectSameTree(const DecisionTree& got, const PairSortTree& want,
                    const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(got.num_classes(), want.num_classes);
  ASSERT_EQ(got.nodes().size(), want.nodes.size());
  for (size_t i = 0; i < want.nodes.size(); ++i) {
    const DecisionTree::Node& g = got.nodes()[i];
    const DecisionTree::Node& w = want.nodes[i];
    EXPECT_EQ(g.feature, w.feature) << "node " << i;
    EXPECT_EQ(g.left, w.left) << "node " << i;
    EXPECT_EQ(g.right, w.right) << "node " << i;
    EXPECT_EQ(g.is_leaf, w.is_leaf) << "node " << i;
    EXPECT_EQ(std::memcmp(&g.threshold, &w.threshold, sizeof(double)), 0)
        << "node " << i;
    EXPECT_TRUE(SameBits(g.value, w.value)) << "node " << i;
  }
  EXPECT_TRUE(SameBits(got.FeatureImportance(), want.importance));
}

// Six columns built to stress ties: continuous (all distinct), rounded to
// quarters, coarse integers, constant, signed zeros with ±1, and noise.
// Labels (classes, or partly rounded regression targets) include -0.0 beside
// 0.0.
void MakeTieHeavy(int n, int classes, uint64_t seed, Rows* x,
                  std::vector<double>* y) {
  Rng rng(seed);
  const double signed_units[] = {-0.0, 0.0, 1.0, -1.0};
  for (int i = 0; i < n; ++i) {
    double a = rng.Uniform(-1, 1);
    double quarter = std::round(4 * rng.Uniform(-1, 1)) / 4;
    double coarse = static_cast<double>(rng.UniformInt(4));
    double zeroish = signed_units[rng.UniformInt(4)];
    x->push_back({a, quarter, coarse, 2.5, zeroish, rng.Normal(0, 1)});
    double label;
    if (classes == 0) {
      // Half the targets rounded (ties), half not (so sums depend on order).
      label = a + 0.5 * zeroish + 0.3 * quarter + 0.1 * rng.Normal(0, 1);
      if (rng.Uniform() < 0.5) label = std::round(2 * label) / 2;
    } else {
      double score = (a + 1) / 2 + 0.2 * rng.Uniform(-1, 1) + 0.1 * coarse;
      label = std::clamp(std::floor(score * classes), 0.0,
                         static_cast<double>(classes - 1));
    }
    if (label == 0.0 && rng.Uniform() < 0.5) label = -0.0;
    y->push_back(label);
  }
}

TEST(DecisionTreeTest, RankedFitBitIdenticalToPairSortReference) {
  const int n = 240;
  int fits = 0;
  bool saw_comparison_sort = false, saw_counting_sort = false;
  for (int classes : {2, 4, 0}) {
    Rows x;
    std::vector<double> y;
    MakeTieHeavy(n, classes, 31 + classes, &x, &y);
    const RankedColumns table(x, y);
    Rng draw(5 + classes);
    for (bool bootstrap : {false, true}) {
      // A bootstrap-like row list with repeats, or every row once through
      // the Rows adapter.
      std::vector<int> rows(n);
      std::iota(rows.begin(), rows.end(), 0);
      if (bootstrap) {
        for (int& r : rows) r = draw.UniformInt(n);
      }
      Rows bx;
      std::vector<double> by;
      for (int r : rows) {
        bx.push_back(x[r]);
        by.push_back(y[r]);
      }
      for (int max_features : {0, 2}) {
        for (int min_leaf : {1, 2, 5}) {
          for (int depth = 1; depth <= 8; ++depth) {
            TreeConfig tc;
            tc.regression = classes == 0;
            tc.max_depth = depth;
            tc.min_samples_leaf = min_leaf;
            tc.max_features = max_features;
            tc.seed = 100 + depth;
            DecisionTree tree(tc);
            if (bootstrap) {
              tree.Fit(table, rows);
            } else {
              tree.Fit(x, y);
            }
            PairSortTree ref;
            ref.config = tc;
            ref.Fit(bx, by);
            ExpectSameTree(tree, ref,
                           "classes=" + std::to_string(classes) +
                               " bootstrap=" + std::to_string(bootstrap) +
                               " max_features=" +
                               std::to_string(max_features) +
                               " min_leaf=" + std::to_string(min_leaf) +
                               " depth=" + std::to_string(depth));
            ++fits;
            if (max_features != 0) continue;
            // Every split node sorted the all-distinct column 0: record
            // which side of the counting/comparison cutoff it fell on.
            std::vector<int> reach(tree.nodes().size(), 0);
            for (int r : rows) {
              int node = 0;
              ++reach[node];
              while (!tree.nodes()[node].is_leaf) {
                const DecisionTree::Node& split = tree.nodes()[node];
                node = x[r][split.feature] <= split.threshold ? split.left
                                                              : split.right;
                ++reach[node];
              }
            }
            for (size_t i = 0; i < reach.size(); ++i) {
              if (tree.nodes()[i].is_leaf) continue;
              (4 * reach[i] < table.num_ranks(0) ? saw_comparison_sort
                                                 : saw_counting_sort) = true;
            }
          }
        }
      }
    }
  }
  EXPECT_EQ(fits, 3 * 2 * 2 * 3 * 8);
  EXPECT_TRUE(saw_comparison_sort);
  EXPECT_TRUE(saw_counting_sort);
}

TEST(RandomForestTest, RankedFitBitIdenticalToRowCopyingReference) {
  for (int classes : {2, 4, 0}) {
    Rows x;
    std::vector<double> y;
    MakeTieHeavy(200, classes, 61 + classes, &x, &y);
    for (int threads : {1, 3}) {
      ForestConfig fc;
      fc.regression = classes == 0;
      fc.num_trees = 6;
      fc.max_depth = 6;
      fc.num_threads = threads;
      fc.seed = 9;
      RandomForest forest(fc);
      forest.Fit(x, y);
      ASSERT_EQ(forest.trees().size(), 6u);

      // The forest's bootstrap loop before index lists: copy each drawn row.
      Rng rng(fc.seed);
      const int n = static_cast<int>(x.size());
      for (int t = 0; t < fc.num_trees; ++t) {
        Rows bx;
        std::vector<double> by;
        bool has_positive = false;
        for (int i = 0; i < n; ++i) {
          int r = rng.UniformInt(n);
          bx.push_back(x[r]);
          by.push_back(y[r]);
          has_positive |= (y[r] > 0.5);
        }
        if (!fc.regression && !has_positive) {
          for (int r = 0; r < n; ++r) {
            if (y[r] > 0.5) {
              bx.push_back(x[r]);
              by.push_back(y[r]);
              break;
            }
          }
        }
        TreeConfig tc;
        tc.regression = fc.regression;
        tc.max_depth = fc.max_depth;
        tc.min_samples_leaf = fc.min_samples_leaf;
        tc.max_features = 2;  // sqrt(6 features)
        tc.seed = DeriveSeed(fc.seed, static_cast<uint64_t>(t) + 1);
        PairSortTree ref;
        ref.config = tc;
        ref.Fit(bx, by);
        ExpectSameTree(forest.trees()[t], ref,
                       "classes=" + std::to_string(classes) + " threads=" +
                           std::to_string(threads) + " tree=" +
                           std::to_string(t));
      }
    }
  }
}

TEST(DecisionTreeDeathTest, RejectsNonFiniteInputs) {
  // NaN breaks the (value, label) order std::sort needs, so ranking
  // rejects it, and infinities with it, for every tree-based model.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> y = {0.0, 1.0, 0.0, 1.0};
  DecisionTree tree;
  EXPECT_DEATH(tree.Fit({{0.0}, {nan}, {2.0}, {3.0}}, y), "finite");
  EXPECT_DEATH(tree.Fit({{0.0}, {1.0}, {-inf}, {3.0}}, y), "finite");
  TreeConfig tc;
  tc.regression = true;
  DecisionTree regressor(tc);
  EXPECT_DEATH(regressor.Fit({{0.0}, {1.0}, {2.0}, {3.0}}, {0.0, nan, 1.0, 2.0}),
               "finite");
  RandomForest forest;
  EXPECT_DEATH(forest.Fit({{0.0}, {1.0}, {2.0}, {inf}}, y), "finite");
  BoostingConfig bc;
  bc.regression = true;
  GradientBoosting gb(bc);
  EXPECT_DEATH(gb.Fit({{0.0}, {1.0}, {2.0}, {3.0}}, {0.0, 1.0, inf, 2.0}),
               "finite");
}

}  // namespace
}  // namespace fastft
