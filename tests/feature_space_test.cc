// Tests for the FeatureSpace: crossing, hygiene, budget, reset.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/feature_space.h"
#include "core/mutual_information.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

Dataset SmallDataset(int samples = 120, int features = 6) {
  SyntheticSpec spec;
  spec.samples = samples;
  spec.features = features;
  spec.seed = 21;
  return MakeClassification(spec);
}

TEST(FeatureSpaceTest, StartsWithOriginals) {
  Dataset ds = SmallDataset();
  FeatureSpace space(ds);
  EXPECT_EQ(space.NumColumns(), ds.NumFeatures());
  EXPECT_EQ(space.NumOriginals(), ds.NumFeatures());
  EXPECT_EQ(space.NumGenerated(), 0);
  EXPECT_TRUE(IsLeaf(space.Expression(0)));
  EXPECT_EQ(space.ColumnName(0), "f0");
}

TEST(FeatureSpaceTest, UnaryCrossAddsPerHeadColumn) {
  FeatureSpace space(SmallDataset());
  Rng rng(1);
  int added = space.ApplyOperation(OpType::kSquare, {0, 1}, {}, &rng);
  EXPECT_EQ(added, 2);
  EXPECT_EQ(space.NumGenerated(), 2);
  // Values really are squares.
  const auto& base = space.Values(0);
  const auto& squared = space.Values(space.NumOriginals());
  for (size_t i = 0; i < base.size(); ++i) {
    EXPECT_NEAR(squared[i], base[i] * base[i], 1e-9);
  }
}

TEST(FeatureSpaceTest, BinaryCrossIsGroupWise) {
  FeatureSpace space(SmallDataset());
  Rng rng(2);
  int added = space.ApplyOperation(OpType::kAdd, {0, 1}, {2, 3}, &rng);
  EXPECT_EQ(added, 4);  // |head| × |tail|
}

TEST(FeatureSpaceTest, PerStepCapSamplesPairs) {
  FeatureSpaceConfig cfg;
  cfg.max_new_per_step = 3;
  FeatureSpace space(SmallDataset(), cfg);
  Rng rng(3);
  int added = space.ApplyOperation(OpType::kMul, {0, 1, 2}, {3, 4, 5}, &rng);
  EXPECT_LE(added, 3);
}

TEST(FeatureSpaceTest, DuplicateExpressionsRejected) {
  FeatureSpace space(SmallDataset());
  Rng rng(4);
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 1);
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 0);
}

TEST(FeatureSpaceTest, NumericallyIdenticalColumnsRejected) {
  FeatureSpace space(SmallDataset());
  Rng rng(5);
  // f0 + f1 == f1 + f0 numerically; the second must be rejected by value
  // hash even though the expressions differ.
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {0}, {1}, &rng), 1);
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {1}, {0}, &rng), 0);
}

TEST(FeatureSpaceTest, SelfSubAndDivSkipped) {
  FeatureSpace space(SmallDataset());
  Rng rng(6);
  // f0 - f0 is constant zero → both the pair filter and the constant filter
  // reject it.
  EXPECT_EQ(space.ApplyOperation(OpType::kSub, {0}, {0}, &rng), 0);
  EXPECT_EQ(space.ApplyOperation(OpType::kDiv, {0}, {0}, &rng), 0);
}

TEST(FeatureSpaceTest, DepthLimitBlocksDeepTrees) {
  FeatureSpaceConfig cfg;
  cfg.max_expr_depth = 2;
  FeatureSpace space(SmallDataset(), cfg);
  Rng rng(7);
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 1);
  int deep_col = space.NumColumns() - 1;
  // square(square(f0)) has depth 3 > 2.
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {deep_col}, {}, &rng), 0);
}

TEST(FeatureSpaceTest, BudgetKeepsOriginals) {
  Dataset ds = SmallDataset(100, 6);
  FeatureSpaceConfig cfg;
  cfg.max_features = 10;
  cfg.max_new_per_step = 12;
  FeatureSpace space(ds, cfg);
  Rng rng(8);
  for (int i = 0; i < 6; ++i) {
    space.ApplyOperation(OpType::kMul, {0, 1, 2}, {3, 4, 5}, &rng);
    space.ApplyOperation(OpFromIndex(i % kNumUnaryOperations), {0, 1, 2, 3},
                         {}, &rng);
  }
  EXPECT_LE(space.NumColumns(), 10);
  EXPECT_EQ(space.NumOriginals(), 6);
  for (int c = 0; c < 6; ++c) EXPECT_TRUE(IsLeaf(space.Expression(c)));
}

TEST(FeatureSpaceTest, ResetRestoresOriginals) {
  FeatureSpace space(SmallDataset());
  Rng rng(9);
  space.ApplyOperation(OpType::kSquare, {0, 1}, {}, &rng);
  EXPECT_GT(space.NumGenerated(), 0);
  space.Reset();
  EXPECT_EQ(space.NumGenerated(), 0);
  // Dedup hashes also reset: the same op can be applied again.
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {0}, {}, &rng), 1);
}

TEST(FeatureSpaceTest, ToDatasetSharesLabelsAndNames) {
  Dataset ds = SmallDataset();
  FeatureSpace space(ds);
  Rng rng(10);
  space.ApplyOperation(OpType::kAdd, {0}, {1}, &rng);
  Dataset out = space.ToDataset();
  EXPECT_EQ(out.labels, ds.labels);
  EXPECT_EQ(out.NumFeatures(), ds.NumFeatures() + 1);
  EXPECT_EQ(out.features.Name(out.NumFeatures() - 1), "(f0+f1)");
  EXPECT_TRUE(out.Validate().ok());
}

TEST(FeatureSpaceTest, SequenceTokensTrackGenerated) {
  FeatureSpace space(SmallDataset());
  Tokenizer tok;
  Rng rng(11);
  EXPECT_EQ(space.SequenceTokens(tok).size(), 2u);  // BOS EOS
  space.ApplyOperation(OpType::kSquare, {0}, {}, &rng);
  EXPECT_GT(space.SequenceTokens(tok).size(), 2u);
}

TEST(FeatureSpaceTest, CachedStatsMatchDirectComputation) {
  FeatureSpace space(SmallDataset());
  const Summary& s = space.ColumnSummary(2);
  Summary direct = Summarize(space.Values(2));
  EXPECT_DOUBLE_EQ(s.mean, direct.mean);
  EXPECT_DOUBLE_EQ(s.max, direct.max);
  EXPECT_EQ(space.BinnedValues(2).size(), space.Values(2).size());
  EXPECT_GE(space.LabelRelevance(2), 0.0);
}

TEST(FeatureSpaceTest, GeneratedExpressionsInOrder) {
  FeatureSpace space(SmallDataset());
  Rng rng(12);
  space.ApplyOperation(OpType::kSquare, {0}, {}, &rng);
  space.ApplyOperation(OpType::kSqrtAbs, {1}, {}, &rng);
  std::vector<ExprPtr> exprs = space.GeneratedExpressions();
  ASSERT_EQ(exprs.size(), 2u);
  EXPECT_EQ(ExprToString(exprs[0]), "square(f0)");
  EXPECT_EQ(ExprToString(exprs[1]), "sqrt(f1)");
}

// Every pairwise redundancy `space` reports equals a fresh MI of the two
// columns' values (lower index first).
void ExpectRedundancyFresh(const FeatureSpace& space) {
  for (int j = 1; j < space.NumColumns(); ++j) {
    const std::vector<int> bj =
        QuantileBin(space.Values(j), FeatureSpace::kMiBins);
    for (int i = 0; i < j; ++i) {
      ASSERT_EQ(space.Redundancy(i, j),
                DiscreteMutualInformation(
                    QuantileBin(space.Values(i), FeatureSpace::kMiBins), bj))
          << "pair (" << i << ", " << j << ")";
    }
  }
}

// Everything observable about a space's columns and their cached MI.
void ExpectSameSpace(const FeatureSpace& a, const FeatureSpace& b) {
  ASSERT_EQ(a.NumColumns(), b.NumColumns());
  for (int c = 0; c < a.NumColumns(); ++c) {
    EXPECT_EQ(a.Values(c), b.Values(c));
    EXPECT_EQ(ExprToString(a.Expression(c)), ExprToString(b.Expression(c)));
    EXPECT_EQ(a.LabelRelevance(c), b.LabelRelevance(c));
    EXPECT_EQ(a.BinnedValues(c), b.BinnedValues(c));
    for (int i = 0; i < c; ++i) {
      EXPECT_EQ(a.Redundancy(i, c), b.Redundancy(i, c));
    }
  }
}

// Property: through a random walk of crossings, budget trims and resets,
// the lazily filled redundancy cache always equals a fresh computation, and
// clustering from the caches equals clustering the materialized frame.
TEST(FeatureSpaceTest, RedundancyCacheMatchesFreshMiThroughTrimsAndResets) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    SyntheticSpec spec;
    spec.samples = 90;
    spec.features = 6;
    spec.seed = seed;
    const Dataset ds =
        seed % 2 == 0 ? MakeRegression(spec) : MakeClassification(spec);
    FeatureSpaceConfig cfg;
    cfg.max_features = 14;
    cfg.max_new_per_step = 5;
    FeatureSpace space(ds, cfg);
    Rng rng(seed);
    int trims = 0;
    for (int step = 0; step < 60; ++step) {
      if (step % 15 == 14) {
        space.Reset();
        FeatureSpace fresh(ds, cfg);
        ExpectSameSpace(space, fresh);
        // Dedup state is back too: both accept the same candidates.
        OpType op = OpFromIndex(rng.UniformInt(kNumOperations));
        std::vector<int> tail;
        if (!IsUnary(op)) tail = {0, 1, 2};
        Rng rng_fresh = rng;
        EXPECT_EQ(space.ApplyOperation(op, {3, 4, 5}, tail, &rng),
                  fresh.ApplyOperation(op, {3, 4, 5}, tail, &rng_fresh));
        ExpectSameSpace(space, fresh);
        continue;
      }
      OpType op = OpFromIndex(rng.UniformInt(kNumOperations));
      std::vector<int> head, tail;
      for (int k = 0; k < 3; ++k) {
        head.push_back(rng.UniformInt(space.NumColumns()));
        if (!IsUnary(op)) tail.push_back(rng.UniformInt(space.NumColumns()));
      }
      const int before = space.NumColumns();
      const int added = space.ApplyOperation(op, head, tail, &rng);
      if (before + added > space.NumColumns()) ++trims;
      // Leave some rows cold or partly filled so trims compact every kind.
      switch (rng.UniformInt(3)) {
        case 0: {
          ExpectRedundancyFresh(space);
          Dataset current = space.ToDataset();
          EXPECT_EQ(ClusterFeatures(space),
                    ClusterFeatures(current.features, current.labels,
                                    current.task));
          break;
        }
        case 1:
          for (int k = 0; k < 10 && space.NumColumns() > 1; ++k) {
            const int j = 1 + rng.UniformInt(space.NumColumns() - 1);
            (void)space.Redundancy(rng.UniformInt(j), j);
          }
          break;
        default:
          break;
      }
    }
    ExpectRedundancyFresh(space);
    EXPECT_GT(trims, 3) << "the walk must push past the budget";
  }
}

// Dedup keys are fixed when a column is created. A budget trim or a reset
// drops the removed columns' keys and keeps every survivor's.
TEST(FeatureSpaceTest, TrimmedColumnsKeysGoSurvivorsKeysStay) {
  FeatureSpaceConfig cfg;
  cfg.max_features = 7;  // the 6 originals and one generated column
  FeatureSpace space(SmallDataset(), cfg);
  Rng rng(13);
  ASSERT_EQ(space.ApplyOperation(OpType::kAdd, {0, 1}, {2}, &rng), 2);
  ASSERT_EQ(space.NumColumns(), 7);
  const std::string survivor = ExprToString(space.Expression(6));
  ASSERT_TRUE(survivor == "(f0+f2)" || survivor == "(f1+f2)") << survivor;
  const int kept = survivor == "(f0+f2)" ? 0 : 1;
  const int trimmed = 1 - kept;

  // The trimmed column's keys are gone: the same column is accepted again
  // (and trimmed again, the survivor being the more relevant one).
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {trimmed}, {2}, &rng), 1);
  ASSERT_EQ(ExprToString(space.Expression(6)), survivor);
  // So is a value-identical twin under another expression.
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {2}, {trimmed}, &rng), 1);
  ASSERT_EQ(ExprToString(space.Expression(6)), survivor);

  // The survivor's keys stay: same expression, same values, and (depth 3)
  // an increasing transform of it are all rejected.
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {kept}, {2}, &rng), 0);
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {2}, {kept}, &rng), 0);
  EXPECT_EQ(space.ApplyOperation(OpType::kCube, {6}, {}, &rng), 0);
  // Control: a depth-3 transform that is not monotone passes.
  EXPECT_EQ(space.ApplyOperation(OpType::kSquare, {6}, {}, &rng), 1);
  for (int c = 0; c < space.NumColumns(); ++c) {
    EXPECT_EQ(space.BinnedValues(c),
              QuantileBin(space.Values(c), FeatureSpace::kMiBins));
  }

  // After a reset only the originals' keys remain: every generated column
  // is new again, and the keys of columns added after it still reject.
  space.Reset();
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {kept}, {2}, &rng), 1);
  space.Reset();
  EXPECT_EQ(space.ApplyOperation(OpType::kAdd, {2}, {kept}, &rng), 1);
  space.Reset();
  ASSERT_EQ(space.ApplyOperation(OpType::kCube, {5}, {}, &rng), 1);
  EXPECT_EQ(space.ApplyOperation(OpType::kCube, {6}, {}, &rng), 0);
}

TEST(FeatureSpaceTest, RepairReplacesNonFiniteWithFiniteMedian) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {4.0, nan, 1.0, -inf, 3.0, inf, 10.0};
  ASSERT_TRUE(RepairNonFinite(&values));
  // Median of {1, 3, 4, 10} is 3.5 (the mean would be 4.5).
  EXPECT_EQ(values,
            (std::vector<double>{4.0, 3.5, 1.0, 3.5, 3.0, 3.5, 10.0}));

  std::vector<double> clean = {3.0, -1.0, 2.0};
  ASSERT_TRUE(RepairNonFinite(&clean));
  EXPECT_EQ(clean, (std::vector<double>{3.0, -1.0, 2.0}));

  // floor(n / 2) finite entries are enough; fewer are rejected, and the
  // column is left as it was.
  std::vector<double> half = {1.0, nan, 9.0, inf, -inf, 2.0, nan};
  EXPECT_TRUE(RepairNonFinite(&half));
  EXPECT_EQ(half, (std::vector<double>{1.0, 2.0, 9.0, 2.0, 2.0, 2.0, 2.0}));
  std::vector<double> sparse = {1.0, nan, inf, -inf, nan, 5.0};
  EXPECT_FALSE(RepairNonFinite(&sparse));
  EXPECT_EQ(sparse[0], 1.0);
  EXPECT_TRUE(std::isnan(sparse[1]));
  EXPECT_EQ(sparse[2], inf);
  EXPECT_EQ(sparse[5], 5.0);
}

// QuantileBinFromOrder gives QuantileBin's codes for any ascending order,
// whichever way it breaks ties, -0.0 against 0.0 included.
TEST(FeatureSpaceTest, SharedOrderBinningMatchesQuantileBin) {
  Rng rng(14);
  std::vector<std::vector<double>> columns;
  for (int levels : {2, 3, 5, 40}) {
    std::vector<double> v(97);
    for (double& x : v) x = rng.UniformInt(levels);
    columns.push_back(v);
  }
  std::vector<double> zeros(64);
  const double signed_values[] = {-0.0, 0.0, -1.0, 1.0};
  for (double& x : zeros) x = signed_values[rng.UniformInt(4)];
  columns.push_back(zeros);
  columns.push_back({-0.0, 0.0, -0.0, 0.0, 0.0, -0.0, 2.0, -2.0});
  for (const std::vector<double>& values : columns) {
    std::vector<size_t> by_index(values.size());
    std::iota(by_index.begin(), by_index.end(), 0);
    std::vector<size_t> reversed = by_index;
    std::stable_sort(by_index.begin(), by_index.end(), [&](size_t a,
                                                           size_t b) {
      return values[a] < values[b];
    });
    // Ties by descending index, and -0.0 before 0.0 where they tie.
    std::sort(reversed.begin(), reversed.end(), [&](size_t a, size_t b) {
      if (values[a] != values[b]) return values[a] < values[b];
      if (std::signbit(values[a]) != std::signbit(values[b])) {
        return std::signbit(values[a]);
      }
      return a > b;
    });
    for (int bins : {FeatureSpace::kMiBins, 16}) {
      const std::vector<int> expected = QuantileBin(values, bins);
      EXPECT_EQ(QuantileBinFromOrder(values, AscendingOrder(values), bins),
                expected);
      EXPECT_EQ(QuantileBinFromOrder(values, by_index, bins), expected);
      EXPECT_EQ(QuantileBinFromOrder(values, reversed, bins), expected);
    }
  }
}

TEST(FeatureSpaceTest, BudgetBelowOriginalsChecks) {
  Dataset ds = SmallDataset(50, 6);
  FeatureSpaceConfig cfg;
  cfg.max_features = 3;  // fewer than the 6 originals
  EXPECT_DEATH(FeatureSpace(ds, cfg), "budget");
}

}  // namespace
}  // namespace fastft
