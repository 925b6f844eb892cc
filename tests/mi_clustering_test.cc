// Tests for mutual information estimation and Eq. 2 clustering.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>

#include "common/rng.h"
#include "core/clustering.h"
#include "core/mutual_information.h"
#include "data/synthetic.h"

namespace fastft {
namespace {

TEST(QuantileBinTest, BalancedBins) {
  std::vector<double> v(100);
  for (int i = 0; i < 100; ++i) v[i] = i;
  std::vector<int> bins = QuantileBin(v, 4);
  int counts[4] = {0, 0, 0, 0};
  for (int b : bins) {
    ASSERT_GE(b, 0);
    ASSERT_LT(b, 4);
    ++counts[b];
  }
  for (int c : counts) EXPECT_EQ(c, 25);
}

TEST(QuantileBinTest, TiesStayTogether) {
  std::vector<double> v = {1, 1, 1, 1, 2, 2, 2, 2};
  std::vector<int> bins = QuantileBin(v, 4);
  // All 1s share a bin; all 2s share a bin.
  for (int i = 1; i < 4; ++i) EXPECT_EQ(bins[i], bins[0]);
  for (int i = 5; i < 8; ++i) EXPECT_EQ(bins[i], bins[4]);
  EXPECT_NE(bins[0], bins[4]);
}

TEST(MiTest, IdenticalVariablesHaveMaxMi) {
  Rng rng(1);
  std::vector<double> x(500);
  for (double& v : x) v = rng.Normal();
  double self = EstimateMI(x, x, 8);
  EXPECT_NEAR(self, std::log(8.0), 0.15);  // H(uniform over 8 bins)
}

TEST(MiTest, IndependentVariablesNearZero) {
  Rng rng(2);
  std::vector<double> x(2000), y(2000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = rng.Normal();
  }
  EXPECT_LT(EstimateMI(x, y, 8), 0.05);
}

TEST(MiTest, MonotoneTransformPreservesMi) {
  Rng rng(3);
  std::vector<double> x(1000), y(1000);
  for (size_t i = 0; i < x.size(); ++i) {
    x[i] = rng.Normal();
    y[i] = std::exp(x[i]);
  }
  // Quantile binning is invariant to monotone transforms.
  EXPECT_NEAR(EstimateMI(x, y, 8), std::log(8.0), 0.15);
}

TEST(MiTest, NonNegative) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> x(100), y(100);
    for (size_t i = 0; i < x.size(); ++i) {
      x[i] = rng.Normal();
      y[i] = rng.Normal();
    }
    EXPECT_GE(EstimateMI(x, y), 0.0);
  }
}

// The double-histogram DiscreteMutualInformation the integer-counting one
// replaced, kept verbatim as the bitwise reference.
double ReferenceDiscreteMutualInformation(const std::vector<int>& a,
                                          const std::vector<int>& b) {
  const double n = static_cast<double>(a.size());
  if (a.empty()) return 0.0;
  int max_a = 0, max_b = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    max_a = std::max(max_a, a[i]);
    max_b = std::max(max_b, b[i]);
  }
  const int ka = max_a + 1, kb = max_b + 1;
  std::vector<double> pa(ka, 0.0), pb(kb, 0.0);
  std::vector<double> joint(static_cast<size_t>(ka) * kb, 0.0);
  for (size_t i = 0; i < a.size(); ++i) {
    pa[a[i]] += 1.0;
    pb[b[i]] += 1.0;
    joint[static_cast<size_t>(a[i]) * kb + b[i]] += 1.0;
  }
  double mi = 0.0;
  for (int x = 0; x < ka; ++x) {
    if (pa[x] == 0.0) continue;
    for (int y = 0; y < kb; ++y) {
      double pxy = joint[static_cast<size_t>(x) * kb + y];
      if (pxy == 0.0) continue;
      mi += (pxy / n) * std::log(pxy * n / (pa[x] * pb[y]));
    }
  }
  return std::max(0.0, mi);
}

// Codes in [0, bins): uniform, or skewed (each code taken with half the
// probability of the one below it).
std::vector<int> RandomCodes(Rng* rng, size_t n, int bins, bool skewed) {
  std::vector<int> out(n);
  for (int& code : out) {
    if (skewed) {
      code = 0;
      while (code + 1 < bins && rng->Bernoulli(0.5)) ++code;
    } else {
      code = rng->UniformInt(bins);
    }
  }
  return out;
}

TEST(MiTest, DiscreteMiBitIdenticalToDoubleHistogramReference) {
  Rng rng(17);
  struct Case {
    int bins_a, bins_b;
    bool skewed;
  };
  // 2/8/20 bins, skewed marginals, unequal bin counts, and a code range
  // wide enough to leave the fixed-size counting table.
  const std::vector<Case> cases = {{2, 2, false},  {8, 8, false},
                                   {20, 20, false}, {8, 8, true},
                                   {20, 20, true},  {3, 17, false},
                                   {17, 3, true},   {2, 20, false},
                                   {40, 40, false}, {1, 8, false}};
  for (const Case& c : cases) {
    for (size_t n : {1u, 7u, 160u, 900u}) {
      for (int trial = 0; trial < 5; ++trial) {
        std::vector<int> a = RandomCodes(&rng, n, c.bins_a, c.skewed);
        std::vector<int> b = RandomCodes(&rng, n, c.bins_b, c.skewed);
        EXPECT_EQ(DiscreteMutualInformation(a, b),
                  ReferenceDiscreteMutualInformation(a, b))
            << c.bins_a << "x" << c.bins_b << " skewed=" << c.skewed
            << " n=" << n;
        // Correlated pair: b partly copies a.
        for (size_t i = 0; i < n; ++i) {
          if (rng.Bernoulli(0.6)) b[i] = a[i] % c.bins_b;
        }
        EXPECT_EQ(DiscreteMutualInformation(a, b),
                  ReferenceDiscreteMutualInformation(a, b));
      }
    }
  }
  EXPECT_EQ(DiscreteMutualInformation({}, {}), 0.0);
}

TEST(MiTest, DiscreteMiRejectsNegativeCodes) {
  EXPECT_DEATH(DiscreteMutualInformation({0, 1, -1}, {0, 1, 1}),
               "non-negative");
}

TEST(MiTest, LabelRelevanceClassification) {
  // Feature equal to the class label has high MI; noise has low MI.
  Rng rng(5);
  std::vector<double> labels(600), signal(600), noise(600);
  for (size_t i = 0; i < labels.size(); ++i) {
    labels[i] = rng.UniformInt(2);
    signal[i] = labels[i] + rng.Normal(0, 0.05);
    noise[i] = rng.Normal();
  }
  double s = EstimateMIWithLabel(signal, labels, TaskType::kClassification);
  double n = EstimateMIWithLabel(noise, labels, TaskType::kClassification);
  EXPECT_GT(s, 5 * n + 0.1);
}

TEST(MiTest, TopKByRelevancePicksSignal) {
  SyntheticSpec spec;
  spec.samples = 300;
  spec.features = 6;
  Dataset ds = MakeClassification(spec);
  // Append a copy of the labels as a feature: it must rank first.
  DataFrame f = ds.features;
  ASSERT_TRUE(f.AddColumn("leak", ds.labels).ok());
  std::vector<int> top = TopKByRelevance(f, ds.labels, ds.task, 3);
  EXPECT_EQ(top.size(), 3u);
  EXPECT_TRUE(std::find(top.begin(), top.end(), 6) != top.end());
}

TEST(ClusteringTest, CoversAllFeaturesDisjointly) {
  SyntheticSpec spec;
  spec.samples = 200;
  spec.features = 10;
  Dataset ds = MakeClassification(spec);
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task);
  std::set<int> seen;
  for (const auto& cluster : clusters) {
    for (int f : cluster) {
      EXPECT_TRUE(seen.insert(f).second) << "feature in two clusters";
    }
  }
  EXPECT_EQ(static_cast<int>(seen.size()), ds.NumFeatures());
}

TEST(ClusteringTest, DuplicatedFeaturesMerge) {
  // Two identical columns are maximally redundant with equal relevance →
  // distance ~0, so they must merge.
  Rng rng(6);
  DataFrame f;
  std::vector<double> a(300), b(300), labels(300);
  for (int i = 0; i < 300; ++i) {
    a[i] = rng.Normal();
    b[i] = a[i];
    labels[i] = rng.UniformInt(2);
  }
  ASSERT_TRUE(f.AddColumn("a", a).ok());
  ASSERT_TRUE(f.AddColumn("dup", b).ok());
  std::vector<double> c(300);
  for (int i = 0; i < 300; ++i) c[i] = labels[i] + rng.Normal(0, 0.1);
  ASSERT_TRUE(f.AddColumn("signal", c).ok());
  ClusteringConfig cfg;
  cfg.distance_threshold = 2.0;
  auto clusters = ClusterFeatures(f, labels, TaskType::kClassification, cfg);
  // Find the cluster holding feature 0; it must also hold feature 1.
  for (const auto& cluster : clusters) {
    bool has0 = std::find(cluster.begin(), cluster.end(), 0) != cluster.end();
    bool has1 = std::find(cluster.begin(), cluster.end(), 1) != cluster.end();
    if (has0 || has1) {
      EXPECT_EQ(has0, has1);
    }
  }
}

TEST(ClusteringTest, MinClustersRespected) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 8;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.distance_threshold = 1e9;  // merge-everything pressure
  cfg.min_clusters = 3;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  EXPECT_GE(static_cast<int>(clusters.size()), 3);
}

TEST(ClusteringTest, MaxClustersCapsActionSpace) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 20;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.distance_threshold = 0.0;  // no natural merging
  cfg.max_clusters = 5;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  EXPECT_LE(static_cast<int>(clusters.size()), 5);
}

TEST(ClusteringTest, FeatureSpaceOverloadMatchesFrameOverload) {
  SyntheticSpec spec;
  spec.samples = 150;
  spec.features = 8;
  Dataset ds = MakeClassification(spec);
  FeatureSpace space(ds);
  auto a = ClusterFeatures(space);
  auto b = ClusterFeatures(ds.features, ds.labels, ds.task);
  EXPECT_EQ(a, b);
}

TEST(ClusteringTest, FeatureSpaceBinCountIsTheClusteringDefault) {
  EXPECT_EQ(ClusteringConfig{}.mi_bins, FeatureSpace::kMiBins);
  SyntheticSpec spec;
  spec.samples = 120;
  spec.features = 4;
  for (TaskType task : {TaskType::kClassification, TaskType::kRegression}) {
    Dataset ds = task == TaskType::kRegression ? MakeRegression(spec)
                                               : MakeClassification(spec);
    FeatureSpace space(ds);
    for (int c = 0; c < space.NumColumns(); ++c) {
      EXPECT_EQ(space.BinnedValues(c),
                QuantileBin(space.Values(c), FeatureSpace::kMiBins));
      EXPECT_EQ(space.LabelRelevance(c),
                EstimateMIWithLabel(space.Values(c), ds.labels, ds.task,
                                    FeatureSpace::kMiBins));
    }
  }
}

TEST(ClusteringTest, FeatureSpaceOverloadRequiresSpaceBinCount) {
  SyntheticSpec spec;
  spec.samples = 80;
  spec.features = 5;
  FeatureSpace space(MakeClassification(spec));
  ClusteringConfig cfg;
  cfg.mi_bins = 16;
  EXPECT_DEATH(ClusterFeatures(space, cfg), "fixed bin count");
}

TEST(ClusteringTest, SingleFeatureSingleCluster) {
  DataFrame f;
  ASSERT_TRUE(f.AddColumn("only", {1, 2, 3, 4, 5}).ok());
  auto clusters =
      ClusterFeatures(f, {0, 1, 0, 1, 0}, TaskType::kClassification);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], std::vector<int>{0});
}


TEST(ClusterModeTest, SingletonModeOneFeaturePerCluster) {
  SyntheticSpec spec;
  spec.samples = 100;
  spec.features = 9;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.mode = ClusterMode::kSingleton;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  ASSERT_EQ(clusters.size(), 9u);
  for (const auto& cluster : clusters) EXPECT_EQ(cluster.size(), 1u);
}

TEST(ClusterModeTest, RandomModePartitionsAllFeatures) {
  SyntheticSpec spec;
  spec.samples = 100;
  spec.features = 12;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig cfg;
  cfg.mode = ClusterMode::kRandom;
  cfg.max_clusters = 4;
  auto clusters = ClusterFeatures(ds.features, ds.labels, ds.task, cfg);
  EXPECT_LE(clusters.size(), 4u);
  std::set<int> seen;
  for (const auto& cluster : clusters) {
    for (int f : cluster) EXPECT_TRUE(seen.insert(f).second);
  }
  EXPECT_EQ(seen.size(), 12u);
}

TEST(ClusterModeTest, RandomModeDeterministicPerSeed) {
  SyntheticSpec spec;
  spec.samples = 80;
  spec.features = 10;
  Dataset ds = MakeClassification(spec);
  ClusteringConfig a;
  a.mode = ClusterMode::kRandom;
  a.random_seed = 5;
  ClusteringConfig b = a;
  EXPECT_EQ(ClusterFeatures(ds.features, ds.labels, ds.task, a),
            ClusterFeatures(ds.features, ds.labels, ds.task, b));
  b.random_seed = 6;
  EXPECT_NE(ClusterFeatures(ds.features, ds.labels, ds.task, a),
            ClusterFeatures(ds.features, ds.labels, ds.task, b));
}

TEST(ClusterModeTest, FeatureSpaceOverloadHonorsMode) {
  SyntheticSpec spec;
  spec.samples = 80;
  spec.features = 7;
  FeatureSpace space(MakeClassification(spec));
  ClusteringConfig cfg;
  cfg.mode = ClusterMode::kSingleton;
  EXPECT_EQ(ClusterFeatures(space, cfg).size(), 7u);
}

}  // namespace
}  // namespace fastft
