#include "core/clustering.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "core/mutual_information.h"

namespace fastft {
namespace {

// Pairwise Eq. 2 numerator/denominator pieces cached per feature pair.
struct PairwiseMi {
  std::vector<double> relevance;          // MI(Fi, y)
  std::vector<std::vector<double>> redundancy;  // MI(Fi, Fj)
};

PairwiseMi ComputePairwise(const DataFrame& frame,
                           const std::vector<double>& labels, TaskType task,
                           int bins) {
  const int d = frame.NumCols();
  PairwiseMi out;
  out.relevance = FeatureRelevance(frame, labels, task, bins);
  // Pre-bin columns once.
  std::vector<std::vector<int>> binned(d);
  for (int c = 0; c < d; ++c) binned[c] = QuantileBin(frame.Col(c), bins);
  out.redundancy.assign(d, std::vector<double>(d, 0.0));
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) {
      double mi = DiscreteMutualInformation(binned[i], binned[j]);
      out.redundancy[i][j] = mi;
      out.redundancy[j][i] = mi;
    }
  }
  return out;
}

double ClusterDistance(const std::vector<int>& a, const std::vector<int>& b,
                       const PairwiseMi& mi, double varsigma) {
  double total = 0.0;
  for (int fi : a) {
    for (int fj : b) {
      total += std::abs(mi.relevance[fi] - mi.relevance[fj]) /
               (mi.redundancy[fi][fj] + varsigma);
    }
  }
  return total / (static_cast<double>(a.size()) *
                  static_cast<double>(b.size()));
}

void MergeClusters(std::vector<std::vector<int>>* clusters,
                   const PairwiseMi& mi, const ClusteringConfig& config) {
  auto merge_closest = [&](bool respect_threshold) -> bool {
    if (static_cast<int>(clusters->size()) <= config.min_clusters) {
      return false;
    }
    double best = std::numeric_limits<double>::infinity();
    int bi = -1, bj = -1;
    for (size_t i = 0; i < clusters->size(); ++i) {
      for (size_t j = i + 1; j < clusters->size(); ++j) {
        double dist = ClusterDistance((*clusters)[i], (*clusters)[j], mi,
                                      config.varsigma);
        if (dist < best) {
          best = dist;
          bi = static_cast<int>(i);
          bj = static_cast<int>(j);
        }
      }
    }
    if (bi < 0) return false;
    if (respect_threshold && best > config.distance_threshold) return false;
    (*clusters)[bi].insert((*clusters)[bi].end(), (*clusters)[bj].begin(),
                           (*clusters)[bj].end());
    clusters->erase(clusters->begin() + bj);
    return true;
  };

  // Phase 1: threshold-bounded merging (the paper's stopping rule).
  while (merge_closest(/*respect_threshold=*/true)) {
  }
  // Phase 2: enforce the action-space cap.
  if (config.max_clusters > 0) {
    while (static_cast<int>(clusters->size()) > config.max_clusters &&
           merge_closest(/*respect_threshold=*/false)) {
    }
  }
  for (auto& cluster : *clusters) std::sort(cluster.begin(), cluster.end());
}

}  // namespace

namespace {

std::vector<std::vector<int>> SingletonClusters(int d) {
  std::vector<std::vector<int>> clusters;
  clusters.reserve(d);
  for (int c = 0; c < d; ++c) clusters.push_back({c});
  return clusters;
}

// Random partition into ~max_clusters groups (ablation mode).
std::vector<std::vector<int>> RandomClusters(int d,
                                             const ClusteringConfig& config) {
  int groups = config.max_clusters > 0
                   ? std::min(config.max_clusters, d)
                   : std::max(config.min_clusters, d / 3);
  groups = std::max(groups, 1);
  Rng rng(config.random_seed);
  std::vector<std::vector<int>> clusters(groups);
  for (int c = 0; c < d; ++c) clusters[rng.UniformInt(groups)].push_back(c);
  // Drop empties.
  std::vector<std::vector<int>> out;
  for (auto& cluster : clusters) {
    if (!cluster.empty()) out.push_back(std::move(cluster));
  }
  return out;
}

}  // namespace

std::vector<std::vector<int>> ClusterFeatures(const DataFrame& frame,
                                              const std::vector<double>& labels,
                                              TaskType task,
                                              const ClusteringConfig& config) {
  const int d = frame.NumCols();
  FASTFT_CHECK_GT(d, 0);
  if (config.mode == ClusterMode::kSingleton) return SingletonClusters(d);
  if (config.mode == ClusterMode::kRandom) return RandomClusters(d, config);
  std::vector<std::vector<int>> clusters = SingletonClusters(d);
  if (d <= config.min_clusters) return clusters;

  PairwiseMi mi = ComputePairwise(frame, labels, task, config.mi_bins);
  MergeClusters(&clusters, mi, config);
  return clusters;
}

std::vector<std::vector<int>> ClusterFeatures(const FeatureSpace& space,
                                              const ClusteringConfig& config) {
  const int d = space.NumColumns();
  FASTFT_CHECK_GT(d, 0);
  FASTFT_CHECK_EQ(config.mi_bins, FeatureSpace::kMiBins)
      << "the FeatureSpace caches MI at a fixed bin count";
  if (config.mode == ClusterMode::kSingleton) return SingletonClusters(d);
  if (config.mode == ClusterMode::kRandom) return RandomClusters(d, config);
  std::vector<std::vector<int>> clusters = SingletonClusters(d);
  if (d <= config.min_clusters) return clusters;

  // Relevance and redundancy come from the FeatureSpace's caches, so only
  // pairs involving columns new since the last call are computed here.
  PairwiseMi mi;
  mi.relevance.resize(d);
  for (int c = 0; c < d; ++c) mi.relevance[c] = space.LabelRelevance(c);
  mi.redundancy.assign(d, std::vector<double>(d, 0.0));
  for (int i = 0; i < d; ++i) {
    for (int j = i + 1; j < d; ++j) {
      double value = space.Redundancy(i, j);
      mi.redundancy[i][j] = value;
      mi.redundancy[j][i] = value;
    }
  }
  MergeClusters(&clusters, mi, config);
  return clusters;
}

}  // namespace fastft
