// CART decision tree for classification (Gini) and regression (variance).
//
// Supports per-node feature subsampling (for forests), depth and leaf-size
// limits, class-probability leaves, and impurity-decrease feature
// importances (used by the traceability study, Table IV).
//
// Split search is ranked: a RankedColumns table orders every feature's
// training rows by (value, label) once per fit, and each node sorts its rows'
// ranks instead of sorting (value, label) pairs. A node's sorted sequence
// depends only on its multiset of rows, so the trees are exactly those of a
// per-node pair sort.

#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "ml/model.h"

namespace fastft {

/// Per-feature rank order of one training set. Built once per fit (a
/// forest's trees share one, read-only) and indexed by row. Rows whose
/// (value, label) pairs compare equal with `==` share a rank, so -0.0 and
/// 0.0 do too; every value and label must be finite.
class RankedColumns {
 public:
  RankedColumns(const Rows& x, const std::vector<double>& y);

  int num_rows() const { return num_rows_; }
  int num_features() const { return num_features_; }
  double label(int row) const { return labels_[row]; }
  /// Distinct ranks of `feature`: ranks run 0..num_ranks(feature)-1.
  int num_ranks(int feature) const { return num_ranks_[feature]; }
  /// Rank of every row on `feature`, indexed by row.
  const uint32_t* ranks(int feature) const {
    return ranks_.data() + Offset(feature);
  }
  /// Value and label of each rank of `feature`, indexed by rank.
  const double* rank_values(int feature) const {
    return rank_values_.data() + Offset(feature);
  }
  const double* rank_labels(int feature) const {
    return rank_labels_.data() + Offset(feature);
  }

 private:
  std::size_t Offset(int feature) const {
    return static_cast<std::size_t>(feature) *
           static_cast<std::size_t>(num_rows_);
  }

  int num_rows_ = 0;
  int num_features_ = 0;
  std::vector<double> labels_;
  std::vector<int> num_ranks_;
  // Feature-major, num_rows_ entries per feature; the rank arrays use the
  // first num_ranks(feature) of them.
  std::vector<uint32_t> ranks_;
  std::vector<double> rank_values_;
  std::vector<double> rank_labels_;
};

struct TreeConfig {
  bool regression = false;
  int max_depth = 6;
  int min_samples_leaf = 2;
  /// Number of features examined per split; <=0 means all features.
  int max_features = 0;
  uint64_t seed = 13;
};

class DecisionTree : public Model {
 public:
  struct Node {
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    bool is_leaf = true;
    /// Class distribution (classification) or {mean} (regression).
    std::vector<double> value;
  };

  explicit DecisionTree(TreeConfig config = {}) : config_(config) {}

  /// Ranks `x` and fits on every row.
  void Fit(const Rows& x, const std::vector<double>& y) override;
  /// Fits on the table's rows listed in `rows` (repeats allowed, as in a
  /// bootstrap). The list's order is the order node values are summed in.
  void Fit(const RankedColumns& table, std::vector<int> rows);
  std::vector<double> Predict(const Rows& x) const override;
  std::vector<double> PredictScore(const Rows& x) const override;

  /// Single-row prediction without per-call allocation (hot path for
  /// forests and boosting).
  double PredictOne(const std::vector<double>& row) const;

  /// Per-class probabilities for one sample (classification only).
  std::vector<double> PredictProba(const std::vector<double>& row) const;

  /// Total impurity decrease attributed to each feature; sums to ~1 after
  /// normalization (all-zero if the tree is a stump).
  const std::vector<double>& FeatureImportance() const { return importance_; }

  int num_classes() const { return num_classes_; }

  /// Nodes in build order; node 0 is the root.
  const std::vector<Node>& nodes() const { return nodes_; }

 private:
  struct Scratch;

  /// Builds the subtree over rows [begin, end) of the scratch row list,
  /// partitioning that range in place.
  int BuildNode(const RankedColumns& table, int begin, int end, int depth,
                class Rng* rng, Scratch* scratch);
  const Node& Descend(const std::vector<double>& row) const;

  TreeConfig config_;
  int num_classes_ = 0;
  int num_features_ = 0;
  std::vector<Node> nodes_;
  std::vector<double> importance_;
};

}  // namespace fastft

