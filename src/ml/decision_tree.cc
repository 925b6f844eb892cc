#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/simd_kernels.h"

namespace fastft {
namespace {

double GiniFromCounts(const std::vector<double>& counts, double total) {
  if (total <= 0) return 0.0;
  double gini = 1.0;
  for (double c : counts) {
    double p = c / total;
    gini -= p * p;
  }
  return gini;
}

}  // namespace

RankedColumns::RankedColumns(const Rows& x, const std::vector<double>& y) {
  FASTFT_CHECK(!x.empty());
  FASTFT_CHECK_EQ(x.size(), y.size());
  num_rows_ = static_cast<int>(x.size());
  num_features_ = static_cast<int>(x[0].size());
  // NaN would break the (value, label) order's strict weak ordering, which
  // std::sort requires; reject non-finite input in the passes that read it.
  for (double v : y) {
    FASTFT_CHECK(std::isfinite(v)) << "tree labels must be finite, got " << v;
  }
  for (const std::vector<double>& row : x) {
    FASTFT_CHECK_EQ(static_cast<int>(row.size()), num_features_);
  }
  labels_ = y;
  num_ranks_.assign(num_features_, 0);
  const size_t cells =
      static_cast<size_t>(num_rows_) * static_cast<size_t>(num_features_);
  ranks_.resize(cells);
  rank_values_.resize(cells);
  rank_labels_.resize(cells);

  struct Entry {
    double value;
    double label;
    int row;
  };
  std::vector<Entry> order(num_rows_);
  for (int f = 0; f < num_features_; ++f) {
    for (int r = 0; r < num_rows_; ++r) {
      const double v = x[r][f];
      FASTFT_CHECK(std::isfinite(v))
          << "tree features must be finite, got " << v << " at row " << r
          << ", feature " << f;
      order[r] = {v, y[r], r};
    }
    std::sort(order.begin(), order.end(), [](const Entry& a, const Entry& b) {
      return a.value < b.value || (a.value == b.value && a.label < b.label);
    });
    uint32_t* ranks = ranks_.data() + Offset(f);
    double* values = rank_values_.data() + Offset(f);
    double* labels = rank_labels_.data() + Offset(f);
    int rank = -1;
    for (int i = 0; i < num_rows_; ++i) {
      const Entry& e = order[i];
      if (i == 0 || e.value != values[rank] || e.label != labels[rank]) {
        ++rank;
        values[rank] = e.value;
        labels[rank] = e.label;
      }
      ranks[e.row] = static_cast<uint32_t>(rank);
    }
    num_ranks_[f] = rank + 1;
  }
}

/// Buffers one fit reuses at every node. The split search finishes with
/// `sorted`, `labels` and the count vectors before the node recurses, so one
/// set serves the whole tree.
struct DecisionTree::Scratch {
  std::vector<int> rows;   // the fit's row list, partitioned per node
  std::vector<int> spill;  // a partition's right rows
  std::vector<uint32_t> sorted;  // a node's ranks on one feature, ascending
  std::vector<uint32_t> rank_slots;  // counting sort: count, then offset
  std::vector<double> labels;
  std::vector<int> candidates;
  std::vector<double> total_counts, left_counts, right_counts;
};

void DecisionTree::Fit(const Rows& x, const std::vector<double>& y) {
  const RankedColumns table(x, y);
  std::vector<int> rows(x.size());
  std::iota(rows.begin(), rows.end(), 0);
  Fit(table, std::move(rows));
}

void DecisionTree::Fit(const RankedColumns& table, std::vector<int> rows) {
  FASTFT_CHECK(!rows.empty());
  num_features_ = table.num_features();
  nodes_.clear();
  importance_.assign(num_features_, 0.0);
  if (config_.regression) {
    num_classes_ = 0;
  } else {
    int max_label = 0;
    for (int r : rows) {
      max_label = std::max(max_label, static_cast<int>(table.label(r)));
    }
    num_classes_ = max_label + 1;
  }
  Scratch scratch;
  const size_t n = rows.size();
  scratch.rows = std::move(rows);
  scratch.spill.resize(n);
  scratch.sorted.resize(n);
  scratch.rank_slots.resize(table.num_rows());
  scratch.labels.resize(n);
  scratch.total_counts.resize(num_classes_);
  scratch.left_counts.resize(num_classes_);
  scratch.right_counts.resize(num_classes_);
  Rng rng(config_.seed);
  BuildNode(table, 0, static_cast<int>(n), 0, &rng, &scratch);
  double total = 0.0;
  for (double v : importance_) total += v;
  if (total > 0) {
    for (double& v : importance_) v /= total;
  }
}

int DecisionTree::BuildNode(const RankedColumns& table, int begin, int end,
                            int depth, Rng* rng, Scratch* scratch) {
  const int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  int* rows = scratch->rows.data() + begin;
  const int m = end - begin;
  const double n = static_cast<double>(m);
  double* labels = scratch->labels.data();

  // Node value and impurity, summed in row-list order. The indexed gather
  // into a contiguous scratch lets the sum/sumsq reduction run through the
  // lane-split SIMD kernel.
  double node_impurity = 0.0;
  if (config_.regression) {
    for (int i = 0; i < m; ++i) labels[i] = table.label(rows[i]);
    double sum = 0.0, sumsq = 0.0;
    simd::SumAndSumSq(labels, m, &sum, &sumsq);
    double mean = sum / n;
    node_impurity = std::max(0.0, sumsq / n - mean * mean);
    nodes_[node_index].value = {mean};
  } else {
    std::vector<double>& counts = scratch->total_counts;
    std::fill(counts.begin(), counts.end(), 0.0);
    for (int i = 0; i < m; ++i) {
      counts[static_cast<int>(table.label(rows[i]))] += 1.0;
    }
    node_impurity = GiniFromCounts(counts, n);
    std::vector<double>& value = nodes_[node_index].value;
    value = counts;
    for (double& c : value) c /= n;
  }

  const bool can_split = depth < config_.max_depth &&
                         m >= 2 * config_.min_samples_leaf &&
                         node_impurity > 1e-12;
  if (!can_split) return node_index;

  // Candidate features.
  std::vector<int>& candidates = scratch->candidates;
  if (config_.max_features > 0 && config_.max_features < num_features_) {
    candidates = rng->SampleWithoutReplacement(num_features_,
                                               config_.max_features);
  } else {
    candidates.resize(num_features_);
    std::iota(candidates.begin(), candidates.end(), 0);
  }

  int best_feature = -1;
  double best_threshold = 0.0;
  double best_gain = 1e-12;

  uint32_t* sorted = scratch->sorted.data();
  for (int feature : candidates) {
    // The node's ranks in ascending order: a counting sort over the
    // feature's ranks, or a comparison sort when the node holds too few rows
    // to pay for two passes over all of them. Both give the same sequence,
    // which reads as the node's (value, label) pairs in sorted order.
    const uint32_t* ranks = table.ranks(feature);
    const int num_ranks = table.num_ranks(feature);
    if (16 * m < num_ranks) {
      for (int i = 0; i < m; ++i) sorted[i] = ranks[rows[i]];
      std::sort(sorted, sorted + m);
    } else {
      uint32_t* slot = scratch->rank_slots.data();
      std::fill(slot, slot + num_ranks, 0u);
      for (int i = 0; i < m; ++i) ++slot[ranks[rows[i]]];
      uint32_t offset = 0;
      for (int rank = 0; rank < num_ranks; ++rank) {
        const uint32_t count = slot[rank];
        slot[rank] = offset;
        offset += count;
      }
      for (int i = 0; i < m; ++i) {
        const uint32_t rank = ranks[rows[i]];
        sorted[slot[rank]++] = rank;
      }
    }
    const double* values = table.rank_values(feature);
    const double* rank_labels = table.rank_labels(feature);
    if (values[sorted[0]] == values[sorted[m - 1]]) continue;

    if (config_.regression) {
      // Split-scan totals: gather the sorted labels so the reduction is
      // contiguous and SIMD-friendly; the prefix scan itself stays
      // sequential (each step depends on the last).
      for (int i = 0; i < m; ++i) labels[i] = rank_labels[sorted[i]];
      double left_sum = 0.0, left_sumsq = 0.0;
      double total_sum = 0.0, total_sumsq = 0.0;
      simd::SumAndSumSq(labels, m, &total_sum, &total_sumsq);
      for (int i = 0; i + 1 < m; ++i) {
        left_sum += labels[i];
        left_sumsq += labels[i] * labels[i];
        if (values[sorted[i]] == values[sorted[i + 1]]) continue;
        double nl = static_cast<double>(i + 1);
        double nr = n - nl;
        if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
          continue;
        }
        double ml = left_sum / nl;
        double mr = (total_sum - left_sum) / nr;
        double vl = std::max(0.0, left_sumsq / nl - ml * ml);
        double vr = std::max(0.0, (total_sumsq - left_sumsq) / nr - mr * mr);
        double gain = node_impurity - (nl / n) * vl - (nr / n) * vr;
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (values[sorted[i]] + values[sorted[i + 1]]);
        }
      }
    } else {
      // The class totals are the node's counts (integer-valued, so exact in
      // any order).
      std::vector<double>& left_counts = scratch->left_counts;
      std::vector<double>& right_counts = scratch->right_counts;
      std::fill(left_counts.begin(), left_counts.end(), 0.0);
      right_counts = scratch->total_counts;
      for (int i = 0; i + 1 < m; ++i) {
        int cls = static_cast<int>(rank_labels[sorted[i]]);
        left_counts[cls] += 1.0;
        right_counts[cls] -= 1.0;
        if (values[sorted[i]] == values[sorted[i + 1]]) continue;
        double nl = static_cast<double>(i + 1);
        double nr = n - nl;
        if (nl < config_.min_samples_leaf || nr < config_.min_samples_leaf) {
          continue;
        }
        double gain = node_impurity - (nl / n) * GiniFromCounts(left_counts, nl) -
                      (nr / n) * GiniFromCounts(right_counts, nr);
        if (gain > best_gain) {
          best_gain = gain;
          best_feature = feature;
          best_threshold = 0.5 * (values[sorted[i]] + values[sorted[i + 1]]);
        }
      }
    }
  }

  if (best_feature < 0) return node_index;

  // Stable partition of [begin, end): left rows compact in place (a write
  // never passes the read position), right rows spill to scratch and follow
  // them, both in their original order. A row's rank value equals (==) its
  // feature value, so `<=` matches the raw data.
  const uint32_t* ranks = table.ranks(best_feature);
  const double* values = table.rank_values(best_feature);
  int* spill = scratch->spill.data();
  int num_left = 0, num_right = 0;
  for (int i = 0; i < m; ++i) {
    const int r = rows[i];
    if (values[ranks[r]] <= best_threshold) {
      rows[num_left++] = r;
    } else {
      spill[num_right++] = r;
    }
  }
  std::copy(spill, spill + num_right, rows + num_left);
  if (num_left == 0 || num_right == 0) return node_index;

  importance_[best_feature] += n * best_gain;

  const int mid = begin + num_left;
  int left = BuildNode(table, begin, mid, depth + 1, rng, scratch);
  int right = BuildNode(table, mid, end, depth + 1, rng, scratch);
  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  nodes_[node_index].is_leaf = false;
  return node_index;
}

const DecisionTree::Node& DecisionTree::Descend(
    const std::vector<double>& row) const {
  FASTFT_CHECK(!nodes_.empty());
  int index = 0;
  while (!nodes_[index].is_leaf) {
    const Node& node = nodes_[index];
    index = row[node.feature] <= node.threshold ? node.left : node.right;
  }
  return nodes_[index];
}

std::vector<double> DecisionTree::PredictProba(
    const std::vector<double>& row) const {
  FASTFT_CHECK(!config_.regression);
  return Descend(row).value;
}

double DecisionTree::PredictOne(const std::vector<double>& row) const {
  const Node& leaf = Descend(row);
  if (config_.regression) return leaf.value[0];
  int best = 0;
  for (int c = 1; c < num_classes_; ++c) {
    if (leaf.value[c] > leaf.value[best]) best = c;
  }
  return static_cast<double>(best);
}

std::vector<double> DecisionTree::Predict(const Rows& x) const {
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& row : x) out.push_back(PredictOne(row));
  return out;
}

std::vector<double> DecisionTree::PredictScore(const Rows& x) const {
  if (config_.regression) return Predict(x);
  std::vector<double> out;
  out.reserve(x.size());
  for (const auto& row : x) {
    const Node& leaf = Descend(row);
    out.push_back(num_classes_ >= 2 ? leaf.value[1] : 0.0);
  }
  return out;
}

}  // namespace fastft
