// The evolving transformed feature set F̂ with group-wise crossing.
//
// Holds the original columns plus generated columns, each carrying its
// expression tree. Implements the paper's group-wise feature crossing
// (§III-B), column hygiene, de-duplication, and the MI-based feature budget
// ("replacing useless features").

#pragma once

#include <cstdint>
#include <unordered_set>
#include <vector>

#include "common/stats.h"

#include "core/expression.h"
#include "core/tokenizer.h"
#include "data/dataset.h"

namespace fastft {

class Rng;

struct FeatureSpaceConfig {
  /// Hard cap on total columns; originals are always kept.
  int max_features = 48;
  /// Cap on new columns added by one crossing step (pairs are sampled).
  int max_new_per_step = 12;
  /// Expressions deeper than this are not generated further.
  int max_expr_depth = 8;
  /// Columns with stddev below this are rejected as constant.
  double min_std = 1e-9;
};

/// Repairs a generated column in place: every non-finite entry becomes the
/// median of the finite ones. Returns false, leaving `values` untouched, when
/// fewer than floor(n / 2) of its n entries are finite.
bool RepairNonFinite(std::vector<double>* values);

class FeatureSpace {
 public:
  /// Quantile bins behind every MI the space caches (bins, relevance,
  /// redundancy); ClusteringConfig::mi_bins must equal it on this path.
  static constexpr int kMiBins = 8;

  FeatureSpace(const Dataset& base, FeatureSpaceConfig config = {});

  int NumColumns() const { return static_cast<int>(columns_.size()); }
  int NumOriginals() const { return num_originals_; }
  int NumGenerated() const { return NumColumns() - num_originals_; }

  const std::vector<double>& Values(int index) const;
  const ExprPtr& Expression(int index) const;
  std::string ColumnName(int index) const;

  /// Cached seven-number summary of a column (columns are immutable once
  /// added, so this is computed once — the state representation hot path).
  const Summary& ColumnSummary(int index) const;

  /// Quantile-binned values (kMiBins bins; MI/clustering hot path), binned
  /// when the column is created, from the sort behind its rank signature.
  const std::vector<int>& BinnedValues(int index) const;

  /// Cached MI(F_index, y).
  double LabelRelevance(int index) const;

  /// Cached MI(F_i, F_j) for i < j: the pairwise redundancy of Eq. 2.
  /// Always computed as DiscreteMutualInformation(BinnedValues(i),
  /// BinnedValues(j)), lower (= older) index first.
  double Redundancy(int i, int j) const;

  /// Group-wise crossing: applies `op` to every head column (unary) or to
  /// sampled head × tail pairs (binary), adds the surviving columns, and
  /// returns how many were added. `rng` drives pair sampling.
  int ApplyOperation(OpType op, const std::vector<int>& head,
                     const std::vector<int>& tail, Rng* rng);

  /// Materializes the current feature set as a dataset (labels shared).
  Dataset ToDataset() const;

  /// Expression trees of the generated (non-original) columns, in order.
  std::vector<ExprPtr> GeneratedExpressions() const;

  /// Token sequence of the current transformation (Definition 4).
  std::vector<int> SequenceTokens(const Tokenizer& tokenizer) const;

  /// Drops lowest-MI generated columns until the budget holds.
  void EnforceBudget();

  /// Back to the original columns only. The originals' caches (bins,
  /// relevance, summary, pairwise MI) survive, so each episode starts warm.
  void Reset();

  const FeatureSpaceConfig& config() const { return config_; }
  const Dataset& base() const { return base_; }

 private:
  struct Column {
    std::vector<double> values;
    ExprPtr expr;
    // Dedup keys, fixed when the column is created: ValueHash(values),
    // ExprHash(expr) and the forward rank signature from RankAndBin, which
    // also fills `binned` (= QuantileBin(values, kMiBins)).
    uint64_t value_hash = 0;
    uint64_t expr_hash = 0;
    uint64_t rank_hash = 0;
    std::vector<int> binned;
    // Lazily-filled caches (values are immutable after creation).
    mutable bool summary_ready = false;
    mutable Summary summary;
    mutable double relevance = -1.0;  // <0 until first use
    // MI with each lower-index column (this column's row of the triangular
    // redundancy table); entries <0 until first use, empty until any is.
    mutable std::vector<double> pair_mi;
  };

  /// Cleans a candidate column in place and fills its dedup keys; false if
  /// it must be rejected (constant, duplicated, monotone-equivalent to an
  /// existing column, or non-finite beyond repair).
  bool SanitizeAndCheck(Column* candidate);
  static uint64_t ValueHash(const std::vector<double>& values);
  /// Sorts the column once for both of its binnings: fills its kMiBins
  /// `binned` cache and returns its rank-pattern signatures. These are equal
  /// for any increasing transform of the same column (forward) and for
  /// decreasing transforms (reflected). Tree-based evaluators are invariant
  /// to monotone rescalings, so such candidates are informationless
  /// duplicates.
  static std::pair<uint64_t, uint64_t> RankAndBin(Column* col);
  void InsertKeys(const Column& col);
  void RebuildHashes();

  Dataset base_;
  FeatureSpaceConfig config_;
  int num_originals_ = 0;
  std::vector<Column> columns_;
  // Label codes MI(F, y) is measured against: class ids, or kMiBins
  // quantile bins of the target for regression.
  std::vector<int> label_codes_;
  std::unordered_set<uint64_t> value_hashes_;
  std::unordered_set<uint64_t> expr_hashes_;
  std::unordered_set<uint64_t> rank_hashes_;
};

}  // namespace fastft

