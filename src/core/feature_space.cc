#include "core/feature_space.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <numeric>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/mutual_information.h"

namespace fastft {

bool RepairNonFinite(std::vector<double>* values) {
  const auto is_finite = [](double v) { return std::isfinite(v); };
  const size_t n = values->size();
  const size_t n_finite =
      static_cast<size_t>(std::count_if(values->begin(), values->end(),
                                        is_finite));
  if (n_finite < n / 2) return false;
  if (n_finite == n) return true;
  std::vector<double> finite;
  finite.reserve(n_finite);
  std::copy_if(values->begin(), values->end(), std::back_inserter(finite),
               is_finite);
  const double median = Quantile(finite, 0.5);
  for (double& v : *values) {
    if (!is_finite(v)) v = median;
  }
  return true;
}

FeatureSpace::FeatureSpace(const Dataset& base, FeatureSpaceConfig config)
    : base_(base), config_(config) {
  FASTFT_CHECK(base_.Validate().ok()) << base_.Validate().ToString();
  num_originals_ = base_.NumFeatures();
  FASTFT_CHECK_GE(config_.max_features, num_originals_)
      << "budget below original feature count";
  if (base_.task == TaskType::kRegression) {
    label_codes_ = QuantileBin(base_.labels, kMiBins);
  } else {
    label_codes_.reserve(base_.labels.size());
    for (double y : base_.labels) label_codes_.push_back(static_cast<int>(y));
  }
  for (int c = 0; c < num_originals_; ++c) {
    Column col;
    col.values = base_.features.Col(c);
    col.expr = MakeLeaf(c);
    col.value_hash = ValueHash(col.values);
    col.expr_hash = ExprHash(col.expr);
    col.rank_hash = RankAndBin(&col).first;
    columns_.push_back(std::move(col));
  }
  RebuildHashes();
}

void FeatureSpace::Reset() {
  // Originals only ever reference lower originals, so truncation leaves
  // their cached rows valid.
  columns_.resize(num_originals_);
  RebuildHashes();
}

const std::vector<double>& FeatureSpace::Values(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumColumns());
  return columns_[index].values;
}

const ExprPtr& FeatureSpace::Expression(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumColumns());
  return columns_[index].expr;
}

const Summary& FeatureSpace::ColumnSummary(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumColumns());
  const Column& col = columns_[index];
  if (!col.summary_ready) {
    col.summary = Summarize(col.values);
    col.summary_ready = true;
  }
  return col.summary;
}

const std::vector<int>& FeatureSpace::BinnedValues(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumColumns());
  return columns_[index].binned;
}

double FeatureSpace::LabelRelevance(int index) const {
  FASTFT_CHECK_GE(index, 0);
  FASTFT_CHECK_LT(index, NumColumns());
  const Column& col = columns_[index];
  if (col.relevance < 0.0) {
    col.relevance =
        DiscreteMutualInformation(BinnedValues(index), label_codes_);
  }
  return col.relevance;
}

double FeatureSpace::Redundancy(int i, int j) const {
  FASTFT_CHECK_GE(i, 0);
  FASTFT_CHECK_LT(i, j);
  FASTFT_CHECK_LT(j, NumColumns());
  std::vector<double>& row = columns_[j].pair_mi;
  if (row.empty()) row.assign(j, -1.0);
  if (row[i] < 0.0) {
    row[i] = DiscreteMutualInformation(BinnedValues(i), BinnedValues(j));
  }
  return row[i];
}

std::string FeatureSpace::ColumnName(int index) const {
  return ExprToString(Expression(index), base_.features.Names());
}

uint64_t FeatureSpace::ValueHash(const std::vector<double>& values) {
  // Hash of values rounded to ~6 significant decimals, catching numerically
  // identical derivations (e.g. square(sqrt(x)) == |x|).
  uint64_t h = 1469598103934665603ULL;
  for (double v : values) {
    int64_t q = static_cast<int64_t>(std::llround(v * 1e6));
    h ^= static_cast<uint64_t>(q);
    h *= 1099511628211ULL;
  }
  return h;
}

std::pair<uint64_t, uint64_t> FeatureSpace::RankAndBin(Column* col) {
  const std::vector<size_t> order = AscendingOrder(col->values);
  col->binned = QuantileBinFromOrder(col->values, order, kMiBins);
  const std::vector<int> bins = QuantileBinFromOrder(col->values, order, 16);
  int max_bin = 0;
  for (int b : bins) max_bin = std::max(max_bin, b);
  uint64_t forward = 1469598103934665603ULL;
  uint64_t reflected = 1469598103934665603ULL;
  for (int b : bins) {
    forward = (forward ^ static_cast<uint64_t>(b)) * 1099511628211ULL;
    reflected =
        (reflected ^ static_cast<uint64_t>(max_bin - b)) * 1099511628211ULL;
  }
  return {forward, reflected};
}

void FeatureSpace::InsertKeys(const Column& col) {
  value_hashes_.insert(col.value_hash);
  expr_hashes_.insert(col.expr_hash);
  rank_hashes_.insert(col.rank_hash);
}

void FeatureSpace::RebuildHashes() {
  value_hashes_.clear();
  expr_hashes_.clear();
  rank_hashes_.clear();
  for (const Column& col : columns_) InsertKeys(col);
}

bool FeatureSpace::SanitizeAndCheck(Column* candidate) {
  if (!RepairNonFinite(&candidate->values)) return false;
  if (StdDev(candidate->values) < config_.min_std) return false;
  candidate->expr_hash = ExprHash(candidate->expr);
  if (expr_hashes_.count(candidate->expr_hash) > 0) return false;
  candidate->value_hash = ValueHash(candidate->values);
  if (value_hashes_.count(candidate->value_hash) > 0) return false;
  const auto [forward, reflected] = RankAndBin(candidate);
  candidate->rank_hash = forward;
  // Monotone-equivalence: an increasing or decreasing rescaling of an
  // existing column adds nothing a split-based model can use. Depth-2
  // expressions (one unary op on an original column, e.g. log(f3)) are
  // exempt — they are the classic rescalings that help linear downstream
  // models — while deeper monotone wrappers (sin(sin(x)) chains) stay
  // banned.
  if (candidate->expr->depth > 2 &&
      (rank_hashes_.count(forward) > 0 || rank_hashes_.count(reflected) > 0)) {
    return false;
  }
  return true;
}

int FeatureSpace::ApplyOperation(OpType op, const std::vector<int>& head,
                                 const std::vector<int>& tail, Rng* rng) {
  FASTFT_CHECK(rng != nullptr);
  int added = 0;
  auto try_add = [&](std::vector<double> values, ExprPtr expr) {
    if (expr->depth > config_.max_expr_depth) return;
    Column column;
    column.values = std::move(values);
    column.expr = std::move(expr);
    if (!SanitizeAndCheck(&column)) return;
    InsertKeys(column);
    columns_.push_back(std::move(column));
    ++added;
  };

  if (IsUnary(op)) {
    for (int h : head) {
      if (added >= config_.max_new_per_step) break;
      FASTFT_CHECK_LT(h, NumColumns());
      try_add(ApplyUnary(op, columns_[h].values),
              MakeUnary(op, columns_[h].expr));
    }
  } else {
    FASTFT_CHECK(!tail.empty());
    // Enumerate head × tail pairs; sample down to the per-step cap.
    std::vector<std::pair<int, int>> pairs;
    for (int h : head) {
      for (int t : tail) {
        if (h == t && (op == OpType::kSub || op == OpType::kDiv)) continue;
        pairs.emplace_back(h, t);
      }
    }
    if (static_cast<int>(pairs.size()) > config_.max_new_per_step) {
      rng->Shuffle(pairs);
      pairs.resize(config_.max_new_per_step);
    }
    for (const auto& [h, t] : pairs) {
      if (added >= config_.max_new_per_step) break;
      FASTFT_CHECK_LT(h, NumColumns());
      FASTFT_CHECK_LT(t, NumColumns());
      try_add(ApplyBinary(op, columns_[h].values, columns_[t].values),
              MakeBinary(op, columns_[h].expr, columns_[t].expr));
    }
  }
  EnforceBudget();
  return added;
}

Dataset FeatureSpace::ToDataset() const {
  Dataset out;
  out.name = base_.name;
  out.task = base_.task;
  out.labels = base_.labels;
  for (int c = 0; c < NumColumns(); ++c) {
    FASTFT_CHECK(
        out.features.AddColumn(ColumnName(c), columns_[c].values).ok());
  }
  return out;
}

std::vector<ExprPtr> FeatureSpace::GeneratedExpressions() const {
  std::vector<ExprPtr> out;
  for (int c = num_originals_; c < NumColumns(); ++c) {
    out.push_back(columns_[c].expr);
  }
  return out;
}

std::vector<int> FeatureSpace::SequenceTokens(
    const Tokenizer& tokenizer) const {
  return tokenizer.EncodeFeatureSet(GeneratedExpressions());
}

void FeatureSpace::EnforceBudget() {
  if (NumColumns() <= config_.max_features) return;
  // Rank generated columns by MI relevance; originals always survive.
  const int keep_generated = config_.max_features - num_originals_;
  struct Ranked {
    int index;
    double relevance;
  };
  std::vector<Ranked> ranked;
  for (int c = num_originals_; c < NumColumns(); ++c) {
    ranked.push_back({c, LabelRelevance(c)});
  }
  std::stable_sort(ranked.begin(), ranked.end(), [](const Ranked& a,
                                                    const Ranked& b) {
    return a.relevance > b.relevance;
  });
  std::vector<Column> kept;
  kept.reserve(config_.max_features);
  for (int c = 0; c < num_originals_; ++c) {
    kept.push_back(std::move(columns_[c]));
  }
  std::vector<int> survivors;
  for (int i = 0; i < keep_generated && i < static_cast<int>(ranked.size());
       ++i) {
    survivors.push_back(ranked[i].index);
  }
  std::sort(survivors.begin(), survivors.end());  // preserve creation order
  // Old index of every kept column, in new order. Originals keep their rows
  // (all their partners are originals); a survivor's row is compacted to
  // the kept partners below it.
  std::vector<int> old_index(num_originals_);
  std::iota(old_index.begin(), old_index.end(), 0);
  for (int idx : survivors) {
    Column& col = columns_[idx];
    if (!col.pair_mi.empty()) {
      std::vector<double> row(old_index.size());
      for (size_t k = 0; k < old_index.size(); ++k) {
        row[k] = col.pair_mi[old_index[k]];
      }
      col.pair_mi = std::move(row);
    }
    old_index.push_back(idx);
    kept.push_back(std::move(col));
  }
  columns_ = std::move(kept);
  RebuildHashes();
}

}  // namespace fastft
