#include "core/mutual_information.h"

#include <algorithm>
#include <array>
#include <climits>
#include <cmath>
#include <numeric>

#include "common/logging.h"

namespace fastft {

std::vector<int> QuantileBin(const std::vector<double>& values, int bins) {
  return QuantileBinFromOrder(values, AscendingOrder(values), bins);
}

std::vector<size_t> AscendingOrder(const std::vector<double>& values) {
  std::vector<size_t> order(values.size());
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return values[a] < values[b]; });
  return order;
}

std::vector<int> QuantileBinFromOrder(const std::vector<double>& values,
                                      const std::vector<size_t>& order,
                                      int bins) {
  FASTFT_CHECK_GE(bins, 2);
  FASTFT_CHECK_EQ(order.size(), values.size());
  const size_t n = values.size();
  std::vector<int> out(n, 0);
  if (n == 0) return out;
  // Equal-frequency bins; identical values always share a bin. A bin closes
  // as soon as it has reached its quota *and* the value changes — this keeps
  // low-cardinality columns (e.g. binary features) multi-binned instead of
  // collapsing into one bin.
  int current_bin = 0;
  size_t per_bin = std::max<size_t>(1, n / static_cast<size_t>(bins));
  for (size_t rank = 0; rank < n; ++rank) {
    if (rank > 0) {
      bool due = rank >= (static_cast<size_t>(current_bin) + 1) * per_bin &&
                 current_bin < bins - 1;
      bool tie = values[order[rank]] == values[order[rank - 1]];
      if (due && !tie) ++current_bin;
    }
    out[order[rank]] = current_bin;
  }
  return out;
}

namespace {

// Counts into `cells` (ka + kb + ka*kb zeroed ints: the two marginals, then
// the row-major joint table) and sums the plug-in MI in (x, y) order.
double MiFromCounts(const std::vector<int>& a, const std::vector<int>& b,
                    int ka, int kb, int* cells) {
  int* ca = cells;
  int* cb = cells + ka;
  int* joint = cells + ka + kb;
  for (size_t i = 0; i < a.size(); ++i) {
    ++ca[a[i]];
    ++cb[b[i]];
    ++joint[static_cast<size_t>(a[i]) * kb + b[i]];
  }
  const double n = static_cast<double>(a.size());
  double mi = 0.0;
  for (int x = 0; x < ka; ++x) {
    if (ca[x] == 0) continue;
    const double pa = static_cast<double>(ca[x]);
    for (int y = 0; y < kb; ++y) {
      const int count = joint[static_cast<size_t>(x) * kb + y];
      if (count == 0) continue;
      const double pxy = static_cast<double>(count);
      const double pb = static_cast<double>(cb[y]);
      mi += (pxy / n) * std::log(pxy * n / (pa * pb));
    }
  }
  return std::max(0.0, mi);
}

}  // namespace

double DiscreteMutualInformation(const std::vector<int>& a,
                                 const std::vector<int>& b) {
  FASTFT_CHECK_EQ(a.size(), b.size());
  if (a.empty()) return 0.0;
  FASTFT_CHECK_LE(a.size(), static_cast<size_t>(INT_MAX));
  // Dense integer histograms: bin ids are small non-negative integers
  // (quantile bins or class labels). Counts are exact in int, and converting
  // them to double gives the same operands a double histogram would.
  int min_code = 0, max_a = 0, max_b = 0;
  for (size_t i = 0; i < a.size(); ++i) {
    min_code = std::min(min_code, std::min(a[i], b[i]));
    max_a = std::max(max_a, a[i]);
    max_b = std::max(max_b, b[i]);
  }
  FASTFT_CHECK_GE(min_code, 0) << "MI codes must be non-negative";
  const int ka = max_a + 1, kb = max_b + 1;
  const size_t num_cells =
      static_cast<size_t>(ka) + kb + static_cast<size_t>(ka) * kb;
  // The clustering hot path (8 x 8 quantile bins) counts into a fixed stack
  // table; only very wide code ranges (many classes) fall back to the heap.
  constexpr size_t kStackCells = 1024;
  if (num_cells <= kStackCells) {
    std::array<int, kStackCells> cells;
    std::fill_n(cells.begin(), num_cells, 0);
    return MiFromCounts(a, b, ka, kb, cells.data());
  }
  std::vector<int> cells(num_cells, 0);
  return MiFromCounts(a, b, ka, kb, cells.data());
}

double EstimateMI(const std::vector<double>& a, const std::vector<double>& b,
                  int bins) {
  return DiscreteMutualInformation(QuantileBin(a, bins), QuantileBin(b, bins));
}

double EstimateMIWithLabel(const std::vector<double>& column,
                           const std::vector<double>& labels, TaskType task,
                           int bins) {
  std::vector<int> binned_labels;
  if (task == TaskType::kRegression) {
    binned_labels = QuantileBin(labels, bins);
  } else {
    binned_labels.reserve(labels.size());
    for (double y : labels) binned_labels.push_back(static_cast<int>(y));
  }
  return DiscreteMutualInformation(QuantileBin(column, bins), binned_labels);
}

std::vector<double> FeatureRelevance(const DataFrame& frame,
                                     const std::vector<double>& labels,
                                     TaskType task, int bins) {
  std::vector<double> out(frame.NumCols());
  for (int c = 0; c < frame.NumCols(); ++c) {
    out[c] = EstimateMIWithLabel(frame.Col(c), labels, task, bins);
  }
  return out;
}

std::vector<int> TopKByRelevance(const DataFrame& frame,
                                 const std::vector<double>& labels,
                                 TaskType task, int k, int bins) {
  std::vector<double> relevance = FeatureRelevance(frame, labels, task, bins);
  std::vector<int> indices(frame.NumCols());
  std::iota(indices.begin(), indices.end(), 0);
  std::stable_sort(indices.begin(), indices.end(), [&](int a, int b) {
    return relevance[a] > relevance[b];
  });
  if (k < static_cast<int>(indices.size())) indices.resize(k);
  std::sort(indices.begin(), indices.end());
  return indices;
}

}  // namespace fastft
