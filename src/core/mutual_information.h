// Mutual information estimation by quantile binning.
//
// Used by the clustering distance (paper Eq. 2) and by the MI-based feature
// selection that keeps the transformed feature set within budget.

#pragma once

#include <cstddef>
#include <vector>

#include "data/dataframe.h"
#include "data/dataset.h"

namespace fastft {

/// Discretizes `values` into up to `bins` quantile bins (ties collapse).
std::vector<int> QuantileBin(const std::vector<double>& values, int bins);

/// Row indices of `values` in ascending order of value: the one sort behind
/// QuantileBin. The order among equal values is unspecified.
std::vector<size_t> AscendingOrder(const std::vector<double>& values);

/// QuantileBin from a precomputed AscendingOrder(values), so one sort can
/// feed several bin counts. The codes depend only on the sorted value
/// sequence (equal values, -0.0 and 0.0 included, always share a bin), so
/// any ascending order gives the codes QuantileBin gives.
std::vector<int> QuantileBinFromOrder(const std::vector<double>& values,
                                      const std::vector<size_t>& order,
                                      int bins);

/// MI between two pre-binned discrete variables, in nats.
double DiscreteMutualInformation(const std::vector<int>& a,
                                 const std::vector<int>& b);

/// MI between two continuous columns (both quantile-binned).
double EstimateMI(const std::vector<double>& a, const std::vector<double>& b,
                  int bins = 8);

/// MI between a column and the task labels (labels binned only for
/// regression).
double EstimateMIWithLabel(const std::vector<double>& column,
                           const std::vector<double>& labels, TaskType task,
                           int bins = 8);

/// Relevance of every column to the label.
std::vector<double> FeatureRelevance(const DataFrame& frame,
                                     const std::vector<double>& labels,
                                     TaskType task, int bins = 8);

/// Indices of the top-k columns by MI relevance (descending).
std::vector<int> TopKByRelevance(const DataFrame& frame,
                                 const std::vector<double>& labels,
                                 TaskType task, int k, int bins = 8);

}  // namespace fastft

