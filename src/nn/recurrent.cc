#include "nn/recurrent.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd_kernels.h"

namespace fastft {
namespace nn {

bool BackpropTimestep(const double* dpre, const Matrix& w, double* dz) {
  const int rows = w.rows();
  const int zdim = w.cols();
  if (std::all_of(dpre, dpre + rows, [](double d) { return d == 0.0; })) {
    std::fill_n(dz, zdim, 0.0);
    return false;
  }
  simd::VecMat(dpre, w.data(), dz, rows, zdim);
  return true;
}

void AccumulateRecurrentGrads(const double* dpre, const double* z, int first,
                              int last, Parameter* w, Parameter* b) {
  const int rows = w->value.rows();
  const int zdim = w->value.cols();
  FASTFT_CHECK_EQ(b->value.rows(), rows);
  if (last < first) return;
  const double* dpre_first = dpre + static_cast<size_t>(first) * rows;
  simd::OuterAccumulate(dpre_first, z + static_cast<size_t>(first) * zdim,
                        w->grad.data(), rows, last - first + 1, zdim);
  for (int t = last - first; t >= 0; --t) {
    simd::Add(dpre_first + static_cast<size_t>(t) * rows, b->grad.data(),
              rows);
  }
}

}  // namespace nn
}  // namespace fastft
