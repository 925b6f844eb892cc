// AVX2 backend. Compiled with -mavx2 (and only this translation unit is),
// selected at runtime when __builtin_cpu_supports("avx2").
//
// Bit-identity with the scalar reference (simd_kernels.cc) is the whole
// game, and two rules keep it:
//
//   * no fused multiply-add — _mm256_mul_pd + _mm256_add_pd round twice,
//     exactly like the scalar `acc += a * b` under -ffp-contract=off; the
//     FMA intrinsics would round once and drift;
//   * family-B reductions keep kLanes (= 4) logical lanes = one __m256d,
//     tails are applied to the extracted lanes with the same index % 4
//     assignment as the scalar spec, and lanes combine in ascending order.

#include "common/simd_kernels.h"

#if defined(FASTFT_SIMD_AVX2) && defined(__AVX2__)

#include <immintrin.h>

namespace fastft {
namespace simd {

// The scalar reference (simd_kernels.cc) finishes AdamUpdate's tail.
void AdamUpdateScalar(double* value, double* grad, double* m, double* v,
                      int n, const AdamScalars& s);

namespace {

void MatMulAvx2(const double* a, const double* b, double* out, int m,
                int kdim, int n) {
  const int n8 = n & ~7;
  for (int j0 = 0; j0 < n8; j0 += 8) {
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (int k = 0; k < kdim; ++k) {
        const __m256d av = _mm256_set1_pd(arow[k]);
        const double* brow = b + static_cast<size_t>(k) * n + j0;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
        acc1 = _mm256_add_pd(acc1,
                             _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      _mm256_storeu_pd(orow, acc0);
      _mm256_storeu_pd(orow + 4, acc1);
    }
  }
  int j0 = n8;
  if (n - j0 >= 4) {
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      __m256d acc = _mm256_setzero_pd();
      for (int k = 0; k < kdim; ++k) {
        const __m256d av = _mm256_set1_pd(arow[k]);
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     av, _mm256_loadu_pd(b + static_cast<size_t>(k) * n + j0)));
      }
      _mm256_storeu_pd(out + static_cast<size_t>(i) * n + j0, acc);
    }
    j0 += 4;
  }
  if (j0 < n) {
    const int jw = n - j0;  // 1..3 trailing columns
    for (int i = 0; i < m; ++i) {
      const double* arow = a + static_cast<size_t>(i) * kdim;
      double acc[3] = {0.0, 0.0, 0.0};
      for (int k = 0; k < kdim; ++k) {
        const double av = arow[k];
        const double* brow = b + static_cast<size_t>(k) * n + j0;
        for (int j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      for (int j = 0; j < jw; ++j) orow[j] = acc[j];
    }
  }
}

void TransposeMatMulAvx2(const double* a, const double* b, double* out, int m,
                         int kdim, int n, bool accumulate) {
  const int n8 = n & ~7;
  for (int j0 = 0; j0 < n8; j0 += 8) {
    for (int i = 0; i < m; ++i) {
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      for (int t = 0; t < kdim; ++t) {
        const __m256d av = _mm256_set1_pd(a[static_cast<size_t>(t) * m + i]);
        const double* brow = b + static_cast<size_t>(t) * n + j0;
        acc0 = _mm256_add_pd(acc0, _mm256_mul_pd(av, _mm256_loadu_pd(brow)));
        acc1 = _mm256_add_pd(acc1,
                             _mm256_mul_pd(av, _mm256_loadu_pd(brow + 4)));
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      if (accumulate) {
        acc0 = _mm256_add_pd(_mm256_loadu_pd(orow), acc0);
        acc1 = _mm256_add_pd(_mm256_loadu_pd(orow + 4), acc1);
      }
      _mm256_storeu_pd(orow, acc0);
      _mm256_storeu_pd(orow + 4, acc1);
    }
  }
  int j0 = n8;
  if (n - j0 >= 4) {
    for (int i = 0; i < m; ++i) {
      __m256d acc = _mm256_setzero_pd();
      for (int t = 0; t < kdim; ++t) {
        const __m256d av = _mm256_set1_pd(a[static_cast<size_t>(t) * m + i]);
        acc = _mm256_add_pd(
            acc, _mm256_mul_pd(
                     av, _mm256_loadu_pd(b + static_cast<size_t>(t) * n + j0)));
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      if (accumulate) acc = _mm256_add_pd(_mm256_loadu_pd(orow), acc);
      _mm256_storeu_pd(orow, acc);
    }
    j0 += 4;
  }
  if (j0 < n) {
    const int jw = n - j0;
    for (int i = 0; i < m; ++i) {
      double acc[3] = {0.0, 0.0, 0.0};
      for (int t = 0; t < kdim; ++t) {
        const double av = a[static_cast<size_t>(t) * m + i];
        const double* brow = b + static_cast<size_t>(t) * n + j0;
        for (int j = 0; j < jw; ++j) acc[j] += av * brow[j];
      }
      double* orow = out + static_cast<size_t>(i) * n + j0;
      if (accumulate) {
        for (int j = 0; j < jw; ++j) orow[j] += acc[j];
      } else {
        for (int j = 0; j < jw; ++j) orow[j] = acc[j];
      }
    }
  }
}

void VecMatAvx2(const double* x, const double* w, double* out, int rows,
                int cols) {
  int j0 = 0;
  // 32 columns at a time: eight independent accumulators hide the add
  // latency of the per-row chains, and each x[r] is broadcast once.
  for (; j0 + 32 <= cols; j0 += 32) {
    __m256d acc[8];
    for (__m256d& a : acc) a = _mm256_setzero_pd();
    for (int r = 0; r < rows; ++r) {
      const __m256d xv = _mm256_set1_pd(x[r]);
      const double* wrow = w + static_cast<size_t>(r) * cols + j0;
      for (int q = 0; q < 8; ++q) {
        acc[q] = _mm256_add_pd(
            acc[q], _mm256_mul_pd(xv, _mm256_loadu_pd(wrow + 4 * q)));
      }
    }
    for (int q = 0; q < 8; ++q) _mm256_storeu_pd(out + j0 + 4 * q, acc[q]);
  }
  for (; j0 + 4 <= cols; j0 += 4) {
    __m256d acc = _mm256_setzero_pd();
    for (int r = 0; r < rows; ++r) {
      acc = _mm256_add_pd(
          acc, _mm256_mul_pd(_mm256_set1_pd(x[r]),
                             _mm256_loadu_pd(w + static_cast<size_t>(r) * cols +
                                             j0)));
    }
    _mm256_storeu_pd(out + j0, acc);
  }
  if (j0 < cols) {
    const int jw = cols - j0;  // 1..3 trailing columns
    double acc[3] = {0.0, 0.0, 0.0};
    for (int r = 0; r < rows; ++r) {
      const double* wrow = w + static_cast<size_t>(r) * cols + j0;
      for (int j = 0; j < jw; ++j) acc[j] += x[r] * wrow[j];
    }
    for (int j = 0; j < jw; ++j) out[j0 + j] = acc[j];
  }
}

/// OuterAccumulate's per-element chain for out rows [i0, i1) × columns
/// [j0, j1): the remainder blocks of the register-blocked main loop.
void OuterAccumulateTail(const double* a, const double* b, double* out, int m,
                         int kdim, int n, int i0, int i1, int j0, int j1) {
  for (int i = i0; i < i1; ++i) {
    for (int j = j0; j < j1; ++j) {
      double acc = out[static_cast<size_t>(i) * n + j];
      for (int t = kdim - 1; t >= 0; --t) {
        acc += a[static_cast<size_t>(t) * m + i] *
               b[static_cast<size_t>(t) * n + j];
      }
      out[static_cast<size_t>(i) * n + j] = acc;
    }
  }
}

void OuterAccumulateAvx2(const double* a, const double* b, double* out, int m,
                         int kdim, int n) {
  const int m4 = m & ~3;
  const int n8 = n & ~7;
  // 4 rows × 8 columns of out live in eight accumulators for the whole
  // t sweep, so out is loaded and stored once instead of once per t.
  for (int i0 = 0; i0 < m4; i0 += 4) {
    for (int j0 = 0; j0 < n8; j0 += 8) {
      double* orow = out + static_cast<size_t>(i0) * n + j0;
      __m256d lo[4], hi[4];
      for (int r = 0; r < 4; ++r) {
        lo[r] = _mm256_loadu_pd(orow + static_cast<size_t>(r) * n);
        hi[r] = _mm256_loadu_pd(orow + static_cast<size_t>(r) * n + 4);
      }
      for (int t = kdim - 1; t >= 0; --t) {
        const double* brow = b + static_cast<size_t>(t) * n + j0;
        const double* arow = a + static_cast<size_t>(t) * m + i0;
        const __m256d b0 = _mm256_loadu_pd(brow);
        const __m256d b1 = _mm256_loadu_pd(brow + 4);
        for (int r = 0; r < 4; ++r) {
          const __m256d av = _mm256_set1_pd(arow[r]);
          lo[r] = _mm256_add_pd(lo[r], _mm256_mul_pd(av, b0));
          hi[r] = _mm256_add_pd(hi[r], _mm256_mul_pd(av, b1));
        }
      }
      for (int r = 0; r < 4; ++r) {
        _mm256_storeu_pd(orow + static_cast<size_t>(r) * n, lo[r]);
        _mm256_storeu_pd(orow + static_cast<size_t>(r) * n + 4, hi[r]);
      }
    }
  }
  OuterAccumulateTail(a, b, out, m, kdim, n, 0, m4, n8, n);
  OuterAccumulateTail(a, b, out, m, kdim, n, m4, m, 0, n);
}

void AxpyAvx2(double a, const double* x, double* y, int n) {
  const __m256d av = _mm256_set1_pd(a);
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    const __m256d prod = _mm256_mul_pd(av, _mm256_loadu_pd(x + i));
    _mm256_storeu_pd(y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), prod));
  }
  for (int i = n4; i < n; ++i) y[i] += a * x[i];
}

void AddAvx2(const double* x, double* y, int n) {
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(
        y + i, _mm256_add_pd(_mm256_loadu_pd(y + i), _mm256_loadu_pd(x + i)));
  }
  for (int i = n4; i < n; ++i) y[i] += x[i];
}

void SubAvx2(const double* a, const double* b, double* out, int n) {
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    _mm256_storeu_pd(
        out + i,
        _mm256_sub_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i)));
  }
  for (int i = n4; i < n; ++i) out[i] = a[i] - b[i];
}

void AdamUpdateAvx2(double* value, double* grad, double* m, double* v, int n,
                    const AdamScalars& s) {
  const __m256d beta1 = _mm256_set1_pd(s.beta1);
  const __m256d beta2 = _mm256_set1_pd(s.beta2);
  const __m256d c1v = _mm256_set1_pd(1.0 - s.beta1);
  const __m256d c2v = _mm256_set1_pd(1.0 - s.beta2);
  const __m256d bias1 = _mm256_set1_pd(s.bias1);
  const __m256d bias2 = _mm256_set1_pd(s.bias2);
  const __m256d lr = _mm256_set1_pd(s.lr);
  const __m256d eps = _mm256_set1_pd(s.eps);
  const int n4 = n & ~3;
  for (int i = 0; i < n4; i += 4) {
    const __m256d g = _mm256_loadu_pd(grad + i);
    const __m256d mv = _mm256_add_pd(
        _mm256_mul_pd(beta1, _mm256_loadu_pd(m + i)), _mm256_mul_pd(c1v, g));
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(beta2, _mm256_loadu_pd(v + i)),
                      _mm256_mul_pd(_mm256_mul_pd(c2v, g), g));
    _mm256_storeu_pd(m + i, mv);
    _mm256_storeu_pd(v + i, vv);
    const __m256d mhat = _mm256_div_pd(mv, bias1);
    const __m256d vhat = _mm256_div_pd(vv, bias2);
    const __m256d step =
        _mm256_div_pd(_mm256_mul_pd(lr, mhat),
                      _mm256_add_pd(_mm256_sqrt_pd(vhat), eps));
    _mm256_storeu_pd(value + i,
                     _mm256_sub_pd(_mm256_loadu_pd(value + i), step));
    _mm256_storeu_pd(grad + i, _mm256_setzero_pd());
  }
  AdamUpdateScalar(value + n4, grad + n4, m + n4, v + n4, n - n4, s);
}

/// Ascending lane-order combine of one __m256d accumulator plus the scalar
/// tail, matching the scalar spec's `lanes[k % 4]` assignment.
inline double CombineLanes(__m256d acc, const double* a, const double* b,
                           int n4, int n) {
  alignas(32) double lanes[kLanes];
  _mm256_store_pd(lanes, acc);
  for (int k = n4; k < n; ++k) lanes[k - n4] += a[k] * b[k];
  return ((lanes[0] + lanes[1]) + lanes[2]) + lanes[3];
}

double DotAvx2(const double* a, const double* b, int n) {
  __m256d acc = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int k = 0; k < n4; k += 4) {
    acc = _mm256_add_pd(
        acc, _mm256_mul_pd(_mm256_loadu_pd(a + k), _mm256_loadu_pd(b + k)));
  }
  return CombineLanes(acc, a, b, n4, n);
}

void SumAndSumSqAvx2(const double* v, int n, double* sum, double* sumsq) {
  __m256d s = _mm256_setzero_pd();
  __m256d q = _mm256_setzero_pd();
  const int n4 = n & ~3;
  for (int k = 0; k < n4; k += 4) {
    const __m256d x = _mm256_loadu_pd(v + k);
    s = _mm256_add_pd(s, x);
    q = _mm256_add_pd(q, _mm256_mul_pd(x, x));
  }
  alignas(32) double sl[kLanes];
  alignas(32) double ql[kLanes];
  _mm256_store_pd(sl, s);
  _mm256_store_pd(ql, q);
  for (int k = n4; k < n; ++k) {
    const double x = v[k];
    sl[k - n4] += x;
    ql[k - n4] += x * x;
  }
  *sum = ((sl[0] + sl[1]) + sl[2]) + sl[3];
  *sumsq = ((ql[0] + ql[1]) + ql[2]) + ql[3];
}

void MatVecAvx2(const double* w, const double* bias, const double* z,
                double* out, int rows, int cols) {
  const int c4 = cols & ~3;
  int r = 0;
  // Four rows at a time: four independent accumulators hide the add
  // latency and the z chunk is loaded once per group.
  for (; r + 4 <= rows; r += 4) {
    const double* w0 = w + static_cast<size_t>(r) * cols;
    const double* w1 = w0 + cols;
    const double* w2 = w1 + cols;
    const double* w3 = w2 + cols;
    __m256d a0 = _mm256_setzero_pd();
    __m256d a1 = _mm256_setzero_pd();
    __m256d a2 = _mm256_setzero_pd();
    __m256d a3 = _mm256_setzero_pd();
    for (int c = 0; c < c4; c += 4) {
      const __m256d zv = _mm256_loadu_pd(z + c);
      a0 = _mm256_add_pd(a0, _mm256_mul_pd(_mm256_loadu_pd(w0 + c), zv));
      a1 = _mm256_add_pd(a1, _mm256_mul_pd(_mm256_loadu_pd(w1 + c), zv));
      a2 = _mm256_add_pd(a2, _mm256_mul_pd(_mm256_loadu_pd(w2 + c), zv));
      a3 = _mm256_add_pd(a3, _mm256_mul_pd(_mm256_loadu_pd(w3 + c), zv));
    }
    const double d0 = CombineLanes(a0, w0, z, c4, cols);
    const double d1 = CombineLanes(a1, w1, z, c4, cols);
    const double d2 = CombineLanes(a2, w2, z, c4, cols);
    const double d3 = CombineLanes(a3, w3, z, c4, cols);
    if (bias != nullptr) {
      out[r] = bias[r] + d0;
      out[r + 1] = bias[r + 1] + d1;
      out[r + 2] = bias[r + 2] + d2;
      out[r + 3] = bias[r + 3] + d3;
    } else {
      out[r] = d0;
      out[r + 1] = d1;
      out[r + 2] = d2;
      out[r + 3] = d3;
    }
  }
  for (; r < rows; ++r) {
    const double d = DotAvx2(w + static_cast<size_t>(r) * cols, z, cols);
    out[r] = (bias != nullptr ? bias[r] : 0.0) + d;
  }
}

void MatMulTransposeAvx2(const double* a, const double* b, double* out, int m,
                         int kdim, int n) {
  const int k4 = kdim & ~3;
  for (int i = 0; i < m; ++i) {
    const double* arow = a + static_cast<size_t>(i) * kdim;
    double* orow = out + static_cast<size_t>(i) * n;
    int j = 0;
    // Four b-rows at a time, sharing the arow loads.
    for (; j + 4 <= n; j += 4) {
      const double* b0 = b + static_cast<size_t>(j) * kdim;
      const double* b1 = b0 + kdim;
      const double* b2 = b1 + kdim;
      const double* b3 = b2 + kdim;
      __m256d a0 = _mm256_setzero_pd();
      __m256d a1 = _mm256_setzero_pd();
      __m256d a2 = _mm256_setzero_pd();
      __m256d a3 = _mm256_setzero_pd();
      for (int k = 0; k < k4; k += 4) {
        const __m256d av = _mm256_loadu_pd(arow + k);
        a0 = _mm256_add_pd(a0, _mm256_mul_pd(av, _mm256_loadu_pd(b0 + k)));
        a1 = _mm256_add_pd(a1, _mm256_mul_pd(av, _mm256_loadu_pd(b1 + k)));
        a2 = _mm256_add_pd(a2, _mm256_mul_pd(av, _mm256_loadu_pd(b2 + k)));
        a3 = _mm256_add_pd(a3, _mm256_mul_pd(av, _mm256_loadu_pd(b3 + k)));
      }
      orow[j] = CombineLanes(a0, arow, b0, k4, kdim);
      orow[j + 1] = CombineLanes(a1, arow, b1, k4, kdim);
      orow[j + 2] = CombineLanes(a2, arow, b2, k4, kdim);
      orow[j + 3] = CombineLanes(a3, arow, b3, k4, kdim);
    }
    for (; j < n; ++j) {
      orow[j] = DotAvx2(arow, b + static_cast<size_t>(j) * kdim, kdim);
    }
  }
}

constexpr KernelTable kAvx2Table = {
    MatMulAvx2,          TransposeMatMulAvx2, VecMatAvx2,
    OuterAccumulateAvx2, AxpyAvx2,            AddAvx2,
    SubAvx2,             AdamUpdateAvx2,      DotAvx2,
    SumAndSumSqAvx2,     MatVecAvx2,          MatMulTransposeAvx2,
    "avx2",
};

}  // namespace

const KernelTable* Avx2Kernels() { return &kAvx2Table; }

}  // namespace simd
}  // namespace fastft

#endif  // FASTFT_SIMD_AVX2 && __AVX2__
