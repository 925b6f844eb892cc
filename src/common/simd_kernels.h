// Vectorized dense kernels under the deterministic contract.
//
// This is the one blessed home for SIMD intrinsics in the tree (enforced by
// the raw-intrinsics lint rule): every caller goes through the dispatching
// entry points below, which route to an AVX2 or NEON implementation when one
// was compiled in (FASTFT_SIMD=ON) and the host supports it, and to the
// scalar reference otherwise. The scalar and vector implementations of each
// kernel are bit-identical by construction, so flipping SIMD on or off (at
// build time, via the FASTFT_SIMD environment variable, or with SetEnabled)
// never changes a single output byte. Two summation-order families make that
// possible:
//
//   A. Element-parallel kernels (MatMul, TransposeMatMul, VecMat,
//      OuterAccumulate, Axpy, Add, Sub, AdamUpdate): vector lanes hold
//      *different output elements*; each element is still one chain of
//      additions in a fixed inner-index order (ascending, except
//      OuterAccumulate's documented descending chain), exactly the textbook
//      loop. Lane width is irrelevant to the result, so these are bitwise
//      equal to the naive scalar kernel on any ISA.
//
//   B. Lane-split reductions (Dot, SumAndSumSq, MatVec, MatMulTranspose):
//      a single sum is accumulated in kLanes (= 4) fixed *logical* lanes —
//      element i goes to lane i % kLanes, the tail keeps that assignment —
//      and the lanes are combined in ascending order at the end:
//      ((l0 + l1) + l2) + l3. The lane count is a constant of the contract,
//      not the ISA width, so scalar, AVX2 (4 doubles), and NEON (2 doubles,
//      two registers per logical group) all produce identical bits.
//
// Fused multiply-add is never used (vfmadd / FMLA round once, mul+add
// rounds twice), and the library builds with -ffp-contract=off so compilers
// cannot contract the scalar reference either.
//
// NaN/Inf semantics: no kernel short-circuits zero operands, so 0 · Inf and
// 0 · NaN propagate NaN instead of silently vanishing (the Matrix contract).

#pragma once

#include <cstddef>

namespace fastft {
namespace simd {

/// Logical accumulation lanes of every family-B reduction. Fixed by the
/// determinism contract; independent of the ISA vector width.
inline constexpr int kLanes = 4;

/// Name of the backend the dispatcher would use right now:
/// "avx2", "neon", or "scalar".
const char* ActiveBackend();

/// True when a vector backend was compiled in (FASTFT_SIMD=ON) and the host
/// CPU supports it; independent of the runtime toggle.
bool VectorBackendAvailable();

/// Runtime toggle for tests and benches: when false every entry point runs
/// the scalar reference. Results are bit-identical either way. Not
/// synchronized with in-flight kernel calls — flip it only between runs.
void SetEnabled(bool enabled);
bool Enabled();

// --- Family A: element-parallel kernels (per-element ascending-k chains) ---

/// out = a · b with a (m × kdim), b (kdim × n), all row-major.
/// out must not alias a or b. Each out(i, j) is one ascending-k chain.
void MatMul(const double* a, const double* b, double* out, int m, int kdim,
            int n);

/// out(i, j) = Σ_t a(t, i) · b(t, j), t ascending — aᵀ·b without forming the
/// transpose; a is (kdim × m), b is (kdim × n). When `accumulate` is true
/// each fully-summed element is added into out with a single += (the
/// gradient-fusion order), otherwise it overwrites.
void TransposeMatMul(const double* a, const double* b, double* out, int m,
                     int kdim, int n, bool accumulate);

/// out[j] = Σ_r x[r] · w(r, j), r ascending, each chain starting from 0 —
/// the row vector x (length rows) times w (rows × cols, row-major), i.e.
/// wᵀ·x without forming the transpose. out must not alias x or w.
void VecMat(const double* x, const double* w, double* out, int rows,
            int cols);

/// out(i, j) += a(t, i) · b(t, j) for t = kdim − 1 down to 0: a sum of kdim
/// outer products added into out one rounded add at a time, each element's
/// chain starting from its current value. a is (kdim × m), b is (kdim × n),
/// out is (m × n), all row-major; out must not alias a or b. This is the
/// chain that kdim successive `Axpy(a(t, i), b row t, out row i)` sweeps
/// with t descending build, so a backward pass may defer its per-timestep
/// weight-gradient sweeps to one call.
void OuterAccumulate(const double* a, const double* b, double* out, int m,
                     int kdim, int n);

/// y[i] += a · x[i].
void Axpy(double a, const double* x, double* y, int n);

/// y[i] += x[i].
void Add(const double* x, double* y, int n);

/// out[i] = a[i] - b[i].
void Sub(const double* a, const double* b, double* out, int n);

/// Scalars of one Adam step: bias1 = 1 − beta1^t and bias2 = 1 − beta2^t.
struct AdamScalars {
  double lr, beta1, beta2, eps, bias1, bias2;
};

/// One Adam update over n elements, then grad[i] = 0:
///   m[i] = beta1·m[i] + (1 − beta1)·g;  v[i] = beta2·v[i] + ((1 − beta2)·g)·g
///   value[i] −= (lr · (m[i] / bias1)) / (sqrt(v[i] / bias2) + eps)
/// with g = grad[i]. Division and square root are correctly rounded in IEEE
/// 754, so vector lanes reproduce the scalar expression bit for bit.
void AdamUpdate(double* value, double* grad, double* m, double* v, int n,
                const AdamScalars& s);

// --- Family B: lane-split reductions (kLanes logical lanes, ascending
// lane-order combine) -------------------------------------------------------

/// Lane-split dot product Σ_k a[k] · b[k].
double Dot(const double* a, const double* b, int n);

/// Lane-split Σ v[i] and Σ v[i]², one pass.
void SumAndSumSq(const double* v, int n, double* sum, double* sumsq);

/// out[r] = bias[r] + Dot(w row r, z) for r in [0, rows); w is
/// (rows × cols) row-major, bias may be null (treated as 0).
void MatVec(const double* w, const double* bias, const double* z, double* out,
            int rows, int cols);

/// out(i, j) = Dot(a row i, b row j) — a·bᵀ without forming the transpose;
/// a is (m × kdim), b is (n × kdim). out must not alias a or b.
void MatMulTranspose(const double* a, const double* b, double* out, int m,
                     int kdim, int n);

/// The dispatch table: one function pointer per kernel. Backends fill a
/// table; the entry points above call through the active one.
struct KernelTable {
  void (*matmul)(const double*, const double*, double*, int, int, int);
  void (*transpose_matmul)(const double*, const double*, double*, int, int,
                           int, bool);
  void (*vec_mat)(const double*, const double*, double*, int, int);
  void (*outer_accumulate)(const double*, const double*, double*, int, int,
                           int);
  void (*axpy)(double, const double*, double*, int);
  void (*add)(const double*, double*, int);
  void (*sub)(const double*, const double*, double*, int);
  void (*adam_update)(double*, double*, double*, double*, int,
                      const AdamScalars&);
  double (*dot)(const double*, const double*, int);
  void (*sum_and_sumsq)(const double*, int, double*, double*);
  void (*matvec)(const double*, const double*, const double*, double*, int,
                 int);
  void (*matmul_transpose)(const double*, const double*, double*, int, int,
                           int);
  const char* name;
};

}  // namespace simd
}  // namespace fastft
