// Backward-pass steps shared by the recurrent backbones (LstmLayer,
// RnnLayer). Both compute pre = W·z_t + b with z_t = [h_{t-1}; x_t] at
// every timestep, so both backpropagate through it the same way: inside the
// time loop only dz_t = Wᵀ·dpre_t (BackpropTimestep), which the recurrence
// needs at once; after the loop, every timestep's weight and bias gradient
// in one pass (AccumulateRecurrentGrads).
//
// Exactness against per-timestep sweeps that skipped rows with dpre == 0:
// with finite z and W, such a row adds products 0·z = ±0. A chain that
// starts at +0 never becomes -0 under round-to-nearest (x + y is -0 only
// when both are -0), and adding ±0 to +0 or to a nonzero value returns it
// unchanged, so the skipped terms cannot change a bit of dz, of the weight
// gradient, or of the bias gradient. Gradients start at +0 because ZeroGrad
// and the optimizer step write +0 into them. The same argument lets a
// timestep whose dpre is all zero skip its product and its gradient terms.

#pragma once

#include "nn/matrix.h"

namespace fastft {
namespace nn {

/// dz = Wᵀ·dpre for one timestep (simd::VecMat); w is (rows × zdim), dpre
/// has rows entries, dz has zdim. When dpre is all zero, writes +0 into dz
/// without the product — the bits the product would give — and returns
/// false: the timestep adds nothing to the parameter gradients either.
bool BackpropTimestep(const double* dpre, const Matrix& w, double* dz);

/// Adds the parameter gradients of timesteps [first, last] (none when
/// last < first): with dpre (len × rows) the pre-activation gradients and z
/// (len × zdim) the forward inputs,
///   w->grad += Σ_t dpre_t ⊗ z_t   and   b->grad += Σ_t dpre_t,
/// t descending, one rounded add per term — the same chains a backward
/// time loop builds by updating the gradients at every timestep. w is
/// (rows × zdim), b is (rows × 1).
void AccumulateRecurrentGrads(const double* dpre, const double* z, int first,
                              int last, Parameter* w, Parameter* b);

}  // namespace nn
}  // namespace fastft
