// Runtime-dispatched dense kernels for the solver core.
//
// Every hot loop in src/math, src/opt and src/poly funnels through the tiny
// kernel set below: elementwise updates (axpy / add / sub / scale) and a
// four-lane dot product. The AVX2 implementations (simd_avx2.cpp, compiled
// with -mavx2 when the SCS_SIMD CMake option is ON) are written so that
// they are *bitwise identical* to the portable fallbacks:
//
//  - Elementwise kernels use separate multiply and add instructions (never
//    FMA), so each y[i] sees exactly the scalar sequence `y[i] + s * x[i]`.
//  - `dot` accumulates in four independent lanes -- lane j sums the terms
//    at indices congruent to j mod 4 -- and combines them in the fixed
//    order (l0 + l1) + (l2 + l3). The scalar fallback implements the same
//    lane structure with four scalar accumulators, so SCS_SIMD=ON and
//    SCS_SIMD=OFF builds produce identical bits on every machine.
//
// Two blocked kernels serve the batched MLP passes (rows of a matrix are
// samples). They keep the per-element sequences of the kernels above, so a
// batched pass gives the bits of the row-at-a-time one:
//
//  - `dot_rows` computes a table of `dot`s, each with `dot`'s lanes and
//    combine order; a block of outputs shares its operand loads.
//  - `accumulate_rows` adds a sum of outer products row by row, each
//    element seeing `g + a * b` (multiply, then add) in row order.
//  - `combine_rows` forms each output row as matvec_t does: from zero, one
//    `axpy` per nonzero coefficient in order.
//
// Dispatch is decided once at startup (__builtin_cpu_supports) and can be
// overridden per-thread with set_kernel_override for A/B benchmarks and the
// SIMD-vs-scalar equivalence tests: one binary exercises both paths.
#pragma once

#include <cstddef>

namespace scs::simd {

enum class Kernel {
  kAuto,    // pick the best implementation the CPU supports (default)
  kScalar,  // force the portable fallback
  kAvx2,    // force AVX2 (PreconditionError if unsupported or compiled out)
};

/// Force a kernel implementation on the calling thread (kAuto restores the
/// CPU-detected default). Used by benchmarks and equivalence tests.
void set_kernel_override(Kernel k);

/// The implementation that calls on this thread currently dispatch to:
/// "avx2" or "scalar".
const char* active_kernel_name();

/// True when this binary contains the AVX2 kernels and the CPU supports
/// them (the dispatch default is then AVX2).
bool avx2_available();

/// y[i] += s * x[i] for i in [0, n).
void axpy(double* y, double s, const double* x, std::size_t n);

/// y[i] += x[i].
void add(double* y, const double* x, std::size_t n);

/// y[i] -= x[i].
void sub(double* y, const double* x, std::size_t n);

/// y[i] *= s.
void scale(double* y, double s, std::size_t n);

/// Four-lane dot product: lane j accumulates x[i]*y[i] over i == j (mod 4),
/// lanes combine as (l0 + l1) + (l2 + l3). Deterministic across scalar and
/// AVX2 paths, but NOT bitwise-equal to a plain serial accumulation.
double dot(const double* x, const double* y, std::size_t n);

/// out[r * out_stride + i] = dot(x + r * x_stride, w + i * w_stride, n) for
/// r in [0, x_rows), i in [0, w_rows): each entry bitwise-equal to `dot`.
void dot_rows(const double* x, std::size_t x_rows, std::size_t x_stride,
              const double* w, std::size_t w_rows, std::size_t w_stride,
              std::size_t n, double* out, std::size_t out_stride);

/// g[i * g_stride + j] += a[r * a_stride + i] * b[r * b_stride + j] for
/// r = 0, 1, ..., rows - 1 in turn, i in [0, m), j in [0, n): the sum of
/// the rows' outer products, each term a separate multiply and add.
void accumulate_rows(double* g, std::size_t g_stride, const double* a,
                     std::size_t a_stride, std::size_t m, const double* b,
                     std::size_t b_stride, std::size_t n, std::size_t rows);

/// out[r * out_stride + j] = sum of a[r * a_stride + i] * w[i * w_stride + j]
/// over the i in [0, m) whose coefficient is nonzero, added in increasing i
/// onto 0.0 (matvec_t per row), for r in [0, rows), j in [0, n).
void combine_rows(const double* a, std::size_t a_stride, std::size_t m,
                  const double* w, std::size_t w_stride, std::size_t n,
                  double* out, std::size_t out_stride, std::size_t rows);

}  // namespace scs::simd
