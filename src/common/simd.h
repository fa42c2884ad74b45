#ifndef TRIAD_COMMON_SIMD_H_
#define TRIAD_COMMON_SIMD_H_

#include <cstdint>

namespace triad::simd {

/// \brief Instruction-set tiers the kernel layer can dispatch to.
///
/// The tier is chosen once at startup (see ActiveLevel) from what the CPU
/// supports and the `TRIAD_SIMD` environment variable:
///
///   TRIAD_SIMD=off | scalar   force the portable scalar path
///   TRIAD_SIMD=avx2           force AVX2+FMA (falls back to scalar if the
///                             CPU lacks it)
///   TRIAD_SIMD=auto | unset   highest tier the CPU supports
///
/// Determinism contract (see ARCHITECTURE.md §4):
///
///  * **Elementwise kernels** (Axpy, Add, Mul, Relu, SlidingDotUpdate,
///    ZNormDistRow) perform the exact same IEEE operation sequence per
///    element at every tier — vector lanes are just scalar lanes side by
///    side, and FMA contraction is never used — so their output is
///    **bit-identical** to the scalar reference.
///  * **Reduction kernels** (Dot, Sum) accumulate in double precision at
///    every tier; the vector tiers use a fixed-width lane split, so the
///    only divergence from the scalar reference is double-rounding of
///    reordered exact partials — within a few ULPs of the result, and
///    bit-stable run-to-run at a given tier.
///
/// Combined with the fixed chunking of common/parallel.h, results are
/// bit-identical across thread counts at any given tier.
enum class Level : int {
  kScalar = 0,
  kAvx2 = 1,  ///< AVX2 + FMA (FMA used only where contraction is allowed)
};

/// Name for logs/benchmark labels ("scalar", "avx2").
const char* LevelName(Level level);

/// Highest tier this CPU can execute (ignores TRIAD_SIMD).
Level HighestSupportedLevel();

/// The tier kernels dispatch to: decided once from HighestSupportedLevel()
/// and TRIAD_SIMD, then cached; ScopedForceLevel overrides it.
Level ActiveLevel();

/// \brief RAII override of ActiveLevel() for the equivalence tests and the
/// scalar-vs-SIMD benches. Requests above HighestSupportedLevel() are
/// clamped. Overrides nest; install/remove from a single thread only (the
/// same discipline as ScopedDefaultPool).
class ScopedForceLevel {
 public:
  explicit ScopedForceLevel(Level level);
  ~ScopedForceLevel();

  ScopedForceLevel(const ScopedForceLevel&) = delete;
  ScopedForceLevel& operator=(const ScopedForceLevel&) = delete;

 private:
  int previous_;  // -1 = no override was active
};

/// \brief Numeric precision tiers for the inference-only kernels
/// (ARCHITECTURE.md §12).
///
/// Orthogonal to the instruction-set Level: the precision tier decides
/// whether the distance-profile consumers (MASS/STOMP rows, the detector
/// similarity scan) run the double kernels or the float32 variants below,
/// which double the lane width on AVX2 (8 float lanes vs 4 double lanes)
/// and halve the memory traffic. Training (src/nn, the trainer) never
/// consults the precision tier — model quality stays in double.
///
/// Accuracy contract (gated by tests/kernel_equivalence_test.cc and the
/// f32 leg of tests/detector_golden_test.cc):
///
///  * **Elementwise f32 kernels** (SlidingDotUpdateF32, ZNormDistRowF32)
///    perform the same IEEE-single operation sequence per element at every
///    SIMD tier (correctly rounded div/sqrt, no FMA), so they are
///    **bit-identical** between the scalar and AVX2 tiers.
///  * **Reduction f32 kernels** (DotF32, DotPairF32) accumulate in single
///    precision (that is the speed win) with a fixed lane split; scalar
///    and AVX2 differ by reordered single rounding, bounded against the
///    double reference by an O(n·eps_f32) relative envelope.
///  * Verdict preservation: the fixed-seed golden pipeline produces the
///    identical alarm timeline and discord selections at both precision
///    tiers; only the trailing digits of distances/votes move.
enum class Precision : int {
  kF64 = 0,  ///< double kernels everywhere (the default and the reference)
  kF32 = 1,  ///< float32 inference kernels behind the same SIMD dispatch
};

/// \brief A per-tenant/per-call precision request that can defer to the
/// process environment: kAuto resolves to ActivePrecision() (the
/// TRIAD_PRECISION env knob), the explicit values pin the tier.
enum class PrecisionRequest : int {
  kAuto = 0,
  kF64 = 1,
  kF32 = 2,
};

/// Name for logs/benchmark labels ("f64", "f32").
const char* PrecisionName(Precision precision);

/// The process-default precision tier: decided once from the
/// `TRIAD_PRECISION` environment variable (`f32`/`float32`/`single` select
/// kF32, anything else — including unset and `f64` — selects kF64), then
/// cached; ScopedForcePrecision overrides it on the *current thread*.
Precision ActivePrecision();

/// Resolves a request against the environment default: kAuto returns
/// ActivePrecision(), explicit requests return themselves.
Precision ResolvePrecision(PrecisionRequest request);

/// \brief RAII override of ActivePrecision() for tests, benches and
/// per-tenant serving. Unlike ScopedForceLevel the override is
/// **thread-local**: fleet drains run tenants concurrently on pool lanes,
/// and each tenant pins its own tier around its Detect call without racing
/// the others. Consumers resolve the tier once at entry on the calling
/// thread and pass the resolved value into any parallel region (pool
/// workers never read the ambient override).
class ScopedForcePrecision {
 public:
  explicit ScopedForcePrecision(Precision precision);
  ~ScopedForcePrecision();

  ScopedForcePrecision(const ScopedForcePrecision&) = delete;
  ScopedForcePrecision& operator=(const ScopedForcePrecision&) = delete;

 private:
  int previous_;  // -1 = no override was active on this thread
};

// ---------------------------------------------------------------------------
// Reduction kernels (double accumulation; ≤ a few ULP across tiers).
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i], accumulated in double (float x float products are
/// exact in double, so tiers differ only by summation order).
double Dot(const float* a, const float* b, int64_t n);

/// sum_i x[i], accumulated in double.
double Sum(const float* x, int64_t n);

// ---------------------------------------------------------------------------
// Elementwise kernels (bit-identical across tiers).
// ---------------------------------------------------------------------------

/// y[i] += alpha * x[i] (separate round of the product and the add — no
/// FMA — so every tier matches the scalar reference bit for bit).
void Axpy(float alpha, const float* x, float* y, int64_t n);

/// out[i] = a[i] + b[i].
void Add(const float* a, const float* b, float* out, int64_t n);

/// out[i] = a[i] * b[i].
void Mul(const float* a, const float* b, float* out, int64_t n);

/// out[i] = max(x[i], 0) with the `x > 0 ? x : 0` branch semantics of the
/// scalar path (so relu(-0.0) = 0.0 and relu(NaN) = 0 at every tier).
void Relu(const float* x, float* out, int64_t n);

/// \brief In-place backward sliding-dot-product update shared by STOMP.
///
/// For j = n-1 down to 1:  qt[j] = qt[j-1] - drop * tail[j-1] + add * head[j-1]
/// (qt[0] is left untouched; the caller patches it from the symmetry row).
/// Each output element depends only on *pre-update* values, so the vector
/// tiers compute blocks top-down with the identical mul/sub/mul/add
/// sequence and stay bit-identical to the scalar loop.
void SlidingDotUpdate(double* qt, int64_t n, double drop, const double* tail,
                      double add, const double* head);

/// \brief Diagonal dot-product step of the all-lengths discord sweep
/// (discord/sweep.cc): every diagonal's running dot product slides one row.
///
///   q[k] = q[k] + (add * head[k] - drop * tail[k])   for k in [0, n)
///
/// One independent mul/mul/sub/add chain per element, so the vector tiers
/// are bit-identical to the scalar loop.
void DiagonalDotUpdate(double* q, int64_t n, double drop, const double* tail,
                       double add, const double* head);

/// \brief Correlation row of the all-lengths discord sweep: row i's Pearson
/// correlations against windows j = i + k, folded into the per-column best.
///
///   c[k]    = ((q[k] * inv_m - mu_i * mu[k]) * inv_i) * inv_sd[k]
///             + penalty[k]
///   best[k] = best[k] < c[k] ? c[k] : best[k]
///
/// Returns max_k c[k] (-inf for n == 0). The row maximum keeps four
/// interleaved partial maxima (k mod 4), folded as max(max(p0, p1),
/// max(p2, p3)) at every tier, so tiers agree bit for bit, the sign of a
/// zero included.
double SweepCorrRow(const double* q, const double* mu, const double* inv_sd,
                    const double* penalty, double mu_i, double inv_i,
                    double inv_m, double* best, int64_t n);

/// \brief Fused multi-tap row accumulation — the inner kernel of Conv1d
/// forward and the dense matmul.
///
///   orow[l] += sum_{ci, t} w[ci*taps + t] * x[ci*xstride + l + t*dilation]
///
/// applied per element in (ci, t) order with a separate round of each
/// product and add (no FMA). That per-element chain is exactly what the
/// one-axpy-per-tap formulation produces, so all tiers are bit-identical
/// to the scalar reference; the vector tiers just keep a register block of
/// `orow` live across all cin*taps terms instead of re-reading the row per
/// tap. Taps whose weight is exactly 0.0f are skipped at every tier.
/// `x` and `orow` must not alias. A dense matmul row is the degenerate
/// conv: taps = 1, dilation = 0, xstride = row stride of the B matrix.
void ConvRowAccum(const float* x, int64_t xstride, const float* w,
                  int64_t cin, int64_t taps, int64_t dilation, float* orow,
                  int64_t lout);

/// \brief All `taps` shifted dot products of one window against one
/// gradient row — the inner kernel of the batched Conv1d weight gradient.
///
///   out[t] = sum_l x[l + t*dilation] * g[l],  t in [0, taps)
///
/// Each tap accumulates in double with exactly Dot's per-tap operation
/// chain (same lane split, same fold, same scalar tail), so every out[t]
/// is bit-identical to a separate Dot(x + t*dilation, g, lout) call at the
/// same tier; the fusion just loads each g block once for all taps instead
/// of once per tap. `taps` must be in [1, 8].
void ConvTapDots(const float* x, const float* g, int64_t taps,
                 int64_t dilation, int64_t lout, double* out);

/// \brief Fused multi-tap *scatter* row accumulation — the inner kernel of
/// the batched Conv1d input gradient (the adjoint of ConvRowAccum).
///
///   drow[l + t*dilation] += w[co*wstride + t] * g[co*gstride + l]
///
/// for all co in [0, cout), t in [0, taps), l in [0, lout); `drow` has
/// lout + (taps-1)*dilation elements. Per element the (co, t) terms apply
/// in ascending order with a separate round of each product and add (no
/// FMA) and zero weights skipped — exactly the chain the one-axpy-per-tap
/// formulation produces — so all tiers are bit-identical to the scalar
/// reference. The vector tiers keep a register block of the interior of
/// `drow` live across all cout*taps terms; the (taps-1)*dilation edge
/// elements on each side fall back to per-tap partial passes in the same
/// (co, t) order. `g` and `drow` must not alias.
void CorrRowAccum(const float* g, int64_t gstride, const float* w,
                  int64_t wstride, int64_t cout, int64_t taps,
                  int64_t dilation, float* drow, int64_t lout);

/// \brief Two dot products sharing the left operand: out2[0] = Dot(a, b0, n),
/// out2[1] = Dot(a, b1, n), with each accumulated in Dot's exact per-column
/// chain (bit-identical to two separate Dot calls at the same tier). The
/// fusion halves the `a` loads — the win of the row-blocked GemmTransB.
void DotPair(const float* a, const float* b0, const float* b1, int64_t n,
             double* out2);

/// out[i] = relu(a[i] + b[i]) with Relu's branch semantics — one pass over
/// the operands instead of an Add pass plus a Relu pass.
void AddRelu(const float* a, const float* b, float* out, int64_t n);

/// out[i] = (a[i] + b[i]) > 0 ? g[i] : 0 — the relu gradient mask of a
/// fused add+relu, recomputed from the saved operands in one pass.
void AddReluMask(const float* a, const float* b, const float* g, float* out,
                 int64_t n);

/// out[i] = x[i] > 0 ? g[i] : 0 — the relu gradient mask against the saved
/// input (NaN inputs mask to 0, matching the scalar branch).
void ReluMask(const float* x, const float* g, float* out, int64_t n);

/// \brief Z-normalized distance row shared by MASS and STOMP.
///
/// Given sliding dot products `dot[j]` of a fixed query subsequence
/// (mean mu_q, stddev sd_q, length m) against window j (mean mu[j], stddev
/// sd[j]):
///
///   corr[j] = (dot[j] - (m*mu_q)*mu[j]) / ((m*sd_q)*sd[j])
///   out[j]  = sqrt(max(0, 2m * (1 - clamp(corr[j], -1, 1))))
///
/// Flat guards: any stddev < 1e-12 yields +inf (the pair has no defined
/// z-normalized distance; downstream consumers exclude it via isfinite), or
/// 0 when both sides are flat. Division and sqrt are correctly rounded IEEE
/// ops, so vector tiers are bit-identical to the scalar reference.
void ZNormDistRow(const double* dot, const double* mu, const double* sd,
                  double mu_q, double sd_q, int64_t m, double* out, int64_t n);

// ---------------------------------------------------------------------------
// Float32 inference kernels (the kF32 precision tier; ARCHITECTURE.md §12).
// Dispatched on the same SIMD Level as the double kernels — the precision
// tier only decides whether consumers call these instead of the double
// variants. Training code must never reach them.
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i] accumulated in **single** precision (fixed lane split
/// on AVX2, FMA allowed — it is a reduction). Scalar and vector tiers may
/// differ by reordered single rounding; both stay within an O(n·eps_f32)
/// relative envelope of the double reference (gated in
/// kernel_equivalence_test.cc).
float DotF32(const float* a, const float* b, int64_t n);

/// Two single-precision dot products sharing the left operand; each output
/// is bit-identical to the corresponding DotF32 call at the same tier (the
/// fusion only shares the `a` loads).
void DotPairF32(const float* a, const float* b0, const float* b1, int64_t n,
                float* out2);

/// Float32 SlidingDotUpdate: for j = n-1 down to 1,
///   qt[j] = qt[j-1] - drop * tail[j-1] + add * head[j-1]
/// with a separate single round of each product and add (no FMA), so every
/// SIMD tier is bit-identical to the scalar reference. qt[0] untouched.
void SlidingDotUpdateF32(float* qt, int64_t n, float drop, const float* tail,
                         float add, const float* head);

/// Float32 ZNormDistRow with the exact structure of the double kernel
/// (same flat guards at the same 1e-12 threshold, which is exactly
/// representable in single precision; correctly rounded IEEE div/sqrt), so
/// vector tiers are bit-identical to the scalar f32 reference.
void ZNormDistRowF32(const float* dot, const float* mu, const float* sd,
                     float mu_q, float sd_q, int64_t m, float* out, int64_t n);

// ---------------------------------------------------------------------------
// Scalar reference implementations, exported for the equivalence tests and
// as the dispatch targets of the kScalar tier.
// ---------------------------------------------------------------------------
namespace scalar {
double Dot(const float* a, const float* b, int64_t n);
double Sum(const float* x, int64_t n);
void Axpy(float alpha, const float* x, float* y, int64_t n);
void Add(const float* a, const float* b, float* out, int64_t n);
void Mul(const float* a, const float* b, float* out, int64_t n);
void Relu(const float* x, float* out, int64_t n);
void ConvRowAccum(const float* x, int64_t xstride, const float* w,
                  int64_t cin, int64_t taps, int64_t dilation, float* orow,
                  int64_t lout);
void ConvTapDots(const float* x, const float* g, int64_t taps,
                 int64_t dilation, int64_t lout, double* out);
void CorrRowAccum(const float* g, int64_t gstride, const float* w,
                  int64_t wstride, int64_t cout, int64_t taps,
                  int64_t dilation, float* drow, int64_t lout);
void DotPair(const float* a, const float* b0, const float* b1, int64_t n,
             double* out2);
void AddRelu(const float* a, const float* b, float* out, int64_t n);
void AddReluMask(const float* a, const float* b, const float* g, float* out,
                 int64_t n);
void ReluMask(const float* x, const float* g, float* out, int64_t n);
void SlidingDotUpdate(double* qt, int64_t n, double drop, const double* tail,
                      double add, const double* head);
void ZNormDistRow(const double* dot, const double* mu, const double* sd,
                  double mu_q, double sd_q, int64_t m, double* out, int64_t n);
void DiagonalDotUpdate(double* q, int64_t n, double drop, const double* tail,
                       double add, const double* head);
double SweepCorrRow(const double* q, const double* mu, const double* inv_sd,
                    const double* penalty, double mu_i, double inv_i,
                    double inv_m, double* best, int64_t n);
float DotF32(const float* a, const float* b, int64_t n);
void DotPairF32(const float* a, const float* b0, const float* b1, int64_t n,
                float* out2);
void SlidingDotUpdateF32(float* qt, int64_t n, float drop, const float* tail,
                         float add, const float* head);
void ZNormDistRowF32(const float* dot, const float* mu, const float* sd,
                     float mu_q, float sd_q, int64_t m, float* out, int64_t n);
}  // namespace scalar

}  // namespace triad::simd

#endif  // TRIAD_COMMON_SIMD_H_
