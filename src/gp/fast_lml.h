/**
 * @file
 * Vectorized negative-log-marginal-likelihood evaluator for the
 * hyper-parameter search.
 *
 * GaussianProcess::optimizeHyperparameters spends essentially all of
 * its time evaluating the LML at probe points: rebuild the Gram from
 * the cached pairwise distances, factor it, solve for alpha, sum the
 * log-determinant. The exact path does that through the kernel's
 * virtual scalar interface and the shared Cholesky with its
 * strict-order dot products — bit-reproducible, but ~5x slower than
 * the arithmetic requires. This module is the probe tier: a
 * self-contained evaluator over the same cached distances that
 *
 *  - inlines the three radial forms the library ships (Matérn 5/2,
 *    Matérn 3/2, RBF) with a branchless polynomial exp over the
 *    negative domain,
 *  - factors a packed lower-triangular Gram with fixed 4-accumulator
 *    dot products, and
 *  - computes the data-fit term through one forward solve
 *    (y'K⁻¹y = z'z with z = L⁻¹y) instead of a full solve.
 *
 * The returned value agrees with the exact objective to roundoff
 * (~1e-12 relative) but is NOT bit-identical to it: the dot products
 * reassociate and exp is a faithful polynomial rather than libm. The
 * search therefore uses this tier for every Nelder-Mead probe and
 * re-evaluates only the winner through the exact objective, so the
 * fitted model state is produced by exactly the code path fit() uses.
 *
 * Rejection semantics mirror the exact objective so the search walks
 * the same effective domain: any |log-param| > 12 or non-finite value
 * scores 1e12, and a Gram that stays non-positive-definite through the
 * exact path's jitter ladder (0, then 1e-10 … 1e-2 decades) also
 * scores 1e12.
 *
 * Two identical implementations are compiled, one for the build's
 * baseline ISA and one for AVX2+FMA (#pragma GCC target), dispatched
 * at runtime. All arithmetic is element-wise, compiler contraction is
 * disabled project-wide (-ffp-contract=off), and the hot
 * loops fuse through an explicit correctly-rounded fma helper (one
 * vfmaddpd in the wide variant, libm fma in the baseline — the same
 * IEEE value either way), so the variants are bit-identical to each
 * other — pinned by tests/gp/fast_lml_test.cpp — and the probe values
 * do not depend on the host CPU.
 */

#ifndef CLITE_GP_FAST_LML_H
#define CLITE_GP_FAST_LML_H

#include <cstddef>
#include <optional>
#include <string>
#include <vector>

namespace clite {
namespace gp {

/** Radial kernel forms with a fast-tier implementation. */
enum class RadialForm
{
    Matern52,
    Matern32,
    Rbf,
};

/**
 * Fast-tier form for a Kernel::name(), or nullopt when the kernel is
 * unknown to this module (the caller falls back to exact probes).
 */
std::optional<RadialForm> radialFormFor(const std::string& kernel_name);

/**
 * One hyper-fit problem: everything the evaluator reads besides the
 * probe point. Pointers are borrowed and must outlive the evaluator
 * calls; all referenced data is immutable during the search, so one
 * problem can serve concurrent evaluations (each with its own
 * scratch).
 */
struct FastLmlProblem
{
    size_t n = 0;           ///< Training points.
    size_t dims = 0;        ///< Input dimensions.
    bool isotropic = true;  ///< One shared length-scale vs ARD.
    bool fit_noise = true;  ///< Last log-param is log noise variance.
    RadialForm form = RadialForm::Matern52;
    /** Noise variance used when !fit_noise. */
    double noise_variance = 0.0;
    /** Pairwise squared distances, pair (i, j<i) at i(i-1)/2 + j. */
    const double* pair_sqdist = nullptr;
    /**
     * ARD only: training inputs, dimension-major — entry [k * n + i].
     * The per-probe scaled distances come from the weighted-Gram
     * identity r²_ij = q_i + q_j − 2 Σ_k w_k x_ik x_jk over this d×n
     * panel (L1-resident) instead of an O(n²d) difference table.
     */
    const double* x_t = nullptr;
    /** Standardized targets (n values). */
    const double* ys_std = nullptr;
};

/**
 * Reusable per-thread workspace; evaluations are allocation-free once
 * the buffers have grown to the problem size.
 */
struct FastLmlScratch
{
    std::vector<double> r2;     ///< Scaled squared distances per pair.
    std::vector<double> kv;     ///< Kernel values per pair.
    std::vector<double> factor; ///< Packed lower-triangular L.
    std::vector<double> z;      ///< Forward-solve vector.
    std::vector<double> inv_l2; ///< Per-dimension 1/ℓ² (ARD).
    std::vector<double> q;      ///< Weighted squared norms (ARD).
    std::vector<double> wa;     ///< Weighted-row block (ARD Gram).
    std::vector<double> invd;   ///< Reciprocal factor diagonal.
    std::vector<double> panel;  ///< Transposed 4-row factor panel.
};

/**
 * Negative log marginal likelihood of @p problem at log-params
 * @p p[0..np) (kernel params first, then log noise variance when
 * fit_noise). Dispatches to the widest implementation the host
 * supports; all variants return bit-identical values.
 */
double fastNegLogMarginal(const FastLmlProblem& problem, const double* p,
                          size_t np, FastLmlScratch& scratch);

namespace detail {

/** Baseline-ISA variant (exposed for the equivalence test). */
double fastNegLogMarginalBase(const FastLmlProblem& problem,
                              const double* p, size_t np,
                              FastLmlScratch& scratch);

/** AVX2+FMA variant (valid to call only when avx2Supported()). */
double fastNegLogMarginalAvx2(const FastLmlProblem& problem,
                              const double* p, size_t np,
                              FastLmlScratch& scratch);

/** True when the host executes AVX2 and FMA. */
bool avx2Supported();

} // namespace detail

} // namespace gp
} // namespace clite

#endif // CLITE_GP_FAST_LML_H
