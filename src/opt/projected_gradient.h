/**
 * @file
 * Projected-gradient ascent over a product of box-truncated simplices.
 *
 * This is the library's stand-in for the paper's SLSQP call (Sec. 4,
 * Eq. 4–6): CLITE maximizes the acquisition function a(x(j,r)) subject
 * to per-resource bounds (Eq. 5) and per-resource sum equalities
 * (Eq. 6). The feasible set factorizes into one simplex-box block per
 * resource, so projected gradient with the exact projection of
 * opt/simplex.h solves the same constrained program.
 *
 * Gradients are central finite differences over the block coordinates,
 * with a backtracking (Armijo) line search along the projected arc.
 * Every gradient asks one ProbeEvaluator for f at all 2d probes
 * x ± h·e_i at once. The default evaluator, built from the scalar
 * objective, visits the probes one by one; CLITE passes a
 * GaussianProcess probe panel (GaussianProcess::predictProbes), which
 * returns the same doubles because each probe shares all but one
 * coordinate with x. Either way one gradient routine runs, so a probe
 * evaluator that matches f value for value leaves the whole ascent
 * bit-identical.
 */

#ifndef CLITE_OPT_PROJECTED_GRADIENT_H
#define CLITE_OPT_PROJECTED_GRADIENT_H

#include <functional>
#include <vector>

namespace clite {
namespace opt {

/**
 * One equality-constrained block of coordinates: the coordinates listed
 * in @p indices must sum to @p total and respect [lo, hi] element-wise.
 * (For CLITE: the allocations of one resource across all jobs.)
 */
struct SimplexBlock
{
    std::vector<size_t> indices; ///< Coordinate indices in the full vector.
    double total = 0.0;          ///< Required sum over the block.
    std::vector<double> lo;      ///< Per-coordinate lower bounds.
    std::vector<double> hi;      ///< Per-coordinate upper bounds.
};

/** Tuning knobs for the projected-gradient solver. */
struct PgOptions
{
    int max_iters = 60;       ///< Outer ascent iterations.
    double initial_step = 2.0;///< First trial step length.
    int max_backtracks = 12;  ///< Armijo halvings per iteration.
    double fd_step = 1e-3;    ///< Finite-difference half-step.
    double tol = 1e-8;        ///< Stop when the improvement drops below.
};

/** Result of one maximize() call. */
struct PgResult
{
    std::vector<double> x; ///< Best feasible point found.
    double value = 0.0;    ///< Objective at x.
    int iterations = 0;    ///< Ascent iterations performed.
    int evaluations = 0;   ///< Objective evaluations consumed.
};

/**
 * Projected-gradient maximizer over a product of SimplexBlocks.
 */
class ProjectedGradientOptimizer
{
  public:
    using Objective = std::function<double(const std::vector<double>&)>;

    /**
     * Probe evaluator: for each coords[t], write f(x + h·e_c) into
     * out[2t] and f(x − h·e_c) into out[2t+1], where the probe's
     * coordinate c holds x[c] + h (resp. x[c] − h) and every other
     * coordinate equals x. It must agree with the scalar Objective
     * value for value: the solver scores gradient probes through it
     * and line-search trials through f.
     */
    using ProbeEvaluator =
        std::function<void(const std::vector<double>& x,
                           const std::vector<size_t>& coords, double h,
                           double* out)>;

    /**
     * The default probe evaluator: calls (a copy of) @p f once per
     * probe, in order, on x with one coordinate moved.
     */
    static ProbeEvaluator scalarProbes(const Objective& f);

    /**
     * @param blocks Disjoint blocks covering (a subset of) the
     *     coordinates; coordinates not covered by any block are held
     *     fixed at their initial value.
     * @param dimension Length of the full optimization vector.
     * @param options Solver knobs.
     */
    ProjectedGradientOptimizer(std::vector<SimplexBlock> blocks,
                               size_t dimension, PgOptions options = {});

    /** Project an arbitrary point onto the feasible set, block by block. */
    std::vector<double> project(const std::vector<double>& y) const;

    /**
     * Run projected-gradient ascent from @p x0 (projected first), with
     * gradient probes from scalarProbes(f).
     *
     * @param f Objective to maximize; must be finite on the feasible set.
     * @param x0 Starting point (any point; it is projected).
     */
    PgResult maximize(const Objective& f,
                      const std::vector<double>& x0) const;

    /** As maximize(f, x0), with gradient probes from @p probes. */
    PgResult maximize(const Objective& f, const ProbeEvaluator& probes,
                      const std::vector<double>& x0) const;

    /**
     * Multi-start wrapper: run maximize() from each start and keep the
     * best result.
     * @pre starts is non-empty.
     */
    PgResult maximizeMultiStart(
        const Objective& f,
        const std::vector<std::vector<double>>& starts) const;

    /** Multi-start with gradient probes from @p probes. */
    PgResult maximizeMultiStart(
        const Objective& f, const ProbeEvaluator& probes,
        const std::vector<std::vector<double>>& starts) const;

  private:
    /** Central-difference gradient over the block coordinates. */
    std::vector<double> gradient(const ProbeEvaluator& probes,
                                 const std::vector<double>& x,
                                 int* evals) const;

    std::vector<SimplexBlock> blocks_;
    std::vector<size_t> coords_; ///< Block coordinates, block order.
    size_t dimension_;
    PgOptions options_;
};

} // namespace opt
} // namespace clite

#endif // CLITE_OPT_PROJECTED_GRADIENT_H
