/**
 * @file
 * Exact Euclidean projection onto the constraint set of CLITE's
 * acquisition optimization (Eq. 5–6 of the paper):
 *
 *   { x : Σ_i x_i = total,  lo_i <= x_i <= hi_i }
 *
 * i.e. a box-truncated simplex (one per shared resource). Also provides
 * the sum-preserving integer rounding that maps a continuous optimum
 * back into the discrete partition lattice.
 */

#ifndef CLITE_OPT_SIMPLEX_H
#define CLITE_OPT_SIMPLEX_H

#include <vector>

namespace clite {
namespace opt {

/**
 * True when the set {Σ x = total, lo <= x <= hi} is non-empty.
 */
bool simplexBoxFeasible(double total, const std::vector<double>& lo,
                        const std::vector<double>& hi);

/**
 * Euclidean projection of @p y onto {x : Σ x = total, lo <= x <= hi}.
 *
 * Solved exactly for the KKT multiplier τ of the equality constraint:
 * x_i(τ) = clamp(y_i − τ, lo_i, hi_i) makes Σ x_i(τ) piecewise linear
 * and non-increasing in τ with breakpoints y_i − hi_i and y_i − lo_i.
 * The 2n breakpoints are sorted, the segment on which the sum crosses
 * @p total is found by binary search, and τ is solved on it linearly —
 * O(n log n) with no iteration tolerance.
 *
 * @param y Point to project.
 * @param total Required coordinate sum.
 * @param lo Per-coordinate lower bounds.
 * @param hi Per-coordinate upper bounds.
 * @return The projection.
 * @throws clite::Error when the constraint set is empty or shapes
 *     mismatch.
 */
std::vector<double> projectSimplexBox(const std::vector<double>& y,
                                      double total,
                                      const std::vector<double>& lo,
                                      const std::vector<double>& hi);

/**
 * Round a continuous point on the simplex to integers while preserving
 * the (integer) sum and the integer box [lo_i, hi_i].
 *
 * Floors every coordinate, then hands the remaining units to the
 * coordinates with the largest fractional parts (largest-remainder
 * method), skipping coordinates at their upper bound.
 *
 * @param x Continuous coordinates (assumed feasible up to rounding).
 * @param total Required integer sum.
 * @param lo Integer lower bounds.
 * @param hi Integer upper bounds.
 * @throws clite::Error if no integer point in the box can reach the sum.
 */
std::vector<int> roundToIntegerComposition(const std::vector<double>& x,
                                           int total,
                                           const std::vector<int>& lo,
                                           const std::vector<int>& hi);

} // namespace opt
} // namespace clite

#endif // CLITE_OPT_SIMPLEX_H
