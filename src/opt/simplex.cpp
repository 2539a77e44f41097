#include "opt/simplex.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/error.h"

namespace clite {
namespace opt {

bool
simplexBoxFeasible(double total, const std::vector<double>& lo,
                   const std::vector<double>& hi)
{
    double lo_sum = std::accumulate(lo.begin(), lo.end(), 0.0);
    double hi_sum = std::accumulate(hi.begin(), hi.end(), 0.0);
    return lo_sum <= total + 1e-9 && total <= hi_sum + 1e-9;
}

std::vector<double>
projectSimplexBox(const std::vector<double>& y, double total,
                  const std::vector<double>& lo,
                  const std::vector<double>& hi)
{
    const size_t n = y.size();
    CLITE_CHECK(lo.size() == n && hi.size() == n,
                "projectSimplexBox shape mismatch: y=" << n << " lo="
                    << lo.size() << " hi=" << hi.size());
    for (size_t i = 0; i < n; ++i)
        CLITE_CHECK(lo[i] <= hi[i], "bound inversion at coordinate "
                                        << i << ": [" << lo[i] << ", "
                                        << hi[i] << "]");
    CLITE_CHECK(simplexBoxFeasible(total, lo, hi),
                "simplex-box constraint set is empty for total " << total);
    if (n == 0)
        return {};

    auto sum_at = [&](double tau) {
        double s = 0.0;
        for (size_t i = 0; i < n; ++i)
            s += std::clamp(y[i] - tau, lo[i], hi[i]);
        return s;
    };

    // Breakpoints of the piecewise-linear, non-increasing sum_at:
    // coordinate i sits at hi_i for tau <= y_i - hi_i, at lo_i for
    // tau >= y_i - lo_i, and is free (slope -1) in between. Between
    // consecutive breakpoints the free set is fixed, so the root lies on
    // the first segment whose right end no longer exceeds the total.
    std::vector<double> bp(2 * n);
    for (size_t i = 0; i < n; ++i) {
        bp[2 * i] = y[i] - hi[i];
        bp[2 * i + 1] = y[i] - lo[i];
    }
    std::sort(bp.begin(), bp.end());
    // Each clamp is monotone in tau and so is the fixed-order sum, so
    // the computed sum_at is non-increasing too: partition_point applies.
    const auto right = std::partition_point(
        bp.begin(), bp.end(), [&](double p) { return sum_at(p) > total; });
    double tau;
    if (right == bp.begin()) {
        tau = bp.front(); // total >= Σ hi: every coordinate at hi
    } else if (right == bp.end()) {
        tau = bp.back(); // total <= Σ lo (within tolerance): all at lo
    } else {
        // sum_at(a) > total >= sum_at(b) on [a, b]; no breakpoint lies
        // strictly inside, so each coordinate is pinned or free on the
        // whole segment and sum_at(tau) = pinned + Σ_free y_i − |free|·tau.
        const double a = *(right - 1), b = *right;
        double pinned = 0.0, free_y = 0.0;
        size_t free_count = 0;
        for (size_t i = 0; i < n; ++i) {
            if (y[i] - hi[i] >= b) {
                pinned += hi[i];
            } else if (y[i] - lo[i] <= a) {
                pinned += lo[i];
            } else {
                free_y += y[i];
                ++free_count;
            }
        }
        // No free coordinate: the segment is flat and sum_at differs
        // across it only by the rounding of y_i − τ at a pinned
        // coordinate's own breakpoint, so every τ on it gives the same
        // point up to that rounding.
        tau = free_count == 0
                  ? b
                  : std::clamp((pinned + free_y - total) /
                                   double(free_count),
                               a, b);
    }

    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = std::clamp(y[i] - tau, lo[i], hi[i]);
    return x;
}

std::vector<int>
roundToIntegerComposition(const std::vector<double>& x, int total,
                          const std::vector<int>& lo,
                          const std::vector<int>& hi)
{
    const size_t n = x.size();
    CLITE_CHECK(lo.size() == n && hi.size() == n,
                "roundToIntegerComposition shape mismatch");
    long lo_sum = 0, hi_sum = 0;
    for (size_t i = 0; i < n; ++i) {
        CLITE_CHECK(lo[i] <= hi[i], "integer bound inversion at " << i);
        lo_sum += lo[i];
        hi_sum += hi[i];
    }
    CLITE_CHECK(lo_sum <= total && total <= hi_sum,
                "no integer composition of " << total << " fits the box");

    // Start from the clamped floor, then distribute the deficit to the
    // coordinates with the largest fractional remainder (or pull the
    // surplus from the smallest).
    std::vector<int> out(n);
    std::vector<double> frac(n);
    long sum = 0;
    for (size_t i = 0; i < n; ++i) {
        double clamped = std::clamp(x[i], double(lo[i]), double(hi[i]));
        out[i] = int(std::floor(clamped));
        out[i] = std::clamp(out[i], lo[i], hi[i]);
        frac[i] = clamped - double(out[i]);
        sum += out[i];
    }

    std::vector<size_t> order(n);
    std::iota(order.begin(), order.end(), size_t{0});

    while (sum < total) {
        // Give a unit to the raisable coordinate with max fraction.
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return frac[a] > frac[b];
        });
        bool moved = false;
        for (size_t i : order) {
            if (out[i] < hi[i]) {
                ++out[i];
                frac[i] -= 1.0;
                ++sum;
                moved = true;
                break;
            }
        }
        CLITE_ASSERT(moved, "feasible by construction but no unit placed");
    }
    while (sum > total) {
        // Take a unit from the lowerable coordinate with min fraction.
        std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
            return frac[a] < frac[b];
        });
        bool moved = false;
        for (size_t i : order) {
            if (out[i] > lo[i]) {
                --out[i];
                frac[i] += 1.0;
                --sum;
                moved = true;
                break;
            }
        }
        CLITE_ASSERT(moved, "feasible by construction but no unit removed");
    }
    return out;
}

} // namespace opt
} // namespace clite
