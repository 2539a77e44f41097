/**
 * @file
 * The exact breakpoint projection against a reference oracle: the
 * bisection on the KKT multiplier τ that projectSimplexBox used to run
 * (up to 200 halvings of a bracket, stopped at a 1e-14 relative
 * width). Random and degenerate inputs must agree with it to 1e-12,
 * and every result must satisfy the projection's KKT conditions on its
 * own: the sum hits the total, the bounds hold, and all free
 * coordinates share one τ = y_i − x_i.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "opt/simplex.h"

namespace clite {
namespace opt {
namespace {

/** Reference projection: bisection on τ (the pre-breakpoint solver). */
std::vector<double>
bisectionProjection(const std::vector<double>& y, double total,
                    const std::vector<double>& lo,
                    const std::vector<double>& hi)
{
    const size_t n = y.size();
    auto sum_at = [&](double tau) {
        double s = 0.0;
        for (size_t i = 0; i < n; ++i)
            s += std::clamp(y[i] - tau, lo[i], hi[i]);
        return s;
    };
    double tau_lo = -1.0, tau_hi = 1.0;
    for (size_t i = 0; i < n; ++i) {
        tau_lo = std::min(tau_lo, y[i] - hi[i] - 1.0);
        tau_hi = std::max(tau_hi, y[i] - lo[i] + 1.0);
    }
    for (int it = 0; it < 200; ++it) {
        double mid = 0.5 * (tau_lo + tau_hi);
        if (sum_at(mid) > total)
            tau_lo = mid;
        else
            tau_hi = mid;
        if (tau_hi - tau_lo < 1e-14 * (1.0 + std::fabs(tau_hi)))
            break;
    }
    double tau = 0.5 * (tau_lo + tau_hi);
    std::vector<double> x(n);
    for (size_t i = 0; i < n; ++i)
        x[i] = std::clamp(y[i] - tau, lo[i], hi[i]);
    return x;
}

double
sum(const std::vector<double>& v)
{
    return std::accumulate(v.begin(), v.end(), 0.0);
}

/** Agreement with the oracle plus KKT, with a readable case label. */
void
expectProjection(const std::vector<double>& y, double total,
                 const std::vector<double>& lo,
                 const std::vector<double>& hi, const char* label)
{
    SCOPED_TRACE(label);
    const std::vector<double> x = projectSimplexBox(y, total, lo, hi);
    const std::vector<double> ref = bisectionProjection(y, total, lo, hi);
    ASSERT_EQ(x.size(), y.size());
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_NEAR(x[i], ref[i], 1e-12) << "coordinate " << i;

    // KKT: primal feasibility...
    const double lo_sum = sum(lo), hi_sum = sum(hi);
    const double reachable = std::clamp(total, lo_sum, hi_sum);
    EXPECT_NEAR(sum(x), reachable, 1e-12);
    for (size_t i = 0; i < x.size(); ++i) {
        EXPECT_GE(x[i], lo[i]) << "coordinate " << i;
        EXPECT_LE(x[i], hi[i]) << "coordinate " << i;
    }
    // ...and one multiplier for every coordinate strictly inside its box.
    bool have_tau = false;
    double tau = 0.0;
    for (size_t i = 0; i < x.size(); ++i) {
        if (x[i] <= lo[i] || x[i] >= hi[i])
            continue;
        const double t = y[i] - x[i];
        if (!have_tau) {
            tau = t;
            have_tau = true;
        } else {
            EXPECT_NEAR(t, tau, 1e-12) << "free coordinate " << i;
        }
    }
    // A pinned coordinate sits on the side τ puts it on.
    if (have_tau) {
        for (size_t i = 0; i < x.size(); ++i) {
            if (x[i] >= hi[i] && lo[i] < hi[i]) {
                EXPECT_GE(y[i] - tau, hi[i] - 1e-12) << "at hi " << i;
            }
            if (x[i] <= lo[i] && lo[i] < hi[i]) {
                EXPECT_LE(y[i] - tau, lo[i] + 1e-12) << "at lo " << i;
            }
        }
    }
}

TEST(ExactProjection, AgreesWithBisectionOnRandomInputs)
{
    Rng rng(41);
    for (int rep = 0; rep < 2000; ++rep) {
        const size_t n = size_t(rng.uniformInt(1, 12));
        std::vector<double> y(n), lo(n), hi(n);
        for (size_t i = 0; i < n; ++i) {
            y[i] = rng.uniform(-3.0, 3.0);
            lo[i] = rng.uniform(-1.0, 0.5);
            hi[i] = lo[i] + rng.uniform(0.0, 2.0);
        }
        const double total = rng.uniform(sum(lo), sum(hi));
        expectProjection(y, total, lo, hi, "random");
    }
}

TEST(ExactProjection, AgreesWithBisectionOnControllerShapedInputs)
{
    // Normalized CLITE blocks: lo = 1/units, hi leaves every other job
    // one unit, total 1, and points a gradient step off the simplex.
    Rng rng(42);
    for (int rep = 0; rep < 2000; ++rep) {
        const size_t jobs = size_t(rng.uniformInt(2, 6));
        const int units = int(rng.uniformInt(int64_t(jobs) + 1, 20));
        std::vector<double> y(jobs), lo(jobs, 1.0 / units),
            hi(jobs, double(units - int(jobs) + 1) / units);
        for (size_t j = 0; j < jobs; ++j)
            y[j] = rng.uniform(0.0, 1.0) + rng.uniform(-2.0, 2.0) * 0.1;
        expectProjection(y, 1.0, lo, hi, "controller");
    }
}

TEST(ExactProjection, EqualBreakpoints)
{
    // Identical coordinates share both breakpoints.
    expectProjection({0.5, 0.5, 0.5, 0.5}, 1.0, {0, 0, 0, 0}, {1, 1, 1, 1},
                     "all equal");
    expectProjection({2.0, 2.0, 0.1}, 2.5, {0, 0, 0}, {1, 1, 1},
                     "tied pair at hi");
    // One coordinate's upper breakpoint equals another's lower one.
    expectProjection({1.0, 0.0}, 1.0, {0.0, 0.0}, {1.0, 1.0},
                     "touching breakpoints");
    expectProjection({3.0, 3.0, 3.0}, 4.0, {1.0, 1.0, 1.0}, {2.0, 2.0, 2.0},
                     "equal with interior total");
}

TEST(ExactProjection, TotalAtTheBoxExtremes)
{
    const std::vector<double> lo = {0.1, 0.2, 0.3}, hi = {0.6, 0.7, 0.9};
    for (const std::vector<double>& y :
         {std::vector<double>{0.4, 0.5, 0.1},
          std::vector<double>{-4.0, 9.0, 0.0},
          std::vector<double>{0.1, 0.2, 0.3}}) {
        expectProjection(y, sum(lo), lo, hi, "total at sum lo");
        expectProjection(y, sum(hi), lo, hi, "total at sum hi");
    }
    const std::vector<double> x = projectSimplexBox({5, -5, 0}, sum(hi), lo,
                                                    hi);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(x[i], hi[i]);
    const std::vector<double> z = projectSimplexBox({5, -5, 0}, sum(lo), lo,
                                                    hi);
    for (size_t i = 0; i < 3; ++i)
        EXPECT_EQ(z[i], lo[i]);
}

TEST(ExactProjection, FixedCoordinates)
{
    // lo == hi pins a coordinate whatever y says.
    expectProjection({0.9, 0.1, 0.4}, 1.5, {0.5, 0.0, 0.0},
                     {0.5, 1.0, 1.0}, "one fixed");
    expectProjection({0.9, 0.1, 0.4}, 1.2, {0.5, 0.3, 0.4},
                     {0.5, 0.3, 0.4}, "all fixed");
    const std::vector<double> x =
        projectSimplexBox({7.0, -3.0, 2.0}, 1.0, {0.25, 0.0, 0.0},
                          {0.25, 1.0, 1.0});
    EXPECT_EQ(x[0], 0.25);
}

TEST(ExactProjection, SingleCoordinate)
{
    expectProjection({3.0}, 0.5, {0.0}, {1.0}, "n=1 above");
    expectProjection({-3.0}, 0.5, {0.0}, {1.0}, "n=1 below");
    expectProjection({0.5}, 0.5, {0.5}, {0.5}, "n=1 fixed");
    EXPECT_EQ(projectSimplexBox({42.0}, 0.75, {0.0}, {1.0})[0], 0.75);
}

TEST(ExactProjection, NoCoordinates)
{
    // The empty box holds only the total 0 (within the feasibility
    // tolerance); its projection is the empty vector.
    EXPECT_TRUE(projectSimplexBox({}, 0.0, {}, {}).empty());
    EXPECT_TRUE(bisectionProjection({}, 0.0, {}, {}).empty());
    EXPECT_THROW(projectSimplexBox({}, 1.0, {}, {}), Error);
}

TEST(ExactProjection, WholeFlatSegments)
{
    // The sum is constant on a τ interval when every coordinate is
    // pinned across it: here coordinate 0 reaches lo (τ = 2) before
    // coordinate 1 leaves hi (τ = 3), so Σ = 0 + 1 on [2, 3].
    expectProjection({2.0, 4.0}, 1.0, {0.0, 0.0}, {1.0, 1.0},
                     "total on the flat segment");
    expectProjection({2.0, 4.0}, 1.5, {0.0, 0.0}, {1.0, 1.0},
                     "total above the flat segment");
    expectProjection({2.0, 4.0}, 0.5, {0.0, 0.0}, {1.0, 1.0},
                     "total below the flat segment");
    // Several flat stretches in a row.
    expectProjection({0.0, 10.0, 20.0, 30.0}, 2.0, {0, 0, 0, 0},
                     {1, 1, 1, 1}, "staircase, step total");
    expectProjection({0.0, 10.0, 20.0, 30.0}, 2.5, {0, 0, 0, 0},
                     {1, 1, 1, 1}, "staircase, mid-step total");
}

TEST(ExactProjection, RandomDegenerateMixtures)
{
    // Draws from a coarse grid so breakpoints collide, bounds coincide
    // and totals land on segment ends.
    Rng rng(43);
    for (int rep = 0; rep < 3000; ++rep) {
        const size_t n = size_t(rng.uniformInt(1, 7));
        std::vector<double> y(n), lo(n), hi(n);
        for (size_t i = 0; i < n; ++i) {
            y[i] = 0.25 * double(rng.uniformInt(-8, 8));
            lo[i] = 0.25 * double(rng.uniformInt(-2, 2));
            hi[i] = lo[i] + 0.25 * double(rng.uniformInt(0, 3));
        }
        const int steps = int(std::lround((sum(hi) - sum(lo)) / 0.25));
        const double total =
            sum(lo) + 0.25 * double(rng.uniformInt(0, steps));
        expectProjection(y, total, lo, hi, "grid");
    }
}

} // namespace
} // namespace opt
} // namespace clite
