/**
 * @file
 * Unit tests for the projected-gradient constrained maximizer (the
 * SLSQP stand-in that optimizes CLITE's acquisition under Eq. 5–6).
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "bo/acquisition.h"
#include "common/error.h"
#include "common/rng.h"
#include "gp/gaussian_process.h"
#include "opt/projected_gradient.h"

namespace clite {
namespace opt {
namespace {

SimplexBlock
block(std::vector<size_t> idx, double total, double lo, double hi)
{
    SimplexBlock b;
    b.indices = std::move(idx);
    b.total = total;
    b.lo.assign(b.indices.size(), lo);
    b.hi.assign(b.indices.size(), hi);
    return b;
}

TEST(ProjectedGradient, MaximizesConcaveQuadraticOnSimplex)
{
    // maximize -(x0-3)^2 - (x1-1)^2 subject to x0+x1 = 4, 0.5<=xi<=3.5.
    // Unconstrained optimum (3,1) lies on the constraint: optimal.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 0.5, 3.5)}, 2);
    auto f = [](const std::vector<double>& x) {
        return -(x[0] - 3.0) * (x[0] - 3.0) - (x[1] - 1.0) * (x[1] - 1.0);
    };
    PgResult r = opt.maximize(f, {2.0, 2.0});
    EXPECT_NEAR(r.x[0], 3.0, 1e-2);
    EXPECT_NEAR(r.x[1], 1.0, 1e-2);
}

TEST(ProjectedGradient, ActiveConstraintOptimum)
{
    // maximize x0 subject to x0+x1 = 4, 1<=xi<=3: optimum x0=3.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 1.0, 3.0)}, 2);
    auto f = [](const std::vector<double>& x) { return x[0]; };
    PgResult r = opt.maximize(f, {2.0, 2.0});
    EXPECT_NEAR(r.x[0], 3.0, 1e-3);
    EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(ProjectedGradient, TwoIndependentBlocks)
{
    // Two resources: block {0,1} sums to 4, block {2,3} sums to 6.
    ProjectedGradientOptimizer opt(
        {block({0, 1}, 4.0, 1.0, 3.0), block({2, 3}, 6.0, 1.0, 5.0)}, 4);
    auto f = [](const std::vector<double>& x) {
        return -(x[0] - 2.5) * (x[0] - 2.5) - (x[2] - 4.5) * (x[2] - 4.5);
    };
    PgResult r = opt.maximize(f, {1.0, 3.0, 1.0, 5.0});
    EXPECT_NEAR(r.x[0], 2.5, 1e-2);
    EXPECT_NEAR(r.x[1], 1.5, 1e-2);
    EXPECT_NEAR(r.x[2], 4.5, 1e-2);
    EXPECT_NEAR(r.x[3], 1.5, 1e-2);
}

TEST(ProjectedGradient, UncoveredCoordinatesHeldFixed)
{
    // Coordinate 2 is in no block: must stay at its start value.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 1.0, 3.0)}, 3);
    auto f = [](const std::vector<double>& x) {
        return x[0] + 10.0 * x[2];
    };
    PgResult r = opt.maximize(f, {2.0, 2.0, 0.7});
    EXPECT_DOUBLE_EQ(r.x[2], 0.7);
}

TEST(ProjectedGradient, ProjectMakesArbitraryPointFeasible)
{
    ProjectedGradientOptimizer opt({block({0, 1, 2}, 9.0, 1.0, 5.0)}, 3);
    auto x = opt.project({100.0, -50.0, 3.0});
    EXPECT_NEAR(x[0] + x[1] + x[2], 9.0, 1e-7);
    for (double v : x) {
        EXPECT_GE(v, 1.0 - 1e-9);
        EXPECT_LE(v, 5.0 + 1e-9);
    }
}

TEST(ProjectedGradient, MultiStartKeepsBest)
{
    // Bimodal objective on the segment x0+x1=4: peaks at x0=1 (h=1)
    // and x0=3 (h=2). Multi-start from both basins must find x0=3.
    ProjectedGradientOptimizer opt({block({0, 1}, 4.0, 0.5, 3.5)}, 2);
    auto f = [](const std::vector<double>& x) {
        double p1 = std::exp(-10.0 * (x[0] - 1.0) * (x[0] - 1.0));
        double p2 = 2.0 * std::exp(-10.0 * (x[0] - 3.0) * (x[0] - 3.0));
        return p1 + p2;
    };
    PgResult r = opt.maximizeMultiStart(
        f, {{1.0, 3.0}, {3.0, 1.0}, {2.0, 2.0}});
    EXPECT_NEAR(r.x[0], 3.0, 0.05);
    EXPECT_GT(r.value, 1.9);
}

TEST(ProjectedGradient, ValidationErrors)
{
    // Overlapping blocks.
    EXPECT_THROW(ProjectedGradientOptimizer(
                     {block({0, 1}, 4.0, 1.0, 3.0),
                      block({1, 2}, 4.0, 1.0, 3.0)},
                     3),
                 Error);
    // Index out of dimension.
    EXPECT_THROW(ProjectedGradientOptimizer({block({5}, 1.0, 0.0, 2.0)}, 2),
                 Error);
    // Infeasible block.
    EXPECT_THROW(ProjectedGradientOptimizer({block({0, 1}, 10.0, 1.0, 3.0)},
                                            2),
                 Error);
    // Empty multistart.
    ProjectedGradientOptimizer ok({block({0, 1}, 4.0, 1.0, 3.0)}, 2);
    auto f = [](const std::vector<double>&) { return 0.0; };
    EXPECT_THROW(ok.maximizeMultiStart(f, {}), Error);
}

TEST(ProjectedGradient, ScalarProbesVisitEveryProbeInOrder)
{
    ProjectedGradientOptimizer opt({block({2, 0}, 4.0, 0.5, 3.5)}, 3);
    std::vector<std::vector<double>> seen;
    auto f = [&](const std::vector<double>& x) {
        seen.push_back(x);
        return x[0] - 2.0 * x[2];
    };
    auto probes = ProjectedGradientOptimizer::scalarProbes(f);
    double out[4];
    probes({1.0, 7.0, 3.0}, {2, 0}, 0.25, out);
    ASSERT_EQ(seen.size(), 4u);
    EXPECT_EQ(seen[0], (std::vector<double>{1.0, 7.0, 3.25}));
    EXPECT_EQ(seen[1], (std::vector<double>{1.0, 7.0, 2.75}));
    EXPECT_EQ(seen[2], (std::vector<double>{1.25, 7.0, 3.0}));
    EXPECT_EQ(seen[3], (std::vector<double>{0.75, 7.0, 3.0}));
    EXPECT_EQ(out[0], 1.0 - 6.5);
    EXPECT_EQ(out[3], 0.75 - 6.0);
}

/**
 * The controller's wiring — EI over a fitted GP, gradient probes from
 * the GP probe panel — against the scalar finite-difference loop on
 * the same objective: the two ascents must be the same to the last bit.
 */
TEST(ProjectedGradient, GpProbePanelMatchesScalarLoopBitForBit)
{
    const size_t jobs = 3, res = 3, dim = jobs * res;
    Rng rng(77);
    for (const char* kernel : {"matern52", "matern32", "rbf"}) {
        for (size_t n : {size_t(5), size_t(49)}) {
            std::vector<linalg::Vector> xs(n, linalg::Vector(dim));
            std::vector<double> ys(n);
            for (size_t i = 0; i < n; ++i) {
                for (double& v : xs[i])
                    v = rng.uniform(0.1, 0.6);
                ys[i] = std::sin(4.0 * xs[i][0]) + xs[i][4] - xs[i][7];
            }
            gp::GaussianProcess gp(gp::makeKernel(kernel, dim, 0.4), 1e-4);
            gp.fit(xs, ys);
            bo::ExpectedImprovement ei(0.01);
            const double incumbent = 0.5;

            std::vector<SimplexBlock> blocks;
            for (size_t r = 0; r < res; ++r) {
                std::vector<size_t> idx;
                for (size_t j = 0; j < jobs; ++j)
                    idx.push_back(j * res + r);
                blocks.push_back(block(idx, 1.0, 0.1, 0.8));
            }
            PgOptions pg;
            pg.max_iters = 40;
            pg.fd_step = 0.02;
            ProjectedGradientOptimizer opt(blocks, dim, pg);

            auto f = [&](const std::vector<double>& x) {
                return ei.evaluate(gp, x, incumbent);
            };
            auto panel = [&](const std::vector<double>& x,
                             const std::vector<size_t>& coords, double h,
                             double* out) {
                std::vector<double> m(2 * coords.size()), v(m.size());
                gp.predictProbes(x, coords, h, m.data(), v.data());
                for (size_t t = 0; t < m.size(); ++t)
                    out[t] = ei.fromPosterior(m[t], v[t], incumbent);
            };
            std::vector<std::vector<double>> starts;
            for (int s = 0; s < 3; ++s) {
                std::vector<double> x0(dim);
                for (double& v : x0)
                    v = rng.uniform(0.0, 0.7);
                starts.push_back(x0);
            }
            const PgResult a = opt.maximizeMultiStart(f, starts);
            const PgResult b = opt.maximizeMultiStart(f, panel, starts);
            EXPECT_EQ(a.iterations, b.iterations) << kernel << " n=" << n;
            EXPECT_EQ(a.evaluations, b.evaluations) << kernel;
            EXPECT_EQ(std::bit_cast<uint64_t>(a.value),
                      std::bit_cast<uint64_t>(b.value))
                << kernel << " n=" << n;
            ASSERT_EQ(a.x.size(), b.x.size());
            for (size_t i = 0; i < dim; ++i)
                EXPECT_EQ(std::bit_cast<uint64_t>(a.x[i]),
                          std::bit_cast<uint64_t>(b.x[i]))
                    << kernel << " n=" << n << " coordinate " << i;
        }
    }
}

} // namespace
} // namespace opt
} // namespace clite
