#include "opt/projected_gradient.h"

#include <cmath>

#include "common/error.h"
#include "opt/simplex.h"

namespace clite {
namespace opt {

ProjectedGradientOptimizer::ProjectedGradientOptimizer(
    std::vector<SimplexBlock> blocks, size_t dimension, PgOptions options)
    : blocks_(std::move(blocks)), dimension_(dimension), options_(options)
{
    std::vector<bool> covered(dimension_, false);
    for (const auto& b : blocks_) {
        CLITE_CHECK(b.indices.size() == b.lo.size() &&
                        b.indices.size() == b.hi.size(),
                    "block bound shapes mismatch block size");
        CLITE_CHECK(!b.indices.empty(), "empty simplex block");
        for (size_t idx : b.indices) {
            CLITE_CHECK(idx < dimension_, "block index " << idx
                            << " out of dimension " << dimension_);
            CLITE_CHECK(!covered[idx],
                        "coordinate " << idx << " in two blocks");
            covered[idx] = true;
            coords_.push_back(idx);
        }
        CLITE_CHECK(simplexBoxFeasible(b.total, b.lo, b.hi),
                    "infeasible simplex block with total " << b.total);
    }
}

std::vector<double>
ProjectedGradientOptimizer::project(const std::vector<double>& y) const
{
    CLITE_CHECK(y.size() == dimension_, "project: dimension mismatch");
    std::vector<double> x = y;
    for (const auto& b : blocks_) {
        std::vector<double> sub(b.indices.size());
        for (size_t i = 0; i < b.indices.size(); ++i)
            sub[i] = y[b.indices[i]];
        std::vector<double> proj = projectSimplexBox(sub, b.total, b.lo,
                                                     b.hi);
        for (size_t i = 0; i < b.indices.size(); ++i)
            x[b.indices[i]] = proj[i];
    }
    return x;
}

ProjectedGradientOptimizer::ProbeEvaluator
ProjectedGradientOptimizer::scalarProbes(const Objective& f)
{
    return [f](const std::vector<double>& x,
                const std::vector<size_t>& coords, double h, double* out) {
        std::vector<double> xp = x;
        for (size_t t = 0; t < coords.size(); ++t) {
            const size_t idx = coords[t];
            xp[idx] = x[idx] + h;
            out[2 * t] = f(xp);
            xp[idx] = x[idx] - h;
            out[2 * t + 1] = f(xp);
            xp[idx] = x[idx];
        }
    };
}

std::vector<double>
ProjectedGradientOptimizer::gradient(const ProbeEvaluator& probes,
                                     const std::vector<double>& x,
                                     int* evals) const
{
    std::vector<double> g(dimension_, 0.0);
    const double h = options_.fd_step;
    std::vector<double> vals(2 * coords_.size(), 0.0);
    probes(x, coords_, h, vals.data());
    for (size_t t = 0; t < coords_.size(); ++t)
        g[coords_[t]] = (vals[2 * t] - vals[2 * t + 1]) / (2.0 * h);
    *evals += int(vals.size());
    return g;
}

PgResult
ProjectedGradientOptimizer::maximize(const Objective& f,
                                     const std::vector<double>& x0) const
{
    return maximize(f, scalarProbes(f), x0);
}

PgResult
ProjectedGradientOptimizer::maximize(const Objective& f,
                                     const ProbeEvaluator& probes,
                                     const std::vector<double>& x0) const
{
    PgResult result;
    std::vector<double> x = project(x0);
    double fx = f(x);
    result.evaluations = 1;

    for (int iter = 0; iter < options_.max_iters; ++iter) {
        result.iterations = iter + 1;
        std::vector<double> g = gradient(probes, x, &result.evaluations);

        // Backtracking along the projected arc: x(t) = P(x + t g).
        double step = options_.initial_step;
        bool improved = false;
        for (int bt = 0; bt < options_.max_backtracks; ++bt) {
            std::vector<double> trial = x;
            for (size_t i = 0; i < dimension_; ++i)
                trial[i] += step * g[i];
            trial = project(trial);
            double ft = f(trial);
            ++result.evaluations;
            if (ft > fx + options_.tol) {
                x = std::move(trial);
                fx = ft;
                improved = true;
                break;
            }
            step *= 0.5;
        }
        if (!improved)
            break;
    }

    result.x = std::move(x);
    result.value = fx;
    return result;
}

PgResult
ProjectedGradientOptimizer::maximizeMultiStart(
    const Objective& f,
    const std::vector<std::vector<double>>& starts) const
{
    return maximizeMultiStart(f, scalarProbes(f), starts);
}

PgResult
ProjectedGradientOptimizer::maximizeMultiStart(
    const Objective& f, const ProbeEvaluator& probes,
    const std::vector<std::vector<double>>& starts) const
{
    CLITE_CHECK(!starts.empty(), "maximizeMultiStart needs >= 1 start");
    PgResult best;
    bool first = true;
    for (const auto& s : starts) {
        PgResult r = maximize(f, probes, s);
        if (first || r.value > best.value) {
            int evals = (first ? 0 : best.evaluations) + r.evaluations;
            int iters = (first ? 0 : best.iterations) + r.iterations;
            best = std::move(r);
            best.evaluations = evals;
            best.iterations = iters;
            first = false;
        } else {
            best.evaluations += r.evaluations;
            best.iterations += r.iterations;
        }
    }
    return best;
}

} // namespace opt
} // namespace clite
