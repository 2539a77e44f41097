#include "bo/acquisition.h"

#include <algorithm>
#include <cmath>

#include "common/arena.h"
#include "common/error.h"
#include "common/thread_pool.h"
#include "stats/distributions.h"

namespace clite {
namespace bo {

double
Acquisition::evaluate(const gp::GaussianProcess& gp,
                      const linalg::Vector& x, double incumbent) const
{
    gp::Prediction p = gp.predict(x);
    return fromPosterior(p.mean, p.variance, incumbent);
}

void
Acquisition::evaluateBatch(const gp::GaussianProcess& gp,
                           const std::vector<linalg::Vector>& xs,
                           size_t begin, size_t count, double incumbent,
                           double* out) const
{
    ScratchArena& arena = ScratchArena::forCurrentThread();
    ScratchArena::Frame frame(arena);
    double* mean = arena.doubles(count);
    double* var = arena.doubles(count);
    gp.predictBatch(xs, begin, count, mean, var);
    for (size_t i = 0; i < count; ++i)
        out[i] = fromPosterior(mean[i], var[i], incumbent);
}

ExpectedImprovement::ExpectedImprovement(double zeta) : zeta_(zeta)
{
    CLITE_CHECK(zeta >= 0.0, "EI zeta must be >= 0, got " << zeta);
}

double
ExpectedImprovement::fromPosterior(double mean, double variance,
                                   double incumbent) const
{
    double sigma = std::sqrt(std::max(0.0, variance));
    if (sigma <= 0.0)
        return 0.0; // Eq. 2: EI = 0 when sigma(x) = 0
    double improve = mean - incumbent - zeta_;
    double z = improve / sigma;
    return improve * stats::normalCdf(z) + sigma * stats::normalPdf(z);
}

ProbabilityOfImprovement::ProbabilityOfImprovement(double zeta)
    : zeta_(zeta)
{
    CLITE_CHECK(zeta >= 0.0, "PI zeta must be >= 0, got " << zeta);
}

double
ProbabilityOfImprovement::fromPosterior(double mean, double variance,
                                        double incumbent) const
{
    double sigma = std::sqrt(std::max(0.0, variance));
    if (sigma <= 0.0)
        return mean > incumbent + zeta_ ? 1.0 : 0.0;
    return stats::normalCdf((mean - incumbent - zeta_) / sigma);
}

UpperConfidenceBound::UpperConfidenceBound(double kappa) : kappa_(kappa)
{
    CLITE_CHECK(kappa >= 0.0, "UCB kappa must be >= 0, got " << kappa);
}

double
UpperConfidenceBound::fromPosterior(double mean, double variance,
                                    double /* incumbent */) const
{
    return mean + kappa_ * std::sqrt(std::max(0.0, variance));
}

void
scoreCandidates(const Acquisition& acq, const gp::GaussianProcess& gp,
                const std::vector<linalg::Vector>& xs, double incumbent,
                double* out, size_t block)
{
    const size_t n = xs.size();
    if (n == 0)
        return;
    if (block == 0)
        block = kAcquisitionBlock;
    const size_t nblocks = (n + block - 1) / block;
    ThreadPool& pool = globalPool();
    // Granularity fallback: dispatching to the pool only pays off with
    // enough candidates to keep every thread busy past the wake-up
    // cost; below that the round runs inline (same block order, same
    // results).
    const bool serial = pool.threadCount() <= 1 || nblocks < 2 ||
                        n < 2 * size_t(pool.threadCount());
    auto run_block = [&](size_t b) {
        const size_t begin = b * block;
        const size_t count = std::min(block, n - begin);
        acq.evaluateBatch(gp, xs, begin, count, incumbent, out + begin);
    };
    if (serial) {
        for (size_t b = 0; b < nblocks; ++b)
            run_block(b);
    } else {
        pool.parallelFor(nblocks, run_block);
    }
}

std::unique_ptr<Acquisition>
makeAcquisition(const std::string& name, double param)
{
    if (name == "ei")
        return std::make_unique<ExpectedImprovement>(param);
    if (name == "pi")
        return std::make_unique<ProbabilityOfImprovement>(param);
    if (name == "ucb")
        return std::make_unique<UpperConfidenceBound>(
            param > 0.0 ? param : 2.0);
    CLITE_THROW("unknown acquisition name: " << name);
}

} // namespace bo
} // namespace clite
