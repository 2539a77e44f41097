/**
 * @file
 * Bit-equality tests for the batched posterior engine. The contract
 * (gp/gaussian_process.h): for every kernel family, batch size, and
 * ragged tail, predictBatch, the one-row predict() and the probe panel
 * must return exactly the doubles of the element-at-a-time posterior
 * below — not "close", identical to the last ULP — because the %.17g
 * golden traces and the serial-vs-parallel determinism suite pin
 * those numbers.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "common/rng.h"
#include "gp/gaussian_process.h"
#include "linalg/matrix.h"

namespace clite {
namespace gp {

/**
 * The reference posterior, one training point at a time: k* from
 * Kernel::operator(), the mean as linalg::dot(k*, α), the variance
 * from Cholesky::solveLower and the kernel at (x, x). None of it
 * shares code with the panel (SoA distance pass, batched radial
 * profile, blocked TRSM, column norms).
 */
struct ScalarPosteriorReference
{
    static Prediction
    predict(const GaussianProcess& gp, const linalg::Vector& x)
    {
        const size_t n = gp.x_.size();
        linalg::Vector kstar(n);
        for (size_t i = 0; i < n; ++i)
            kstar[i] = (*gp.kernel_)(x, gp.x_[i]);
        const double mean_s = linalg::dot(kstar, gp.alpha_);
        const linalg::Vector v = gp.chol_->solveLower(kstar);
        const double var_s =
            std::max(0.0, (*gp.kernel_)(x, x) - linalg::dot(v, v));
        Prediction p;
        p.mean = gp.destandardizeMean(mean_s);
        p.variance = gp.destandardizeVar(var_s);
        return p;
    }
};

namespace {

::testing::AssertionResult
bitEqual(double a, double b)
{
    if (std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b))
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
           << a << " != " << b << " (bit patterns differ)";
}

/** Noisy additive objective used to generate training targets. */
double
objective(const linalg::Vector& x)
{
    double v = 0.0;
    for (size_t d = 0; d < x.size(); ++d)
        v += std::sin(3.0 * x[d] + double(d)) + 0.1 * x[d] * x[d];
    return v;
}

std::vector<linalg::Vector>
randomPoints(size_t count, size_t dims, Rng& rng)
{
    std::vector<linalg::Vector> pts(count, linalg::Vector(dims));
    for (auto& p : pts)
        for (double& v : p)
            v = rng.uniform(-2.0, 2.0);
    return pts;
}

GaussianProcess
makeFittedGp(const std::string& kernel_name, size_t dims, size_t n,
             bool ard, Rng& rng)
{
    auto kernel = makeKernel(kernel_name, dims, 0.7, 1.3);
    if (ard) {
        std::vector<double> p;
        p.push_back(std::log(1.3));
        for (size_t d = 0; d < dims; ++d)
            p.push_back(std::log(0.4 + 0.3 * double(d)));
        kernel->setLogParams(p);
    } else {
        kernel->setIsotropic(true);
    }
    GaussianProcess gp(std::move(kernel), 1e-6);
    std::vector<linalg::Vector> x = randomPoints(n, dims, rng);
    std::vector<double> y;
    for (const auto& xi : x)
        y.push_back(objective(xi));
    gp.fit(x, y);
    return gp;
}

Prediction
reference(const GaussianProcess& gp, const linalg::Vector& x)
{
    return ScalarPosteriorReference::predict(gp, x);
}

/** predictBatch and the one-row predict() against the reference. */
void
expectBatchMatchesScalar(const GaussianProcess& gp,
                         const std::vector<linalg::Vector>& cands)
{
    std::vector<Prediction> batch = gp.predictBatch(cands);
    ASSERT_EQ(batch.size(), cands.size());
    for (size_t i = 0; i < cands.size(); ++i) {
        const Prediction ref = reference(gp, cands[i]);
        EXPECT_TRUE(bitEqual(batch[i].mean, ref.mean))
            << "mean, candidate " << i;
        EXPECT_TRUE(bitEqual(batch[i].variance, ref.variance))
            << "variance, candidate " << i;
        const Prediction one = gp.predict(cands[i]);
        EXPECT_TRUE(bitEqual(one.mean, ref.mean))
            << "predict() mean, candidate " << i;
        EXPECT_TRUE(bitEqual(one.variance, ref.variance))
            << "predict() variance, candidate " << i;
    }
}

class PredictBatchKernels : public ::testing::TestWithParam<const char*>
{
};

TEST_P(PredictBatchKernels, BitIdenticalAcrossBatchSizes)
{
    // Batch sizes from the issue: 1, 7, 64, 256 — 7 and 256 exercise
    // the ragged tail against the internal block size.
    Rng rng(901);
    GaussianProcess gp = makeFittedGp(GetParam(), 3, 40, /*ard=*/false, rng);
    for (size_t count : {size_t(1), size_t(7), size_t(64), size_t(256)}) {
        std::vector<linalg::Vector> cands = randomPoints(count, 3, rng);
        expectBatchMatchesScalar(gp, cands);
    }
}

TEST_P(PredictBatchKernels, BitIdenticalWithArdLengthscales)
{
    Rng rng(902);
    GaussianProcess gp = makeFittedGp(GetParam(), 4, 33, /*ard=*/true, rng);
    expectBatchMatchesScalar(gp, randomPoints(71, 4, rng));
}

TEST_P(PredictBatchKernels, BitIdenticalAfterIncrementalAppend)
{
    // addSample takes the rank-append Cholesky path; the batch solve
    // must agree with scalar predictions against that factor too.
    Rng rng(903);
    GaussianProcess gp = makeFittedGp(GetParam(), 2, 20, /*ard=*/false, rng);
    for (int i = 0; i < 5; ++i) {
        linalg::Vector x = randomPoints(1, 2, rng)[0];
        gp.addSample(x, objective(x));
    }
    expectBatchMatchesScalar(gp, randomPoints(50, 2, rng));
}

INSTANTIATE_TEST_SUITE_P(AllKernels, PredictBatchKernels,
                         ::testing::Values("matern52", "matern32", "rbf"),
                         [](const auto& info) {
                             return std::string(info.param);
                         });

TEST(PredictBatch, SubrangeMatchesFullEvaluation)
{
    Rng rng(904);
    GaussianProcess gp = makeFittedGp("matern52", 3, 25, false, rng);
    std::vector<linalg::Vector> cands = randomPoints(90, 3, rng);

    std::vector<double> means(90, 0.0), vars(90, 0.0);
    // Evaluate in uneven chunks through the (begin, count) interface.
    size_t begin = 0;
    for (size_t chunk : {size_t(13), size_t(64), size_t(13)}) {
        gp.predictBatch(cands, begin, chunk, means.data() + begin,
                        vars.data() + begin);
        begin += chunk;
    }
    ASSERT_EQ(begin, cands.size());

    for (size_t i = 0; i < cands.size(); ++i) {
        const Prediction ref = reference(gp, cands[i]);
        EXPECT_TRUE(bitEqual(means[i], ref.mean)) << i;
        EXPECT_TRUE(bitEqual(vars[i], ref.variance)) << i;
    }
}

TEST(PredictBatch, SingleTrainingPoint)
{
    Rng rng(905);
    GaussianProcess gp = makeFittedGp("rbf", 2, 1, false, rng);
    expectBatchMatchesScalar(gp, randomPoints(9, 2, rng));
}

TEST(PredictBatch, ZeroCountIsANoop)
{
    Rng rng(906);
    GaussianProcess gp = makeFittedGp("matern32", 2, 8, false, rng);
    std::vector<linalg::Vector> cands = randomPoints(4, 2, rng);
    gp.predictBatch(cands, 2, 0, nullptr, nullptr);
}

TEST(PredictBatch, AcrossTheTrsmRowBlock)
{
    // 47–49 and 97 training points straddle the 48-row TRSM block, for
    // one-row (predict) and multi-row panels alike.
    for (const char* kernel : {"matern52", "matern32", "rbf"}) {
        for (size_t n : {size_t(47), size_t(48), size_t(49), size_t(97)}) {
            SCOPED_TRACE(std::string(kernel) + " n=" + std::to_string(n));
            Rng rng(908 + n);
            GaussianProcess gp = makeFittedGp(kernel, 5, n, true, rng);
            expectBatchMatchesScalar(gp, randomPoints(20, 5, rng));
        }
    }
}

/** The explicit probe vectors predictProbes stands for. */
std::vector<linalg::Vector>
explicitProbes(const linalg::Vector& x, const std::vector<size_t>& coords,
               double h)
{
    std::vector<linalg::Vector> probes;
    for (size_t c : coords) {
        probes.push_back(x);
        probes.back()[c] = x[c] + h;
        probes.push_back(x);
        probes.back()[c] = x[c] - h;
    }
    return probes;
}

/** The probe panel against predictBatch and the reference posterior
 *  over the explicitly built probe vectors. */
void
expectProbesMatchBatch(const GaussianProcess& gp, const linalg::Vector& x,
                       const std::vector<size_t>& coords, double h)
{
    const size_t count = 2 * coords.size();
    std::vector<double> pm(count), pv(count), bm(count), bv(count);
    gp.predictProbes(x, coords, h, pm.data(), pv.data());
    const std::vector<linalg::Vector> probes = explicitProbes(x, coords, h);
    gp.predictBatch(probes, 0, probes.size(), bm.data(), bv.data());
    for (size_t t = 0; t < count; ++t) {
        const Prediction ref = reference(gp, probes[t]);
        EXPECT_TRUE(bitEqual(pm[t], ref.mean)) << "mean, probe " << t;
        EXPECT_TRUE(bitEqual(pv[t], ref.variance))
            << "variance, probe " << t;
        EXPECT_TRUE(bitEqual(pm[t], bm[t])) << "batch mean, probe " << t;
        EXPECT_TRUE(bitEqual(pv[t], bv[t]))
            << "batch variance, probe " << t;
    }
}

/** (kernel, ARD, training points). */
class ProbePanel
    : public ::testing::TestWithParam<std::tuple<const char*, bool, size_t>>
{
};

TEST_P(ProbePanel, BitIdenticalToExplicitProbes)
{
    const auto [kernel, ard, n] = GetParam();
    const size_t dims = 6;
    Rng rng(910 + n);
    GaussianProcess gp = makeFittedGp(kernel, dims, n, ard, rng);
    for (int rep = 0; rep < 3; ++rep) {
        const linalg::Vector x = randomPoints(1, dims, rng)[0];
        // Every coordinate at the controller's step, then a subset out
        // of order at the optimizer's default step.
        expectProbesMatchBatch(gp, x, {0, 1, 2, 3, 4, 5}, 0.02);
        expectProbesMatchBatch(gp, x, {4, 1, 5}, 1e-3);
    }
}

INSTANTIATE_TEST_SUITE_P(
    KernelsModesSizes, ProbePanel,
    ::testing::Combine(::testing::Values("matern52", "matern32", "rbf"),
                       ::testing::Bool(),
                       ::testing::Values(size_t(1), size_t(47), size_t(48),
                                         size_t(49), size_t(97))),
    [](const auto& info) {
        return std::string(std::get<0>(info.param)) +
               (std::get<1>(info.param) ? "_ard_n" : "_iso_n") +
               std::to_string(std::get<2>(info.param));
    });

TEST(ProbePanel, AtATrainingPointAndAfterIncrementalAppend)
{
    Rng rng(909);
    GaussianProcess gp = makeFittedGp("matern52", 4, 30, true, rng);
    for (int i = 0; i < 4; ++i) {
        linalg::Vector x = randomPoints(1, 4, rng)[0];
        gp.addSample(x, objective(x));
        // Probing from the sample just added: zero distance terms.
        expectProbesMatchBatch(gp, x, {0, 1, 2, 3}, 0.02);
    }
}

TEST(ProbePanel, NoCoordinatesIsANoop)
{
    Rng rng(911);
    GaussianProcess gp = makeFittedGp("rbf", 2, 5, false, rng);
    gp.predictProbes({0.1, 0.2}, {}, 0.02, nullptr, nullptr);
}

} // namespace
} // namespace gp
} // namespace clite
