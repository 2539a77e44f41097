/**
 * @file
 * Determinism of the budget-bounded search: the budget layer adds
 * mid-window peeks, cost-normalized acquisition, and extra stopping
 * rules, and NONE of them may depend on the thread pool. A budgeted
 * run must be bit-identical across thread counts 1..8 (1 = serial
 * path, >1 = pooled acquisition), sample for sample, charge for
 * charge — the same invariant the unbudgeted controller already
 * holds.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "core/clite.h"
#include "platform/server.h"
#include "workloads/catalog.h"
#include "workloads/perf_model.h"

namespace clite {
namespace bo {
namespace {

platform::SimulatedServer
makeServer()
{
    // Loaded enough that the search spends violating windows and the
    // early-abort machinery actually fires.
    return platform::SimulatedServer(
        platform::ServerConfig::xeonSilver4114(),
        {workloads::lcJob("xapian", 0.7), workloads::lcJob("memcached", 0.7),
         workloads::bgJob("canneal")},
        std::make_unique<workloads::AnalyticModel>(), 3, 0.02);
}

core::ControllerResult
runBudgeted(int threads, uint64_t seed = 11, double budget_seconds = 50.0)
{
    setGlobalThreadCount(threads);
    core::CliteOptions o;
    o.seed = seed;
    o.max_iterations = 14;
    o.polish_iterations = 3;
    o.budget.budget_seconds = budget_seconds;
    auto server = makeServer();
    core::CliteController ctl(o);
    return ctl.run(server);
}

/**
 * FNV-1a over every sample's allocation key, %.17g score, status and
 * %.17g charged seconds, then the best score: a change to any decision
 * or any charged second of the run changes it.
 */
uint64_t
traceDigest(const core::ControllerResult& r)
{
    uint64_t h = 1469598103934665603ull;
    auto mix = [&](const std::string& s) {
        for (unsigned char c : s) {
            h ^= c;
            h *= 1099511628211ull;
        }
    };
    char buf[128];
    for (const core::SampleRecord& rec : r.trace) {
        std::snprintf(buf, sizeof buf, "|%.17g|%d|%.17g;", rec.score,
                      int(rec.status), rec.cost_seconds);
        mix(rec.alloc.key());
        mix(buf);
    }
    std::snprintf(buf, sizeof buf, "best %.17g", r.best_score);
    mix(buf);
    return h;
}

TEST(BudgetDeterminism, BudgetedSearchBitIdenticalAcrossThreadCounts)
{
    const core::ControllerResult serial = runBudgeted(1);
    // The run must actually exercise the budget machinery, otherwise
    // the property is the (already-tested) unbudgeted one.
    bool any_aborted = false;
    for (const auto& rec : serial.trace)
        if (rec.status == core::SampleStatus::Aborted)
            any_aborted = true;
    EXPECT_TRUE(any_aborted || serial.budget_exhausted)
        << "budget layer never engaged; scenario too easy";

    for (int threads = 2; threads <= 8; ++threads) {
        const core::ControllerResult par = runBudgeted(threads);
        ASSERT_EQ(par.samples, serial.samples) << "threads=" << threads;
        ASSERT_EQ(par.trace.size(), serial.trace.size())
            << "threads=" << threads;
        for (size_t i = 0; i < serial.trace.size(); ++i) {
            const core::SampleRecord& a = serial.trace[i];
            const core::SampleRecord& b = par.trace[i];
            EXPECT_TRUE(a.alloc == b.alloc)
                << "threads=" << threads << " sample=" << i;
            EXPECT_EQ(a.score, b.score)
                << "threads=" << threads << " sample=" << i;
            EXPECT_EQ(a.status, b.status)
                << "threads=" << threads << " sample=" << i;
            EXPECT_EQ(a.all_qos_met, b.all_qos_met)
                << "threads=" << threads << " sample=" << i;
            EXPECT_EQ(a.cost_seconds, b.cost_seconds)
                << "threads=" << threads << " sample=" << i;
        }
        EXPECT_EQ(par.best_score, serial.best_score)
            << "threads=" << threads;
        ASSERT_EQ(par.best.has_value(), serial.best.has_value());
        if (serial.best.has_value()) {
            EXPECT_TRUE(*par.best == *serial.best)
                << "threads=" << threads;
        }
        EXPECT_EQ(par.budget_exhausted, serial.budget_exhausted)
            << "threads=" << threads;
        EXPECT_EQ(par.chargedSeconds(), serial.chargedSeconds())
            << "threads=" << threads;
        EXPECT_EQ(par.violatingSampleSeconds(),
                  serial.violatingSampleSeconds())
            << "threads=" << threads;
    }
    setGlobalThreadCount(1);
}

TEST(BudgetDeterminism, CostNormalizedTracesArePinned)
{
    // Budgeted runs with the default cost-normalized acquisition, whose
    // gradient probes read means and variances from the GP probe panel.
    // The digests were taken from the scalar per-probe implementation
    // the panel replaced: every sample, status and charge is unchanged.
    struct Case
    {
        uint64_t seed;
        double budget;
        int samples;
        uint64_t digest;
    };
    const Case cases[] = {
        {11, 50.0, 21, 0xfb88dcf7ae47fdf6ull},
        {12, 50.0, 15, 0xcd416b1f4f478f62ull},
        {13, 30.0, 9, 0x088d8fb35e7a8d3dull},
    };
    for (const Case& c : cases) {
        const core::ControllerResult r = runBudgeted(1, c.seed, c.budget);
        EXPECT_EQ(r.samples, c.samples) << "seed " << c.seed;
        EXPECT_EQ(traceDigest(r), c.digest) << "seed " << c.seed;
    }
}

} // namespace
} // namespace bo
} // namespace clite
