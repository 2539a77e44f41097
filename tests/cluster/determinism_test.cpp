/**
 * @file
 * Thread-count invariance of the fleet: a lockstep window fans node
 * evaluations out on the global pool, and the result must be
 * bit-identical to the serial run — same placements, same programmed
 * allocations, same scores — for any worker count. The digest
 * compares %.17g-formatted doubles, so "identical" here means to the
 * last ULP.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "common/thread_pool.h"
#include "platform/server.h"
#include "workloads/catalog.h"

namespace clite {
namespace cluster {
namespace {

/** Run a small churny scenario and return per-window digests. */
std::vector<std::string>
runScenario(uint64_t seed, int threads)
{
    setGlobalThreadCount(threads);

    FleetOptions options;
    options.nodes = 4;
    options.seed = seed;
    options.clite.max_iterations = 8;
    options.clite.acquisition_starts = 2;
    Fleet fleet(options);

    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();

    std::vector<std::string> digests;
    for (int w = 0; w < 6; ++w) {
        // Two arrivals a window, seed-dependent mix; one hot tenant to
        // force an eviction somewhere in the run.
        size_t k = size_t(seed) + size_t(w);
        fleet.admit(workloads::lcJob(lc[k % lc.size()],
                                     w == 3 ? 1.0 : 0.3));
        fleet.admit(workloads::bgJob(bg[k % bg.size()]));
        fleet.tick();
        digests.push_back(fleet.digest());
    }
    return digests;
}

TEST(FleetDeterminism, SlowParallelTicksMatchSerialAcrossTenSeeds)
{
    for (uint64_t seed = 1; seed <= 10; ++seed) {
        std::vector<std::string> serial = runScenario(seed, 1);
        std::vector<std::string> parallel = runScenario(seed, 8);
        ASSERT_EQ(serial.size(), parallel.size());
        for (size_t w = 0; w < serial.size(); ++w)
            EXPECT_EQ(serial[w], parallel[w])
                << "seed " << seed << ", window " << w + 1
                << ": parallel fleet tick diverged from serial";
    }
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
}

TEST(FleetDeterminism, RepeatedRunsAreIdentical)
{
    std::vector<std::string> a = runScenario(5, 4);
    std::vector<std::string> b = runScenario(5, 4);
    EXPECT_EQ(a, b);
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
}

/**
 * A small async churn episode: arrivals with a hot tenant every few
 * windows (evictions and re-placements change node job sets), load
 * drift, worker loss. With @p observe, every window ends with a
 * read-only scoring pass over each node's programmed allocation, the
 * way a benchmark or dashboard reads the fleet. Returns per-window
 * digests.
 */
std::vector<std::string>
runAsyncEpisode(bool observe)
{
    FleetOptions options;
    options.nodes = 16;
    options.seed = 9;
    options.clite.max_iterations = 8;
    options.clite.acquisition_starts = 2;
    Fleet fleet(options);
    AsyncOptions ao;
    ao.workers = 4;
    ao.max_retries = 6;
    ao.faults.worker_loss_prob = 0.05;
    ao.fault_seed = 9;
    AsyncFleetEngine engine(fleet, ao);

    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    std::vector<std::string> digests;
    for (int w = 0; w < 12; ++w) {
        for (size_t a = 0; a < 4; ++a) {
            const size_t k = size_t(w) * 7 + a * 3;
            fleet.admit(workloads::lcJob(lc[k % lc.size()],
                                         a == 0 && w % 3 == 2 ? 1.0 : 0.25));
            fleet.admit(workloads::bgJob(bg[k % bg.size()]));
        }
        if (w % 3 == 1)
            for (const FleetJob& job : fleet.jobs())
                if (job.state == JobState::Placed &&
                    job.spec.isLatencyCritical() &&
                    job.spec.load_fraction < 1.0)
                    fleet.setJobLoad(job.id, w % 2 == 0 ? 0.45 : 0.3);
        engine.run(1);
        digests.push_back(fleet.digest());
        if (!observe)
            continue;
        for (size_t n = 0; n < fleet.nodeCount(); ++n) {
            const platform::SimulatedServer* server = fleet.nodeServer(n);
            if (server != nullptr && fleet.nodeManager(n) != nullptr)
                server->observeNoiseless(server->currentAllocation());
        }
    }
    return digests;
}

TEST(FleetDeterminism, AsyncEpisodeRepeatsWhetherOrNotObserved)
{
    // One process, the same episode three times: observed, then twice
    // unobserved. Reading a node must not change what it later decides,
    // and nothing an earlier episode left behind may either.
    setGlobalThreadCount(1);
    const std::vector<std::string> observed = runAsyncEpisode(true);
    const std::vector<std::string> first = runAsyncEpisode(false);
    const std::vector<std::string> second = runAsyncEpisode(false);
    ASSERT_EQ(observed.size(), first.size());
    for (size_t w = 0; w < first.size(); ++w) {
        EXPECT_EQ(observed[w], first[w]) << "window " << w + 1;
        EXPECT_EQ(first[w], second[w]) << "window " << w + 1;
    }
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
}

TEST(FleetDeterminism, DifferentSeedsDiverge)
{
    // Guards against a digest that ignores the interesting state: two
    // different fleets must not collapse to the same fingerprint.
    std::vector<std::string> a = runScenario(1, 1);
    std::vector<std::string> b = runScenario(2, 1);
    EXPECT_NE(a.back(), b.back());
    setGlobalThreadCount(ThreadPool::defaultThreadCount());
}

} // namespace
} // namespace cluster
} // namespace clite
