/**
 * @file
 * fleet-churn: an AsyncFleetEngine over a 256-node analytic fleet with
 * the fleet-scaling per-node budgets (8 iterations, 2 acquisition
 * starts), the engine's default chaos (stragglers, hedging) and a 5%
 * worker-loss rate. Bring-up admits an initial population and runs
 * until it is placed and searched; every measured window then brings
 * arrivals (10% of them full-load hot tenants that no co-location can
 * serve), load drift on placed LC jobs through Fleet::setJobLoad, and
 * one AsyncFleetEngine::run(1).
 *
 * One round is one episode (bring-up plus the measured windows); the
 * seed and the round number draw the arrivals, the drift and the fleet
 * and fault seeds. The deterministic figures come from round 0.
 */

#include <algorithm>
#include <map>
#include <string>
#include <vector>

#include "cluster/fleet.h"
#include "cluster/manager.h"
#include "common/error.h"
#include "common/rng.h"
#include "harness.h"
#include "workloads/catalog.h"

namespace perfbench {

using namespace clite;

namespace {

constexpr int kNodes = 256;
constexpr int kInitialJobs = kNodes * 3 / 2;
constexpr int kBringUpWindows = 2;
constexpr int kWindows = 24;
constexpr int kArrivalsPerWindow = kNodes / 16;
constexpr int kDriftsPerWindow = kNodes / 16;

workloads::JobSpec
drawJob(Rng& rng)
{
    const std::vector<std::string>& lc = workloads::lcWorkloadNames();
    const std::vector<std::string>& bg = workloads::bgWorkloadNames();
    const double u = rng.uniform();
    if (u < 0.1)
        return workloads::lcJob("masstree", 1.0); // hot tenant
    if (u < 0.4)
        return workloads::bgJob(
            bg[size_t(rng.uniformInt(0, int64_t(bg.size()) - 1))]);
    return workloads::lcJob(
        lc[size_t(rng.uniformInt(0, int64_t(lc.size()) - 1))],
        rng.uniform(0.2, 0.6));
}

/** Per-node view kept between windows to detect searches. */
struct NodeSeen
{
    const core::OnlineManager* manager = nullptr;
    bool initialized = false;
    int windows = 0;
    int reopts = 0;
    std::vector<uint64_t> jobs;
};

/** OnlineManager has no initialized() query; lastResult() throws
 *  until initialize() has run. */
bool
managerInitialized(const core::OnlineManager& m)
{
    try {
        m.lastResult();
        return true;
    } catch (const Error&) {
        return false;
    }
}

/** Node searches found in one window, with what they consulted. */
struct SearchTally
{
    uint64_t searches = 0;
    uint64_t reopts = 0;
    uint64_t samples = 0;
    uint64_t cold = 0, exact = 0, similar = 0;

    SearchTally& operator+=(const SearchTally& o)
    {
        searches += o.searches;
        reopts += o.reopts;
        samples += o.samples;
        cold += o.cold;
        exact += o.exact;
        similar += o.similar;
        return *this;
    }
};

SearchTally
collectSearches(const cluster::Fleet& fleet, std::vector<NodeSeen>& seen)
{
    SearchTally t;
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        NodeSeen& s = seen[n];
        const core::OnlineManager* m = fleet.nodeManager(n);
        // A node that emptied gets a new manager, which the allocator
        // may place at the old one's address: counters that went
        // backwards also mark a new manager. A manager created and torn
        // down within one window is never seen.
        if (m != s.manager ||
            (m != nullptr && (m->windows() < s.windows ||
                              m->reoptimizations() < s.reopts))) {
            s = NodeSeen{};
            s.manager = m;
        }
        if (m == nullptr)
            continue;
        const std::vector<uint64_t>& jobs = fleet.nodeJobIds(n);
        bool searched = false, consulted_store = false;
        if (!s.initialized) {
            if (managerInitialized(*m)) {
                s.initialized = true;
                searched = consulted_store = true;
            }
        } else if (m->reoptimizations() > s.reopts) {
            ++t.reopts;
            searched = true;
            consulted_store = jobs != s.jobs;
        }
        if (searched) {
            ++t.searches;
            t.samples += uint64_t(m->lastResult().samples);
        }
        if (consulted_store) {
            const std::string src = m->warmSource();
            t.cold += src == "cold";
            t.exact += src == "exact";
            t.similar += src == "similar";
        }
        s.windows = m->windows();
        s.reopts = m->reoptimizations();
        s.jobs = jobs;
    }
    return t;
}

/** Registry invariants, and Eq. 4-6 on every searched node. */
void
checkFleet(const cluster::Fleet& fleet, const std::vector<NodeSeen>& seen,
           size_t admitted, Outcome& out, const std::string& where)
{
    const std::vector<cluster::FleetJob>& jobs = fleet.jobs();
    out.check(jobs.size() == admitted,
              where + ": " + std::to_string(jobs.size()) +
                  " jobs tracked, " + std::to_string(admitted) +
                  " admitted");
    std::vector<int> hosted(jobs.size() + 1, 0);
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        for (uint64_t id : fleet.nodeJobIds(n)) {
            if (id < 1 || id > jobs.size()) {
                out.check(false, where + ": node " + std::to_string(n) +
                                     " hosts unknown job " +
                                     std::to_string(id));
                continue;
            }
            ++hosted[id];
            const cluster::FleetJob& j = jobs[id - 1];
            out.check(j.state == cluster::JobState::Placed &&
                          j.node == int(n),
                      where + ": job " + std::to_string(id) +
                          " hosted on node " + std::to_string(n) +
                          " but registered elsewhere");
        }
        const platform::SimulatedServer* server = fleet.nodeServer(n);
        if (seen[n].initialized && server != nullptr)
            out.check(satisfiesEq4to6(server->currentAllocation(),
                                      server->config(), server->jobCount()),
                      where + ": node " + std::to_string(n) +
                          " allocation in force breaks Eq. 4-6");
    }
    for (const cluster::FleetJob& j : jobs) {
        const bool placed = j.state == cluster::JobState::Placed;
        out.check(placed ? hosted[j.id] == 1 : hosted[j.id] == 0,
                  where + ": job " + std::to_string(j.id) + " (" +
                      cluster::jobStateName(j.state) + ") hosted " +
                      std::to_string(hosted[j.id]) + " times");
    }
}

/** Own-Eq. 3 noise-free scores of the searched nodes. */
struct FleetScore
{
    double sum = 0.0;
    uint64_t nodes = 0;
    uint64_t qos_met = 0; ///< Nodes whose every LC job meets QoS.
};

FleetScore
fleetScore(const cluster::Fleet& fleet, const std::vector<NodeSeen>& seen)
{
    FleetScore f;
    for (size_t n = 0; n < fleet.nodeCount(); ++n) {
        const platform::SimulatedServer* server = fleet.nodeServer(n);
        if (!seen[n].initialized || server == nullptr)
            continue;
        const double score =
            eq3Score(server->observeNoiseless(server->currentAllocation()));
        f.sum += score;
        ++f.nodes;
        f.qos_met += score >= 0.5;
    }
    return f;
}

/** The inputs of one episode, drawn from the seed. */
struct EpisodeInput
{
    std::vector<workloads::JobSpec> initial;
    std::vector<std::vector<workloads::JobSpec>> arrivals; ///< Per window.
    std::vector<std::vector<double>> drift_pick;  ///< Per window, in [0,1).
    std::vector<std::vector<double>> drift_load;  ///< New load fractions.
    uint64_t fleet_seed = 1;
    uint64_t fault_seed = 1;
};

EpisodeInput
makeInput(uint64_t seed, uint64_t round)
{
    Rng rng(SplitMix64(seed * 0x9E3779B97F4A7C15ull + round).next() ^
            0xF1EE7);
    EpisodeInput in;
    in.fleet_seed = rng.next();
    in.fault_seed = rng.next();
    for (int i = 0; i < kInitialJobs; ++i)
        in.initial.push_back(drawJob(rng));
    for (int w = 0; w < kWindows; ++w) {
        std::vector<workloads::JobSpec> a;
        for (int i = 0; i < kArrivalsPerWindow; ++i)
            a.push_back(drawJob(rng));
        in.arrivals.push_back(std::move(a));
        std::vector<double> pick, load;
        for (int i = 0; i < kDriftsPerWindow; ++i) {
            pick.push_back(rng.uniform());
            load.push_back(rng.uniform(0.2, 0.6));
        }
        in.drift_pick.push_back(std::move(pick));
        in.drift_load.push_back(std::move(load));
    }
    return in;
}

/** Placed LC jobs below full load: the ones drift applies to. */
std::vector<uint64_t>
driftable(const cluster::Fleet& fleet)
{
    std::vector<uint64_t> ids;
    for (const cluster::FleetJob& j : fleet.jobs())
        if (j.state == cluster::JobState::Placed &&
            j.spec.isLatencyCritical() && j.spec.load_fraction < 1.0)
            ids.push_back(j.id);
    return ids;
}

} // namespace

Outcome
runFleetChurn(const Args& args)
{
    Outcome out;
    ScopedSpan workload_span("workload.fleet-churn");

    std::vector<double> setup_s, window_ms, search_ms;
    double total_window_s = 0.0;
    uint64_t committed_timed = 0;
    // First-round tallies: deterministic for a seed.
    std::map<std::string, double> first;
    double score_sum = 0.0, search_windows = 0.0;
    uint64_t scored_nodes = 0, qos_met_nodes = 0;

    const double start = now();
    for (uint64_t round = 0; round == 0 || now() - start < args.seconds;
         ++round) {
        ScopedSpan round_span("round");
        const EpisodeInput in = makeInput(args.seed, round);
        std::vector<NodeSeen> seen(kNodes);
        SearchTally tally;

        const double t0 = now();
        std::unique_ptr<cluster::Fleet> fleet;
        std::unique_ptr<cluster::AsyncFleetEngine> engine;
        {
            ScopedSpan span("setup");
            cluster::FleetOptions fo;
            fo.nodes = kNodes;
            fo.seed = in.fleet_seed;
            fo.clite.max_iterations = 8;
            fo.clite.acquisition_starts = 2;
            fleet = std::make_unique<cluster::Fleet>(fo);
            cluster::AsyncOptions ao;
            ao.workers = kNodes / 4;
            ao.max_retries = 6;
            ao.faults.worker_loss_prob = 0.05;
            ao.fault_seed = in.fault_seed;
            engine = std::make_unique<cluster::AsyncFleetEngine>(*fleet, ao);
            for (const workloads::JobSpec& spec : in.initial)
                fleet->admit(spec);
            for (int w = 0; w < kBringUpWindows; ++w) {
                const double tw = now();
                engine->run(1);
                const double secs = now() - tw;
                const SearchTally t = collectSearches(*fleet, seen);
                tally += t;
                // The first window holds every occupied node's initial
                // search and no monitoring tick: its time per search
                // (placing the population included) is the fleet's
                // search time. Later windows mix searches with ticks.
                if (w == 0 && t.searches > 0)
                    search_ms.push_back(secs * 1e3 / double(t.searches));
            }
        }
        setup_s.push_back(now() - t0);
        ++out.attempted;
        size_t admitted = in.initial.size();

        for (int w = 0; w < kWindows; ++w) {
            for (const workloads::JobSpec& spec : in.arrivals[size_t(w)])
                fleet->admit(spec);
            admitted += in.arrivals[size_t(w)].size();
            const std::vector<uint64_t> ids = driftable(*fleet);
            for (size_t i = 0; !ids.empty() && i < in.drift_pick[size_t(w)].size();
                 ++i) {
                const size_t pick = size_t(in.drift_pick[size_t(w)][i] *
                                           double(ids.size()));
                fleet->setJobLoad(ids[std::min(pick, ids.size() - 1)],
                                  in.drift_load[size_t(w)][i]);
            }

            const uint64_t committed_before =
                engine->metrics().tasks_committed;
            const double t1 = now();
            {
                ScopedSpan span("fleet.window");
                engine->run(1);
            }
            const double secs = now() - t1;
            ++out.attempted;
            window_ms.push_back(secs * 1e3);
            total_window_s += secs;
            committed_timed +=
                engine->metrics().tasks_committed - committed_before;

            // Accounting and checks, outside the timed span.
            tally += collectSearches(*fleet, seen);
            checkFleet(*fleet, seen, admitted, out,
                       "round " + std::to_string(round) + " window " +
                           std::to_string(w));
            if (round == 0) {
                const FleetScore f = fleetScore(*fleet, seen);
                score_sum += f.nodes ? f.sum / double(f.nodes) : 0.0;
                scored_nodes += f.nodes;
                qos_met_nodes += f.qos_met;
            }
        }
        out.check(!engine->metrics().stalled,
                  "round " + std::to_string(round) + ": the engine stalled");

        if (round == 0) {
            const cluster::FleetMetrics& m = engine->metrics();
            const cluster::FleetSummary s = fleet->summarize();
            search_windows = tally.searches ? double(tally.samples) /
                                                  double(tally.searches)
                                            : 0.0;
            first = {
                {"fleet.dispatched", double(m.tasks_dispatched)},
                {"fleet.committed", double(m.tasks_committed)},
                {"fleet.retried", double(m.tasks_retried)},
                {"fleet.hedges_won", double(m.hedges_won)},
                {"fleet.workers_lost", double(m.workers_lost)},
                {"fleet.evictions", double(s.evictions)},
                {"fleet.parked", double(s.jobs_parked)},
                {"fleet.node_reoptimizations", double(tally.reopts)},
                {"fleet.summary_reoptimizations", double(s.reoptimizations)},
                {"reoptimizations", double(tally.reopts)},
                {"refits", double(m.refits)},
                {"probe_evals", double(m.probe_evals)},
                {"warm_probe_hits", double(m.warm_probe_hits)},
                {"coarse_windows", double(m.coarse_windows)},
                {"transients_ridden", double(m.transients_ridden)},
                {"sustained_shifts", double(m.sustained_shifts)},
                {"violating_windows", double(m.violating_windows)},
                {"qos_windows", double(m.qos_windows)},
                {"store.snapshots", double(fleet->profileStore().size())},
                {"warm.exact", double(tally.exact)},
                {"warm.similar", double(tally.similar)},
                {"warm.cold", double(tally.cold)},
            };
        }
    }

    const double windows_per_s =
        total_window_s > 0.0 ? double(committed_timed) / total_window_s : 0.0;
    const double score_mean = score_sum / kWindows;
    const double qos_share =
        scored_nodes ? double(qos_met_nodes) / double(scored_nodes) : 0.0;
    out.end_to_end = {
        {"setup_s", percentile(setup_s, 0.5)},
        {"windows_per_s", windows_per_s},
        {"window_ms.p50", percentile(window_ms, 0.5)},
        {"window_ms.tail", percentile(window_ms, kTail)},
        {"search_ms.mean", mean(search_ms)},
        {"search_ms.tail", percentile(search_ms, kTail)},
        {"search_windows", search_windows},
        {"score.mean", score_mean},
        {"qos_met.share", qos_share},
    };

    out.decisions = first;
    out.decisions["search_windows"] = search_windows;
    out.decisions["score.mean"] = score_mean;
    out.decisions["qos_met.share"] = qos_share;

    for (const auto& [name, value] : first)
        out.per_layer.push_back({name, value});
    const double dispatched = first["fleet.dispatched"];
    out.per_layer.insert(
        out.per_layer.end(),
        {
            {"fleet.commit_ratio",
             dispatched > 0.0 ? first["fleet.committed"] / dispatched : 0.0},
            {"probe_evals_per_refit",
             first["refits"] > 0.0 ? first["probe_evals"] / first["refits"]
                                   : 0.0},
            {"trace.windows_per_s", windows_per_s},
        });
    return out;
}

} // namespace perfbench
