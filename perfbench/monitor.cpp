/**
 * @file
 * monitor-des: one DES-backend node under core::OnlineManager. A
 * composite trace (jittered diurnal swell plus flash crowds) sets the
 * traced LC job's load every 2 s window; the manager rides transients
 * (ReoptPolicy::RideTransients), searches with the fleet-default
 * coarse probe budget and checkpoints into an attached ProfileStore.
 * After every tick the benchmark also writes the manager's checkpoint
 * into a throwaway store, as a node agent persisting its state would.
 *
 * One round is one episode; the seed and the round number draw the
 * trace, the steady LC job's load and the server and controller seeds.
 * Every run completes the first kCounted rounds, and the deterministic
 * figures come from them.
 */

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/monitor.h"
#include "harness.h"
#include "store/profile_store.h"
#include "workloads/catalog.h"
#include "workloads/traffic/traffic.h"

namespace perfbench {

using namespace clite;

namespace {

constexpr double kWindowS = 2.0;
constexpr int kTicks = 60;
constexpr uint64_t kSearchEventBudget = 2000; ///< Fleet default.

/**
 * Every episode runs the same node: memcached follows the trace beside
 * img-dnn at a steady load and swaptions in the background. One node
 * type keeps the per-tick DES cost unimodal, so medians do not jump
 * between the costs of different mixes from seed to seed.
 */
constexpr const char* kTraced = "memcached";
constexpr const char* kSteady = "img-dnn";
constexpr const char* kBackground = "swaptions";
/** Rounds every run completes; the deterministic figures cover them. */
constexpr uint64_t kCounted = 6;
/**
 * Fresh set-ups per round, on inputs of their own; setup_s is the
 * median over all of a run's. A set-up includes a cold search whose
 * length varies with its input, so one set-up per round left too few
 * for a steady median.
 */
constexpr int kSetups = 4;

struct EpisodeInput
{
    std::vector<workloads::JobSpec> jobs; ///< jobs[0] is traced.
    std::shared_ptr<const workloads::LoadTrace> trace;
    uint64_t server_seed = 1;
    uint64_t controller_seed = 7;
};

/**
 * The traced job's load: a jittered diurnal swell plus flash crowds.
 * One crowd starts in each kCrowdSlotS slot, at a seeded offset and
 * with a seeded size, so every episode sees the same number of them
 * (a Poisson count would make the round's search load, and with it
 * every timing, swing from seed to seed).
 */
std::shared_ptr<const workloads::LoadTrace>
makeTrace(Rng& rng)
{
    using namespace workloads::traffic;
    constexpr double kHorizonS = kTicks * kWindowS;
    constexpr double kCrowdSlotS = 30.0;
    constexpr double kDecayS = 2.5;
    JitteredDiurnalTrace::Options d;
    d.base = 0.3;
    d.amplitude = 0.15;
    d.period_seconds = 80.0;
    d.phase_radians = rng.uniform(0.0, 6.283185307179586);
    d.jitter = 0.03;
    d.jitter_interval_s = 4.0;

    std::vector<double> onsets, sizes;
    for (double slot = 0.0; slot < kHorizonS; slot += kCrowdSlotS) {
        onsets.push_back(slot + rng.uniform(2.0, kCrowdSlotS - 6.0));
        sizes.push_back(rng.uniform(0.25, 0.45));
    }
    std::vector<CsvReplayTrace::Sample> crowds;
    for (double t = 0.0; t <= kHorizonS; t += 1.0) {
        double load = 0.01;
        for (size_t i = 0; i < onsets.size(); ++i)
            if (t >= onsets[i])
                load += sizes[i] * std::exp(-(t - onsets[i]) / kDecayS);
        crowds.push_back({t, std::min(load, 1.0)});
    }
    std::vector<CompositeTrace::Component> parts;
    parts.push_back(
        {std::make_shared<JitteredDiurnalTrace>(rng.next(), d), 1.0});
    parts.push_back(
        {std::make_shared<CsvReplayTrace>(std::move(crowds)), 1.0});
    return std::make_shared<CompositeTrace>(std::move(parts));
}

/** Variant 0 is the round's episode; others feed only setup_s. */
EpisodeInput
makeEpisode(uint64_t seed, uint64_t round, int variant)
{
    Rng rng(SplitMix64(seed * 0x9E3779B97F4A7C15ull + round +
                       uint64_t(variant) * 0xD1B54A32D192ED03ull)
                .next() ^
            0xDE5);
    EpisodeInput in;
    in.trace = makeTrace(rng);
    workloads::JobSpec traced =
        workloads::lcJob(kTraced, in.trace->loadAt(0.0));
    // Key the warm-start signature by trace identity, not by the
    // instantaneous load the episode starts at.
    traced.trace_kind = in.trace->name();
    traced.trace_mean_load = workloads::traffic::traceMeanLoad(
        *in.trace, kTicks * kWindowS, kWindowS);
    // The steady job's load steps through 10-30% over kCounted rounds,
    // jittered by up to 2 points.
    const double steady = 0.1 + 0.2 * double(round % kCounted) /
                                     double(kCounted - 1) +
                          rng.uniform(-0.02, 0.02);
    in.jobs = {traced, workloads::lcJob(kSteady, steady),
               workloads::bgJob(kBackground)};
    in.server_seed = rng.next();
    in.controller_seed = rng.next();
    return in;
}

} // namespace

Outcome
runMonitorDes(const Args& args)
{
    Outcome out;
    ScopedSpan workload_span("workload.monitor-des");
    ModelCounters counters;

    std::vector<double> setup_s, tick_ms, search_ms, monitor_ms, ckpt_us;
    double total_tick_s = 0.0, search_model_s = 0.0, search_s = 0.0;
    uint64_t total_ticks = 0, search_windows_timed = 0;
    auto timeSearch = [&](double secs, double model_s, int samples) {
        search_ms.push_back(secs * 1e3);
        search_s += secs;
        search_model_s += model_s;
        search_windows_timed += uint64_t(samples);
    };

    // Tallies over the counted rounds: deterministic for a seed.
    std::map<std::string, double> first;
    uint64_t searches = 0, search_samples = 0;
    double score_sum = 0.0;
    uint64_t score_n = 0, qos_met = 0;

    const double start = now();
    for (uint64_t round = 0;
         round < kCounted || now() - start < args.seconds; ++round) {
        const bool counted = round < kCounted;
        const EpisodeInput in = makeEpisode(args.seed, round, 0);
        const std::string where = "round " + std::to_string(round);
        ScopedSpan round_span("round");
        const uint64_t fine_before = counters.fine_calls;
        const uint64_t coarse_before = counters.coarse_calls;

        std::unique_ptr<platform::SimulatedServer> server;
        store::ProfileStore node_store;
        std::unique_ptr<core::OnlineManager> manager;
        // Builds the server, store and manager of @p setup_in and runs
        // initialize(); returns the set-up time and the search's
        // windows.
        auto setUp = [&](const EpisodeInput& setup_in,
                         store::ProfileStore& st) -> std::pair<double, int> {
            ScopedSpan span("setup");
            const double t0 = now();
            server = std::make_unique<platform::SimulatedServer>(
                platform::ServerConfig::xeonSilver4114(), setup_in.jobs,
                std::make_unique<CountingModel>(
                    std::make_unique<workloads::QueueingSimModel>(),
                    counters),
                setup_in.server_seed);
            core::CliteOptions co;
            co.seed = setup_in.controller_seed;
            co.search_event_budget = kSearchEventBudget;
            core::MonitorOptions mo;
            mo.reopt_policy = core::ReoptPolicy::RideTransients;
            manager = std::make_unique<core::OnlineManager>(*server, co, mo,
                                                            &st);
            const double ti = now();
            const int samples = manager->initialize().samples;
            const double t1 = now();
            setup_s.push_back(t1 - t0);
            return {t1 - ti, samples};
        };
        // The extra set-ups come first, uncounted, so the episode's
        // own set-up leaves the objects the ticks run on.
        for (int v = 1; v < kSetups; ++v) {
            PauseCounting pause(counters);
            store::ProfileStore scratch_store;
            setUp(makeEpisode(args.seed, round, v), scratch_store);
            manager.reset();
            server.reset();
        }
        {
            const double model_before = counters.seconds();
            const auto [init_s, samples] = setUp(in, node_store);
            timeSearch(init_s, counters.seconds() - model_before, samples);
            if (counted) {
                ++searches;
                search_samples += uint64_t(samples);
                ++first[std::string("warm.") + manager->warmSource()];
            }
        }
        ++out.attempted;

        store::ProfileStore throwaway;
        for (int k = 0; k < kTicks; ++k) {
            server->setLoad(0, in.trace->loadAt(k * kWindowS));
            const double model_before = counters.seconds();
            const double t1 = now();
            core::OnlineManager::Tick tick;
            {
                ScopedSpan span("tick");
                tick = manager->tick();
                const double tc = now();
                {
                    ScopedSpan ckpt("checkpoint");
                    throwaway.put(manager->makeCheckpoint());
                }
                ckpt_us.push_back((now() - tc) * 1e6);
            }
            const double secs = now() - t1;
            const double model_s = counters.seconds() - model_before;
            ++out.attempted;
            ++total_ticks;
            total_tick_s += secs;
            tick_ms.push_back(secs * 1e3);
            if (tick.reoptimized)
                timeSearch(secs, model_s, tick.search_samples);
            else
                monitor_ms.push_back((secs - model_s) * 1e3);

            // Checks and ground truth, outside the timed span.
            PauseCounting pause(counters);
            const platform::Allocation& inc = manager->incumbent();
            out.check(satisfiesEq4to6(inc, server->config(),
                                      server->jobCount()),
                      where + " tick " + std::to_string(k) +
                          ": incumbent " + inc.key() +
                          " breaks Eq. 4-6");
            if (counted) {
                // A fine DES window per job, so only the counted
                // rounds pay it.
                const double score =
                    eq3Score(server->observeNoiseless(inc));
                score_sum += score;
                ++score_n;
                qos_met += score >= 0.5;
                if (tick.reoptimized) {
                    ++searches;
                    search_samples += uint64_t(tick.search_samples);
                }
            }
        }

        for (const core::WindowQos& w : manager->qosTimeline()) {
            if (w.faulted)
                continue;
            out.check(w.violated == (w.worst_p95_ratio > 1.0),
                      where + ": violated flag disagrees with the "
                              "worst p95 ratio");
            out.check(w.worst_p99_ratio >= w.worst_p95_ratio &&
                          w.worst_p95_ratio > 0.0,
                      where + ": QoS timeline breaks p99 >= p95 > 0");
        }
        out.check(manager->qosTimeline().size() == size_t(kTicks),
                  where + ": QoS timeline is not one entry per tick");
        if (counted) {
            first["refits"] += double(manager->refits());
            first["probe_evals"] += double(manager->probeEvals());
            first["warm_probe_hits"] += double(manager->warmProbeHits());
            first["coarse_windows"] += double(manager->coarseWindows());
            first["reoptimizations"] +=
                double(manager->reoptimizations());
            first["transients_ridden"] +=
                double(manager->transientsRidden());
            first["sustained_shifts"] +=
                double(manager->sustainedShifts());
            first["violating_windows"] +=
                double(manager->violatingWindows());
            first["qos_windows"] += double(manager->qosWindows());
            first["store.snapshots"] +=
                double(node_store.size() + throwaway.size());
            first["des.fine.calls"] +=
                double(counters.fine_calls - fine_before);
            first["des.coarse.calls"] +=
                double(counters.coarse_calls - coarse_before);
        }
    }
    first["model.calls"] = first["des.fine.calls"] + first["des.coarse.calls"];

    const double windows_per_s =
        total_tick_s > 0.0 ? double(total_ticks) / total_tick_s : 0.0;
    const double search_windows =
        searches ? double(search_samples) / double(searches) : 0.0;
    const double score_mean = score_n ? score_sum / double(score_n) : 0.0;
    const double qos_share = score_n ? double(qos_met) / double(score_n) : 0.0;

    // Searches: each episode's initialize() plus every re-optimizing
    // tick (the tick's monitoring window and checkpoint included).
    out.end_to_end = {
        {"setup_s", percentile(setup_s, 0.5)},
        {"windows_per_s", windows_per_s},
        {"window_ms.p50", percentile(tick_ms, 0.5)},
        {"window_ms.tail", percentile(tick_ms, kTail)},
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

    auto per_call = [](double s, uint64_t n) {
        return n ? s * 1e6 / double(n) : 0.0;
    };
    for (const auto& [name, value] : first)
        out.per_layer.push_back({name, value});
    out.per_layer.insert(
        out.per_layer.end(),
        {
            {"des.fine.us_per_call",
             per_call(counters.fine_s, counters.fine_calls)},
            {"des.coarse.us_per_call",
             per_call(counters.coarse_s, counters.coarse_calls)},
            {"controller.ms_per_window",
             search_windows_timed ? (search_s - search_model_s) * 1e3 /
                                        double(search_windows_timed)
                                  : 0.0},
            {"probe_evals_per_refit",
             first["refits"] > 0.0 ? first["probe_evals"] / first["refits"]
                                   : 0.0},
            {"monitor.ms_per_tick", percentile(monitor_ms, 0.5)},
            {"store.checkpoint_us", percentile(ckpt_us, 0.5)},
            {"trace.windows_per_s", windows_per_s},
        });
    return out;
}

} // namespace perfbench
