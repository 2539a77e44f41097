/**
 * @file
 * colocate-analytic: the paper's single-node use. One round is a cold
 * CliteController::run on each of a fixed set of 2-5-job LC+BG mixes
 * over the analytic backend; the seed and the round number draw each
 * LC job's load and the per-mix controller and noise seeds. Rounds run
 * until the run's time is up, so the timings average over many
 * distinct searches; the deterministic figures come from round 0.
 * Round 0's mixes of at most three jobs are also checked against an
 * enumeration of every configuration, after the timed rounds.
 */

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/clite.h"
#include "harness.h"
#include "workloads/catalog.h"

namespace perfbench {

using namespace clite;

namespace {

/** The fixed mix compositions: LC names first, then BG names. */
struct MixShape
{
    std::vector<const char*> lc;
    std::vector<const char*> bg;
};

const std::vector<MixShape> kMixes = {
    {{"memcached", "xapian"}, {}},
    {{"img-dnn"}, {"streamcluster"}},
    {{"masstree"}, {"blackscholes"}},
    {{"specjbb", "memcached"}, {}},
    {{"xapian", "img-dnn"}, {"canneal"}},
    {{"memcached", "masstree"}, {"swaptions"}},
    {{"specjbb"}, {"freqmine", "fluidanimate"}},
    {{"img-dnn", "xapian", "masstree"}, {}},
    {{"memcached", "img-dnn"}, {"streamcluster", "swaptions"}},
    {{"masstree", "specjbb", "xapian"}, {"blackscholes"}},
    {{"memcached", "xapian"}, {"canneal", "freqmine", "swaptions"}},
    {{"img-dnn", "masstree", "memcached", "specjbb"}, {"fluidanimate"}},
};

/**
 * Mixes of at most this many jobs are checked against enumeration:
 * 58,320 configurations for three jobs on the Xeon Silver 4114, about
 * 0.3 s each; four jobs would take 847,560.
 */
constexpr size_t kEnumerateJobs = 3;

struct MixInput
{
    std::vector<workloads::JobSpec> jobs;
    uint64_t server_seed = 1;
    uint64_t controller_seed = 7;
};

/**
 * Each shape runs three times per round. Its LC jobs' loads sit on the
 * grid 25/45/65% (rotating by job and by variant), jittered by up to
 * 5 points from the seed: every seed covers light and heavy
 * co-locations alike, which keeps the round's mix of short and long
 * searches, and so its timings, alike across seeds.
 */
std::vector<MixInput>
makeInputs(uint64_t seed, uint64_t round)
{
    Rng rng(SplitMix64(seed * 0x9E3779B97F4A7C15ull + round).next() ^ 0xC011);
    std::vector<MixInput> inputs;
    for (int variant = 0; variant < 3; ++variant)
        for (const MixShape& shape : kMixes) {
            MixInput in;
            for (size_t i = 0; i < shape.lc.size(); ++i) {
                const double level = 0.25 + 0.2 * double((variant + i) % 3);
                in.jobs.push_back(workloads::lcJob(
                    shape.lc[i], level + rng.uniform(-0.05, 0.05)));
            }
            for (const char* name : shape.bg)
                in.jobs.push_back(workloads::bgJob(name));
            in.server_seed = rng.next();
            in.controller_seed = rng.next();
            inputs.push_back(std::move(in));
        }
    return inputs;
}

/** Visit every allocation satisfying Eq. 4-6 (own enumeration). */
template <typename Fn>
void
forEachAllocation(const platform::ServerConfig& config, size_t jobs, Fn&& fn)
{
    platform::Allocation alloc(jobs, config);
    const size_t resources = config.resources().size();
    // Resource r's units split into `jobs` parts >= 1: recurse over
    // (resource, job) cells, the last job of a resource taking the rest.
    auto rec = [&](auto&& self, size_t r, size_t j, int left) -> void {
        if (r == resources) {
            fn(alloc);
            return;
        }
        if (j + 1 == jobs) {
            alloc.set(j, r, left);
            const int next_units =
                r + 1 < resources ? config.resources()[r + 1].units : 0;
            self(self, r + 1, 0, next_units);
            return;
        }
        const int reserve = int(jobs - j - 1);
        for (int u = 1; u <= left - reserve; ++u) {
            alloc.set(j, r, u);
            self(self, r, j + 1, left - u);
        }
    };
    rec(rec, 0, 0, config.resources()[0].units);
}

} // namespace

Outcome
runColocateAnalytic(const Args& args)
{
    Outcome out;
    ScopedSpan workload_span("workload.colocate-analytic");
    ModelCounters counters;

    std::vector<double> setup_s, search_s, window_ms;
    double total_search_s = 0.0;
    uint64_t total_samples = 0;
    // First-round tallies: deterministic for a seed.
    uint64_t searches = 0, samples = 0, model_calls = 0, refits = 0,
             probe_evals = 0, warm_hits = 0, coarse = 0;
    double score_sum = 0.0;
    /** A round-0 search on a mix small enough to enumerate. */
    struct Enumerated
    {
        size_t mix;
        double score; ///< Of the chosen configuration.
    };
    std::vector<Enumerated> enumerated;

    const double start = now();
    for (uint64_t round = 0; round == 0 || now() - start < args.seconds;
         ++round) {
        ScopedSpan round_span("round");
        const std::vector<MixInput> inputs = makeInputs(args.seed, round);
        const uint64_t calls_before = counters.calls();
        for (size_t m = 0; m < inputs.size(); ++m) {
            const MixInput& in = inputs[m];
            const std::string where = "round " + std::to_string(round) +
                                      " mix " + std::to_string(m);
            const double t0 = now();
            platform::SimulatedServer server(
                platform::ServerConfig::xeonSilver4114(), in.jobs,
                std::make_unique<CountingModel>(
                    std::make_unique<workloads::AnalyticModel>(), counters),
                in.server_seed);
            core::CliteOptions options;
            options.seed = in.controller_seed;
            core::CliteController controller(options);
            setup_s.push_back(now() - t0);

            counters.watched = &server;
            counters.watched_windows = server.observeCount();
            counters.window_starts.clear();
            const double t1 = now();
            core::ControllerResult r;
            {
                ScopedSpan span("search");
                r = controller.run(server);
            }
            const double t2 = now();
            counters.watched = nullptr;
            const double secs = t2 - t1;
            ++out.attempted;
            if (!r.best.has_value() || r.samples <= 0) {
                ++out.failed;
                continue;
            }
            // Window k runs from its first measurement to the next
            // window's; the controller's lead-in before the first
            // window and its wrap-up after the last join their
            // neighbours.
            std::vector<double>& starts = counters.window_starts;
            for (size_t k = 0; k < starts.size(); ++k) {
                const double from = k == 0 ? t1 : starts[k];
                const double to = k + 1 < starts.size() ? starts[k + 1] : t2;
                window_ms.push_back((to - from) * 1e3);
            }
            search_s.push_back(secs);
            total_search_s += secs;
            total_samples += uint64_t(r.samples);

            // Output checks, outside the timed span.
            PauseCounting pause(counters);
            const platform::Allocation& best = *r.best;
            out.check(satisfiesEq4to6(best, server.config(), in.jobs.size()),
                      where + ": chosen allocation " + best.key() +
                          " breaks Eq. 4-6");
            out.check(server.currentAllocation() == best,
                      where + ": server not left on the chosen allocation");
            const double score = eq3Score(server.observeNoiseless(best));
            if (round == 0 && in.jobs.size() <= kEnumerateJobs)
                enumerated.push_back({m, score});
            if (round == 0) {
                ++searches;
                samples += uint64_t(r.samples);
                score_sum += score;
                refits += r.refits;
                probe_evals += r.probe_evals;
                warm_hits += r.warm_probe_hits;
                coarse += r.coarse_windows;
            }
        }
        if (round == 0)
            model_calls = counters.calls() - calls_before;
    }

    // Enumeration, after the timed rounds. The chosen score must not
    // exceed the optimum; this holds by construction unless the
    // enumeration misses the chosen configuration or a noise-free
    // observation depends on more than the configuration. Whether the
    // search met QoS where the optimum does is a search-quality
    // figure, qos_met.share: CLITE misses on some inputs only (README,
    // known faults), so a miss cannot be a failed operation.
    uint64_t feasible = 0, met = 0;
    {
        PauseCounting pause(counters);
        const std::vector<MixInput> inputs = makeInputs(args.seed, 0);
        for (const Enumerated& e : enumerated) {
            const MixInput& in = inputs[e.mix];
            platform::SimulatedServer server(
                platform::ServerConfig::xeonSilver4114(), in.jobs,
                std::make_unique<workloads::AnalyticModel>(), in.server_seed);
            double optimum = 0.0;
            forEachAllocation(server.config(), in.jobs.size(),
                              [&](const platform::Allocation& a) {
                                  optimum = std::max(
                                      optimum,
                                      eq3Score(server.observeNoiseless(a)));
                              });
            out.check(e.score <= optimum + 1e-12,
                      "round 0 mix " + std::to_string(e.mix) +
                          ": chosen score above the enumerated optimum");
            if (optimum < 0.5)
                continue;
            ++feasible;
            met += e.score >= 0.5;
            if (e.score < 0.5)
                std::cerr << "perfbench: note: round 0 mix " << e.mix
                          << ": QoS-feasible optimum " << optimum
                          << " but chosen score " << e.score << "\n";
        }
    }
    const double qos_met =
        feasible ? double(met) / double(feasible) : 1.0;

    const double n = double(std::max<uint64_t>(1, searches));
    const double windows_per_s =
        total_search_s > 0.0 ? double(total_samples) / total_search_s : 0.0;
    out.end_to_end = {
        {"setup_s", percentile(setup_s, 0.5)},
        {"windows_per_s", windows_per_s},
        {"window_ms.p50", percentile(window_ms, 0.5)},
        {"window_ms.tail", percentile(window_ms, kTail)},
        {"search_ms.mean", mean(search_s) * 1e3},
        {"search_ms.tail", percentile(search_s, kTail) * 1e3},
        {"search_windows", double(samples) / n},
        {"score.mean", score_sum / n},
        {"qos_met.share", qos_met},
    };

    out.decisions = {
        {"search_windows", double(samples) / n},
        {"score.mean", score_sum / n},
        {"model.calls", double(model_calls)},
        {"refits", double(refits)},
        {"probe_evals", double(probe_evals)},
        {"warm_probe_hits", double(warm_hits)},
        {"coarse_windows", double(coarse)},
        {"qos_met.share", qos_met},
    };
    out.per_layer = {
        {"model.calls", double(model_calls)},
        {"analytic.us_per_call",
         counters.analytic_calls ? counters.analytic_s * 1e6 /
                                       double(counters.analytic_calls)
                                 : 0.0},
        {"controller.ms_per_window",
         total_samples ? (total_search_s - counters.seconds()) * 1e3 /
                             double(total_samples)
                       : 0.0},
        {"refits", double(refits)},
        {"probe_evals", double(probe_evals)},
        {"warm_probe_hits", double(warm_hits)},
        {"probe_evals_per_refit",
         refits ? double(probe_evals) / double(refits) : 0.0},
        {"coarse_windows", double(coarse)},
        {"trace.windows_per_s", windows_per_s},
    };
    return out;
}

} // namespace perfbench
