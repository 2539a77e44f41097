/**
 * @file
 * Shared plumbing of the end-to-end benchmark: command-line options,
 * the in-memory span tracer, the counting performance-model
 * decorator, order statistics, the benchmark's own output checks
 * (Eq. 3 and Eq. 4-6, written apart from the library's) and the
 * result record every workload returns.
 */

#ifndef PERFBENCH_HARNESS_H
#define PERFBENCH_HARNESS_H

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "platform/allocation.h"
#include "platform/server.h"
#include "workloads/perf_model.h"

namespace perfbench {

/** Monotonic wall-clock seconds: the clock of every reported timing. */
inline double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Command line of one run. */
struct Args
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string spans_out; ///< Where a traced run writes its spans.
};

/**
 * Spans recorded by the benchmark around its calls into the library:
 * one per workload, per search/tick/fleet window and per model
 * measurement, each naming its parent. Kept in memory and written as
 * JSON at exit; a no-op unless enabled, so untraced runs pay one
 * branch per boundary. Span times are nanoseconds
 * from the tracer's creation.
 */
class Tracer
{
  public:
    struct Span
    {
        uint64_t id = 0;
        uint64_t parent = 0; ///< 0 = root.
        const char* name = "";
        int64_t start_ns = 0;
        int64_t end_ns = 0;
    };

    void enable(bool on) { enabled_ = on; }
    bool enabled() const { return enabled_; }

    /** Open a span under the innermost open one. */
    void begin(const char* name);
    /** Close the innermost open span. */
    void end();

    bool write(const std::string& path) const;

  private:
    static constexpr size_t kMaxSpans = 1'000'000; ///< ~40 MB of spans.
    bool enabled_ = false;
    double origin_ = now();
    std::vector<Span> spans_;
    std::vector<size_t> open_; ///< Indices into spans_ (kMaxSpans = none).
    uint64_t next_id_ = 1;
    uint64_t dropped_ = 0;
};

Tracer& tracer();

/** RAII span; does nothing when tracing is off. */
class ScopedSpan
{
  public:
    explicit ScopedSpan(const char* name)
        : on_(tracer().enabled())
    {
        if (on_)
            tracer().begin(name);
    }
    ~ScopedSpan()
    {
        if (on_)
            tracer().end();
    }
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;

  private:
    bool on_;
};

/** What the counting decorator saw, split by measurement mode. */
struct ModelCounters
{
    uint64_t analytic_calls = 0;
    uint64_t fine_calls = 0;   ///< DES, no event budget.
    uint64_t coarse_calls = 0; ///< DES under an event budget.
    double analytic_s = 0.0;   ///< Timed only while tracing.
    double fine_s = 0.0;
    double coarse_s = 0.0;
    bool paused = false; ///< The benchmark's own checks are not counted.
    /**
     * When set, the first measurement after each new observation
     * window of this server (SimulatedServer::observeCount() moved)
     * appends the time to window_starts: the window boundaries of a
     * search, read where the measurement happens.
     */
    const clite::platform::SimulatedServer* watched = nullptr;
    uint64_t watched_windows = 0;
    std::vector<double> window_starts;

    uint64_t calls() const
    {
        return analytic_calls + fine_calls + coarse_calls;
    }
    double seconds() const { return analytic_s + fine_s + coarse_s; }
};

/** Pauses counting for the benchmark's own ground-truth evaluations. */
class PauseCounting
{
  public:
    explicit PauseCounting(ModelCounters& c) : c_(c), was_(c.paused)
    {
        c_.paused = true;
    }
    ~PauseCounting() { c_.paused = was_; }
    PauseCounting(const PauseCounting&) = delete;
    PauseCounting& operator=(const PauseCounting&) = delete;

  private:
    ModelCounters& c_;
    bool was_;
};

/**
 * Forwarding PerformanceModel that counts (and, while tracing, times
 * and spans) every measurement, split by the backend and by
 * eventBudget(): coarse search probes versus fine monitoring windows.
 */
class CountingModel : public clite::workloads::PerformanceModel
{
  public:
    CountingModel(std::unique_ptr<clite::workloads::PerformanceModel> inner,
                  ModelCounters& counters);

    clite::workloads::JobMeasurement
    measure(const clite::workloads::JobSpec& job,
            const std::vector<int>& units,
            const clite::platform::ServerConfig& config,
            clite::Rng& rng) const override;
    std::string name() const override { return inner_->name(); }
    bool setEventBudget(uint64_t budget) override
    {
        return inner_->setEventBudget(budget);
    }
    uint64_t eventBudget() const override { return inner_->eventBudget(); }

  private:
    std::unique_ptr<clite::workloads::PerformanceModel> inner_;
    ModelCounters& counters_;
    bool analytic_;
};

/** Nearest-rank percentile (p in [0, 1]) of @p v; 0 when empty. */
double percentile(std::vector<double> v, double p);
double mean(const std::vector<double>& v); ///< 0 when empty.

/**
 * The tail percentile reported as `*.tail` on every workload. Not
 * p90: re-optimizing ticks are 8-13% of monitor-des ticks and ten
 * times slower, so a p90 of tick time would sit on the edge between
 * the two and jump from seed to seed.
 */
inline constexpr double kTail = 0.80;

/**
 * Eq. 4-6 checked by the benchmark's own code: every unit of every
 * resource is assigned (column sums equal the server's units) and
 * every job holds at least one unit of each resource.
 */
bool satisfiesEq4to6(const clite::platform::Allocation& alloc,
                     const clite::platform::ServerConfig& config,
                     size_t jobs);

/**
 * Eq. 3 recomputed from observations by the benchmark's own code:
 * while some LC job misses its p95 target the score is half the mean
 * capped QoS ratio; once every target is met it is 0.5 plus half the
 * mean normalized BG throughput (LC performance when there is no BG).
 */
double eq3Score(const std::vector<clite::platform::JobObservation>& obs);

/** One printed metric; main owns the names' order and units. */
struct Metric
{
    std::string name;
    double value = 0.0;
};

/** What a workload run returns to main. */
struct Outcome
{
    bool correct = true;
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<std::string> errors; ///< Failed output checks.
    std::vector<Metric> end_to_end;
    std::vector<Metric> per_layer;
    /**
     * Deterministic record of the first round's decisions: identical
     * between a traced and an untraced run of the same seed.
     */
    std::map<std::string, double> decisions;

    void check(bool ok, const std::string& what);
};

Outcome runColocateAnalytic(const Args& args);
Outcome runMonitorDes(const Args& args);
Outcome runFleetChurn(const Args& args);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_H
