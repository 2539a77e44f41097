#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

namespace perfbench {

using namespace clite;

void
Tracer::begin(const char* name)
{
    const uint64_t id = next_id_++;
    if (spans_.size() >= kMaxSpans) {
        ++dropped_;
        open_.push_back(kMaxSpans);
        return;
    }
    Span s;
    s.id = id;
    for (auto it = open_.rbegin(); it != open_.rend(); ++it)
        if (*it != kMaxSpans) {
            s.parent = spans_[*it].id;
            break;
        }
    s.name = name;
    s.start_ns = int64_t((now() - origin_) * 1e9);
    open_.push_back(spans_.size());
    spans_.push_back(s);
}

void
Tracer::end()
{
    if (open_.empty())
        return;
    const size_t idx = open_.back();
    open_.pop_back();
    if (idx != kMaxSpans)
        spans_[idx].end_ns = int64_t((now() - origin_) * 1e9);
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\"dropped\": " << dropped_ << ", \"spans\": [\n";
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
            << ",\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
            << ",\"end_ns\":" << s.end_ns << "}"
            << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    out << "]}\n";
    return bool(out);
}

Tracer&
tracer()
{
    static Tracer t;
    return t;
}

CountingModel::CountingModel(
    std::unique_ptr<workloads::PerformanceModel> inner,
    ModelCounters& counters)
    : inner_(std::move(inner)), counters_(counters),
      analytic_(inner_->name() == "analytic")
{
}

workloads::JobMeasurement
CountingModel::measure(const workloads::JobSpec& job,
                       const std::vector<int>& units,
                       const platform::ServerConfig& config, Rng& rng) const
{
    if (counters_.paused)
        return inner_->measure(job, units, config, rng);
    if (counters_.watched != nullptr &&
        counters_.watched->observeCount() != counters_.watched_windows) {
        counters_.watched_windows = counters_.watched->observeCount();
        counters_.window_starts.push_back(now());
    }
    const bool coarse = !analytic_ && inner_->eventBudget() > 0;
    uint64_t& calls = analytic_ ? counters_.analytic_calls
                      : coarse  ? counters_.coarse_calls
                                : counters_.fine_calls;
    ++calls;
    if (!tracer().enabled())
        return inner_->measure(job, units, config, rng);
    double& seconds = analytic_ ? counters_.analytic_s
                      : coarse  ? counters_.coarse_s
                                : counters_.fine_s;
    ScopedSpan span(analytic_ ? "model.measure.analytic"
                    : coarse  ? "model.measure.coarse"
                              : "model.measure.fine");
    const double t0 = now();
    workloads::JobMeasurement m = inner_->measure(job, units, config, rng);
    seconds += now() - t0;
    return m;
}

double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    size_t rank = size_t(std::ceil(p * double(v.size())));
    rank = std::clamp<size_t>(rank, 1, v.size());
    std::nth_element(v.begin(), v.begin() + long(rank - 1), v.end());
    return v[rank - 1];
}

double
mean(const std::vector<double>& v)
{
    double sum = 0.0;
    for (double x : v)
        sum += x;
    return v.empty() ? 0.0 : sum / double(v.size());
}

bool
satisfiesEq4to6(const platform::Allocation& alloc,
                const platform::ServerConfig& config, size_t jobs)
{
    const auto& resources = config.resources();
    if (alloc.jobs() != jobs || alloc.resources() != resources.size())
        return false;
    for (size_t r = 0; r < resources.size(); ++r) {
        int sum = 0;
        for (size_t j = 0; j < jobs; ++j) {
            const int units = alloc.get(j, r);
            if (units < 1)
                return false;
            sum += units;
        }
        if (sum != resources[r].units)
            return false;
    }
    return true;
}

namespace {

bool
allQosMet(const std::vector<platform::JobObservation>& obs)
{
    for (const platform::JobObservation& ob : obs)
        if (ob.is_lc && !(ob.p95_ms <= ob.qos_target_ms))
            return false;
    return true;
}

} // namespace

double
eq3Score(const std::vector<platform::JobObservation>& obs)
{
    auto capped = [](double num, double den) {
        if (den <= 0.0)
            return 1.0;
        return std::clamp(num / den, 1e-6, 1.0);
    };
    double qos_sum = 0.0, lc_perf_sum = 0.0, bg_perf_sum = 0.0;
    int lc = 0, bg = 0;
    for (const platform::JobObservation& ob : obs) {
        if (ob.is_lc) {
            ++lc;
            qos_sum += capped(ob.qos_target_ms, ob.p95_ms);
            lc_perf_sum += capped(ob.iso_p95_ms, ob.p95_ms);
        } else {
            ++bg;
            bg_perf_sum += ob.iso_throughput > 0.0
                               ? capped(ob.throughput, ob.iso_throughput)
                               : 1.0;
        }
    }
    if (!allQosMet(obs))
        return 0.5 * (lc > 0 ? qos_sum / lc : 1.0);
    const double perf = bg > 0 ? bg_perf_sum / bg
                        : lc > 0 ? lc_perf_sum / lc
                                 : 1.0;
    return 0.5 + 0.5 * perf;
}

void
Outcome::check(bool ok, const std::string& what)
{
    if (ok)
        return;
    correct = false;
    if (errors.size() < 20)
        errors.push_back(what);
}

} // namespace perfbench
