#include "cluster/manager.h"

#include <algorithm>

#include "common/error.h"
#include "common/rng.h"
#include "common/thread_pool.h"

namespace clite {
namespace cluster {

AsyncFleetEngine::AsyncFleetEngine(Fleet& fleet, AsyncOptions options)
    : fleet_(fleet),
      options_(std::move(options)),
      faults_(options_.faults, options_.fault_seed),
      workers_(options_.workers),
      nodes_(fleet.nodeCount()),
      quarantine_(fleet.nodeCount(), 0)
{
    CLITE_CHECK(options_.workers >= 1, "need at least one worker");
    CLITE_CHECK(options_.task_cost > 0.0, "task_cost must be positive");
    CLITE_CHECK(options_.task_jitter >= 0.0 && options_.task_jitter < 1.0,
                "task_jitter must be in [0, 1)");
    CLITE_CHECK(options_.straggler_prob >= 0.0 &&
                    options_.straggler_prob <= 1.0,
                "straggler_prob must be a probability");
    CLITE_CHECK(options_.straggler_factor >= 1.0,
                "straggler_factor must be >= 1");
    CLITE_CHECK(options_.lease > 0.0, "lease must be positive");
    CLITE_CHECK(options_.max_retries >= 0, "max_retries must be >= 0");
    CLITE_CHECK(options_.hedge_delay > 0.0, "hedge_delay must be positive");
    CLITE_CHECK(options_.quarantine_failures >= 1,
                "quarantine_failures must be >= 1");
    CLITE_CHECK(options_.degrade_below >= 0.0 &&
                    options_.degrade_below <= 1.0,
                "degrade_below must be a fraction");
}

double
AsyncFleetEngine::hash01(uint64_t stream, uint64_t counter) const
{
    // Same counter-keyed construction as FaultInjector::hash01: a pure
    // function of (seed, stream, counter), so durations are stable
    // whatever order the engine asks in.
    SplitMix64 sm(options_.fault_seed ^
                  (0x9E3779B97F4A7C15ull * (stream + 1)) ^
                  (0xC2B2AE3D27D4EB4Full * (counter + 1)));
    sm.next();
    return double(sm.next() >> 11) * (1.0 / 9007199254740992.0);
}

double
AsyncFleetEngine::sampleDuration(uint64_t assignment) const
{
    const double j = options_.task_jitter;
    double d = options_.task_cost *
               (1.0 - j + 2.0 * j * hash01(1, assignment));
    if (options_.straggler_prob > 0.0 &&
        hash01(2, assignment) < options_.straggler_prob)
        d *= options_.straggler_factor;
    return d;
}

void
AsyncFleetEngine::schedule(double time, Event event)
{
    event.time = time;
    event.seq = ++next_seq_;
    events_.push(event);
}

bool
AsyncFleetEngine::degraded() const
{
    return double(workers_.aliveCount()) <
           options_.degrade_below * double(workers_.size());
}

bool
AsyncFleetEngine::quarantined(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].quarantined;
}

size_t
AsyncFleetEngine::quarantinedCount() const
{
    size_t count = 0;
    for (const NodeCtl& ctl : nodes_)
        if (ctl.quarantined)
            ++count;
    return count;
}

uint64_t
AsyncFleetEngine::windowsCommitted(size_t n) const
{
    CLITE_CHECK(n < nodes_.size(), "node index " << n << " out of range");
    return nodes_[n].committed;
}

double
AsyncFleetEngine::qosMetFraction() const
{
    int lc_total = 0, lc_met = 0;
    for (const Fleet::Node& node : fleet_.nodes_)
        for (const platform::JobObservation& ob : node.truth)
            if (ob.is_lc) {
                ++lc_total;
                if (ob.qosMet())
                    ++lc_met;
            }
    return lc_total > 0 ? double(lc_met) / lc_total : 1.0;
}

double
AsyncFleetEngine::meanBgPerf() const
{
    int bg_total = 0;
    double sum = 0.0;
    for (const Fleet::Node& node : fleet_.nodes_)
        for (const platform::JobObservation& ob : node.truth)
            if (!ob.is_lc) {
                ++bg_total;
                sum += ob.perfNorm();
            }
    return bg_total > 0 ? sum / bg_total : 0.0;
}

void
AsyncFleetEngine::enqueueTask(size_t n)
{
    NodeCtl& ctl = nodes_[n];
    CLITE_CHECK(!ctl.in_flight,
                "node " << n << " already has a window in flight");
    WindowTask t;
    t.id = ++next_task_id_;
    t.node = n;
    t.epoch = ctl.epoch;
    t.attempt = 0;
    t.critical = fleet_.snapshot(n).lc_jobs > 0;
    ctl.in_flight = true;
    ctl.executed = false;
    ctl.attempts_started = 1;
    ctl.live.assign(1, t.id);
    TaskRec rec;
    rec.task = t;
    tasks_.emplace(t.id, rec);
    queue_.push(t);
}

void
AsyncFleetEngine::activateNodes()
{
    for (size_t n = 0; n < nodes_.size(); ++n) {
        NodeCtl& ctl = nodes_[n];
        if (!ctl.in_flight && !ctl.replenish_scheduled &&
            !ctl.quarantined && ctl.remaining > 0 &&
            fleet_.nodes_[n].server != nullptr)
            enqueueTask(n);
    }
}

void
AsyncFleetEngine::dispatch()
{
    const bool deg = degraded();
    if (deg && !queue_.empty()) {
        ++metrics_.degraded_dispatches;
        // Graceful degradation: shed the non-critical backlog instead
        // of letting it starve the QoS-critical class on what little
        // capacity is left. Shed windows are consumed (counted, paced
        // at the window cadence), never silently lost.
        for (uint64_t id : queue_.dropNormal()) {
            TaskRec& rec = tasks_.at(id);
            if (rec.state != TaskState::Queued)
                continue; // lazily cancelled earlier
            rec.state = TaskState::Dropped;
            dropLive(rec.task.node, id);
            NodeCtl& ctl = nodes_[rec.task.node];
            if (ctl.in_flight && ctl.epoch == rec.task.epoch &&
                ctl.live.empty()) {
                ++metrics_.windows_dropped;
                consumeWindow(rec.task.node, /*failed=*/false);
            }
        }
    }

    std::vector<size_t> exec_nodes;
    const auto alive = [this](uint64_t id) {
        return tasks_.at(id).state == TaskState::Queued;
    };
    while (workers_.findIdle() >= 0) {
        std::optional<uint64_t> id = queue_.pop(deg, alive);
        if (!id.has_value())
            break;
        const int w = workers_.findIdle();
        TaskRec& rec = tasks_.at(*id);
        rec.assignment = assignments_++;
        rec.worker = w;
        rec.state = TaskState::Running;
        rec.dispatched_at = now_;
        workers_.assign(w, *id);
        ++metrics_.tasks_dispatched;

        // Decide this attempt's fate up front (pure counter-keyed
        // hashes, so the decision is reproducible and independent of
        // dispatch order). A doomed or failing attempt must not
        // execute the node step: OnlineManager::tick() is not
        // idempotent, and a lost/failed attempt's work is lost work.
        rec.doomed = faults_.workerLost(rec.assignment, size_t(w));
        const int fault_attempt =
            rec.task.hedge ? rec.task.attempt + 100000 : rec.task.attempt;
        rec.failing = !rec.doomed &&
                      faults_.taskFails(rec.task.node, rec.task.epoch,
                                        fault_attempt);

        NodeCtl& ctl = nodes_[rec.task.node];
        if (!rec.doomed && !rec.failing && !ctl.executed) {
            // First healthy attempt of this window: it carries the
            // real observe->fit->acquire step. Later healthy siblings
            // (hedges, backups) deliver this result without re-running
            // it.
            ctl.executed = true;
            exec_nodes.push_back(rec.task.node);
        }

        const double duration = sampleDuration(rec.assignment);
        if (!rec.doomed) {
            Event e;
            e.kind = Event::Complete;
            e.task = *id;
            schedule(now_ + duration, e);
        }
        Event lease;
        lease.kind = Event::Lease;
        lease.task = *id;
        schedule(now_ + options_.lease * options_.task_cost, lease);
        if (options_.hedging && !rec.task.hedge) {
            Event h;
            h.kind = Event::Hedge;
            h.task = *id;
            schedule(now_ + options_.hedge_delay * options_.task_cost, h);
        }
    }

    // Fan the new node steps out on the deterministic pool: distinct
    // nodes, index-owned state, bit-identical at any thread count.
    if (!exec_nodes.empty())
        globalPool().parallelForIndices(
            exec_nodes, [this](size_t n) { fleet_.stepNode(n); });
}

void
AsyncFleetEngine::dropLive(size_t n, uint64_t id)
{
    std::vector<uint64_t>& live = nodes_[n].live;
    live.erase(std::remove(live.begin(), live.end(), id), live.end());
}

void
AsyncFleetEngine::maybeRejoin(const TaskRec& rec)
{
    if (options_.worker_down_time <= 0.0)
        return; // losses are permanent by configuration
    if (faults_.workerDeathScripted(rec.assignment, size_t(rec.worker)))
        return; // scripted deaths never rejoin
    Event e;
    e.kind = Event::Rejoin;
    e.worker = rec.worker;
    schedule(now_ + options_.worker_down_time * options_.task_cost, e);
}

void
AsyncFleetEngine::retryOrFail(TaskRec& rec)
{
    const size_t n = rec.task.node;
    NodeCtl& ctl = nodes_[n];
    if (!ctl.in_flight || ctl.epoch != rec.task.epoch)
        return; // the window already resolved
    if (ctl.attempts_started <= options_.max_retries) {
        WindowTask t;
        t.id = ++next_task_id_;
        t.node = n;
        t.epoch = ctl.epoch;
        t.attempt = ctl.attempts_started++;
        t.critical = rec.task.critical;
        TaskRec retry;
        retry.task = t;
        tasks_.emplace(t.id, retry);
        ctl.live.push_back(t.id);
        queue_.pushFront(t); // a retry is late already
        ++metrics_.tasks_retried;
    } else if (ctl.live.empty()) {
        // Out of budget and no attempt can still win: the window is
        // lost. The node's jobs are untouched (zero job loss); only
        // this observation window failed to advance.
        consumeWindow(n, /*failed=*/true);
    }
}

void
AsyncFleetEngine::consumeWindow(size_t n, bool failed)
{
    NodeCtl& ctl = nodes_[n];
    ctl.in_flight = false;
    ctl.executed = false;
    ctl.attempts_started = 0;
    ctl.live.clear();
    ++ctl.epoch;
    if (ctl.remaining > 0)
        --ctl.remaining;
    if (failed) {
        ++metrics_.windows_failed;
        ++ctl.failure_streak;
        if (ctl.failure_streak >= options_.quarantine_failures) {
            quarantineNode(n);
            return;
        }
    }
    if (ctl.remaining > 0 && !ctl.quarantined &&
        fleet_.nodes_[n].server != nullptr) {
        // Resume at the window cadence, not instantly: a shed or
        // failed window must not let the node burn through its budget
        // in zero virtual time while the pool is degraded.
        ctl.replenish_scheduled = true;
        Event e;
        e.kind = Event::Replenish;
        e.node = n;
        schedule(now_ + options_.task_cost, e);
    }
}

void
AsyncFleetEngine::quarantineNode(size_t n)
{
    NodeCtl& ctl = nodes_[n];
    ctl.quarantined = true;
    quarantine_[n] = 1;
    ++metrics_.nodes_quarantined;
    // Evict every hosted job back into the placement queue. No move is
    // charged: the node failed, not the job, so quarantine must never
    // push a job toward its parking budget.
    Fleet::Node& node = fleet_.nodes_[n];
    while (!node.job_ids.empty()) {
        const size_t idx = node.job_ids.size() - 1;
        const uint64_t id = node.job_ids[idx];
        FleetJob& job = fleet_.jobs_[size_t(id) - 1];
        fleet_.unhostJob(n, idx);
        job.state = JobState::Pending;
        job.node = -1;
        fleet_.queue_.push_back(id);
    }
    fleet_.placeQueued(&quarantine_);
    activateNodes();
}

void
AsyncFleetEngine::commit(TaskRec& rec)
{
    const size_t n = rec.task.node;
    NodeCtl& ctl = nodes_[n];
    workers_.release(rec.worker);
    rec.state = TaskState::Committed;
    ++metrics_.tasks_committed;
    if (rec.task.hedge)
        ++metrics_.hedges_won;

    // First result wins: cancel every sibling attempt of this window.
    for (uint64_t sid : ctl.live) {
        if (sid == rec.task.id)
            continue;
        TaskRec& sib = tasks_.at(sid);
        if (sib.state == TaskState::Queued) {
            sib.state = TaskState::Superseded; // skipped lazily at pop
        } else if (sib.state == TaskState::Running) {
            sib.state = TaskState::Superseded;
            if (sib.doomed) {
                // The loser's worker was going to die holding this
                // task; cancellation doesn't save it. Account the
                // physical loss now, before the stale lease fires.
                workers_.kill(sib.worker);
                ++metrics_.workers_lost;
                faults_.record(platform::FaultKind::WorkerLoss,
                               sib.task.id, size_t(sib.worker));
                maybeRejoin(sib);
            } else {
                workers_.release(sib.worker);
            }
            if (sib.task.hedge)
                ++metrics_.hedges_cancelled;
            else
                ++metrics_.stale_results;
        }
    }
    ctl.live.clear();
    ctl.in_flight = false;
    ctl.executed = false;
    ctl.attempts_started = 0;
    ctl.failure_streak = 0;
    ++ctl.epoch;
    ++ctl.committed;
    if (ctl.remaining > 0)
        --ctl.remaining;

    // The per-node slice of lockstep phase C: sample fleet QoS, teach
    // the placement surrogate, publish the node's checkpoint, act on
    // its infeasibility signal, then place whatever is queued.
    qos_history_.add(qosMetFraction());
    fleet_.scheduler_.recordNode(fleet_.snapshot(n));
    Fleet::Node& node = fleet_.nodes_[n];
    if (node.reoptimized)
        ++fleet_.reoptimizations_;
    if (fleet_.options_.shared_store && node.initialized &&
        node.server != nullptr)
        fleet_.store_.put(node.manager->makeCheckpoint());
    FleetWindow scratch;
    fleet_.rescheduleNode(n, scratch, &quarantine_);
    fleet_.placeQueued(&quarantine_);
    // activateNodes() re-enqueues this node's next window too (it now
    // passes the same guard as any idle node) — it must be the ONLY
    // re-enqueue path, or the epoch gets two competing window tasks.
    activateNodes();
}

void
AsyncFleetEngine::onComplete(uint64_t id)
{
    TaskRec& rec = tasks_.at(id);
    if (rec.state != TaskState::Running)
        return; // superseded while in flight; worker already handled
    NodeCtl& ctl = nodes_[rec.task.node];
    if (!ctl.in_flight || ctl.epoch != rec.task.epoch) {
        // Stale attempt of an already-resolved window that escaped the
        // sibling cancellation (defense in depth): release its worker,
        // never commit it.
        rec.state = TaskState::Superseded;
        workers_.release(rec.worker);
        if (rec.task.hedge)
            ++metrics_.hedges_cancelled;
        else
            ++metrics_.stale_results;
        return;
    }
    if (rec.failing) {
        rec.state = TaskState::Failed;
        workers_.release(rec.worker);
        ++metrics_.task_failures;
        faults_.record(platform::FaultKind::TaskFailure, rec.task.epoch,
                       rec.task.node);
        dropLive(rec.task.node, id);
        retryOrFail(rec);
        return;
    }
    commit(rec);
}

void
AsyncFleetEngine::onLease(uint64_t id)
{
    TaskRec& rec = tasks_.at(id);
    if (rec.state != TaskState::Running)
        return; // resolved before the lease ran out
    ++metrics_.lease_expiries;
    if (rec.doomed) {
        // The worker died holding the task; the lease is how the
        // manager finds out. Reclaim and resubmit.
        rec.state = TaskState::Lost;
        workers_.kill(rec.worker);
        ++metrics_.workers_lost;
        faults_.record(platform::FaultKind::WorkerLoss, rec.task.id,
                       size_t(rec.worker));
        maybeRejoin(rec);
        dropLive(rec.task.node, id);
        retryOrFail(rec);
    } else {
        // Spurious expiry on a straggler: the attempt keeps running
        // (it may still win) while a backup enters the queue.
        retryOrFail(rec);
    }
}

void
AsyncFleetEngine::onHedge(uint64_t id)
{
    TaskRec& rec = tasks_.at(id);
    if (!options_.hedging || rec.state != TaskState::Running || rec.hedged)
        return;
    NodeCtl& ctl = nodes_[rec.task.node];
    if (!ctl.in_flight || ctl.epoch != rec.task.epoch)
        return;
    if (workers_.findIdle() < 0)
        return; // no spare capacity to speculate with
    rec.hedged = true;
    WindowTask t;
    t.id = ++next_task_id_;
    t.node = rec.task.node;
    t.epoch = rec.task.epoch;
    t.attempt = rec.task.attempt;
    t.hedge = true;
    t.critical = rec.task.critical;
    TaskRec hedge;
    hedge.task = t;
    tasks_.emplace(t.id, hedge);
    ctl.live.push_back(t.id);
    queue_.pushFront(t);
    ++metrics_.hedges_launched;
}

void
AsyncFleetEngine::onRejoin(int worker)
{
    if (workers_.worker(worker).state != WorkerState::Dead)
        return; // already back (stale event from an earlier loss)
    workers_.revive(worker);
    ++metrics_.workers_rejoined;
}

void
AsyncFleetEngine::onReplenish(size_t node)
{
    NodeCtl& ctl = nodes_[node];
    ctl.replenish_scheduled = false;
    if (!ctl.in_flight && !ctl.quarantined && ctl.remaining > 0 &&
        fleet_.nodes_[node].server != nullptr)
        enqueueTask(node);
}

const FleetMetrics&
AsyncFleetEngine::run(int epochs)
{
    CLITE_CHECK(epochs >= 1, "run() needs at least one epoch");
    for (NodeCtl& ctl : nodes_)
        ctl.remaining = epochs;
    fleet_.placeQueued(&quarantine_);
    activateNodes();
    dispatch();

    while (!events_.empty()) {
        const Event e = events_.top();
        events_.pop();
        now_ = std::max(now_, e.time);
        switch (e.kind) {
          case Event::Complete:
            onComplete(e.task);
            break;
          case Event::Lease:
            onLease(e.task);
            break;
          case Event::Hedge:
            onHedge(e.task);
            break;
          case Event::Rejoin:
            onRejoin(e.worker);
            break;
          case Event::Replenish:
            onReplenish(e.node);
            break;
        }
        dispatch();
    }

    // A drained event heap with tasks still queued means every worker
    // is permanently dead: nothing can ever dispatch again. Shed the
    // backlog visibly rather than pretending the run finished.
    const auto alive = [this](uint64_t id) {
        return tasks_.at(id).state == TaskState::Queued;
    };
    bool stalled = false;
    while (std::optional<uint64_t> id = queue_.pop(false, alive)) {
        TaskRec& rec = tasks_.at(*id);
        rec.state = TaskState::Dropped;
        ++metrics_.windows_dropped;
        stalled = true;
    }
    if (stalled) {
        metrics_.stalled = true;
        for (NodeCtl& ctl : nodes_) {
            ctl.live.clear();
            ctl.in_flight = false;
            ctl.executed = false;
            ctl.attempts_started = 0;
            ctl.remaining = 0;
        }
    }

    // Refit observability: node managers count cumulatively since
    // their creation, so assign (not add) — idempotent across run()
    // calls and immune to double-counting.
    metrics_.refits = 0;
    metrics_.probe_evals = 0;
    metrics_.warm_probe_hits = 0;
    metrics_.coarse_windows = 0;
    metrics_.qos_windows = 0;
    metrics_.violating_windows = 0;
    metrics_.transients_ridden = 0;
    metrics_.sustained_shifts = 0;
    for (const Fleet::Node& node : fleet_.nodes_) {
        if (node.manager == nullptr)
            continue;
        metrics_.refits += node.manager->refits();
        metrics_.probe_evals += node.manager->probeEvals();
        metrics_.warm_probe_hits += node.manager->warmProbeHits();
        metrics_.coarse_windows += node.manager->coarseWindows();
        metrics_.qos_windows += node.manager->qosWindows();
        metrics_.violating_windows += node.manager->violatingWindows();
        metrics_.transients_ridden += node.manager->transientsRidden();
        metrics_.sustained_shifts += node.manager->sustainedShifts();
    }
    return metrics_;
}

} // namespace cluster
} // namespace clite
