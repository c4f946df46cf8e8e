#include "sim/dynamic_scenario.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <set>
#include <utility>
#include <vector>

#include "obs/accuracy.hpp"
#include "obs/span_log.hpp"
#include "sim/completion_heap.hpp"
#include "sim/slot_registry.hpp"
#include "util/error.hpp"

namespace tracon::sim {

namespace {

struct RunningTask {
  std::size_t app = 0;
  double remaining_solo_s = 0.0;  ///< work left, in solo-execution seconds
  double started_s = 0.0;         ///< when it was placed
  double iops_integral = 0.0;     ///< integral of achieved IOPS over time
  double last_update_s = 0.0;
  /// Accuracy-probe predictions captured at placement (negative when no
  /// probe was attached).
  double predicted_runtime_s = -1.0;
  double predicted_iops = -1.0;
  /// Neighbour class at placement time, for completion observers.
  std::optional<std::size_t> placed_neighbour;
  /// Arrival index, joining this task's decision-log records.
  std::uint64_t task_id = 0;
  /// Migration stop-and-copy pause: no progress before this time.
  double frozen_until_s = 0.0;
  /// Start of the task's open span-log epoch (co-runner and copy state
  /// constant since then). Only maintained when spans are recorded.
  double span_open_s = 0.0;
};

struct Machine {
  std::optional<RunningTask> slot[2];
  /// Migration copy window: every resident task runs at the cost
  /// model's copy_speed_factor until this time.
  double copy_until_s = 0.0;

  std::size_t occupancy() const {
    return (slot[0].has_value() ? 1u : 0u) + (slot[1].has_value() ? 1u : 0u);
  }
};

/// Control events, in the order they run at one instant: a snapshot
/// comes last, so a window closes after every other event at its
/// t_end. Completions are not control events: they live in the indexed
/// CompletionHeap, keyed by VM slot, where ETA changes move the slot's
/// single entry in place instead of stranding dead events.
enum class EventType { kArrival, kWakeup, kRound, kRebalance, kSnapshot };
constexpr std::size_t kEventTypes =
    static_cast<std::size_t>(EventType::kSnapshot) + 1;

/// A control clock with nothing pending.
constexpr double kNever = std::numeric_limits<double>::infinity();

int registry_key(const Machine& m) {
  std::size_t occ = m.occupancy();
  if (occ == 2) return SlotRegistry::kNone;
  if (occ == 0) return 0;
  const RunningTask& t = m.slot[0].has_value() ? *m.slot[0] : *m.slot[1];
  return 1 + static_cast<int>(t.app);
}

}  // namespace

double DynamicOutcome::throughput_per_hour() const {
  return duration_s > 0.0
             ? static_cast<double>(completed) / (duration_s / 3600.0)
             : 0.0;
}

std::vector<Arrival> generate_arrivals(const DynamicConfig& cfg,
                                       std::size_t num_apps) {
  PoissonArrivalSource source(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                              cfg.mix_stddev, cfg.seed);
  return source.arrivals(num_apps);
}

/// One (app, neighbour) cell of the perf table: the app's progress
/// speed relative to solo, and its IOPS.
struct Rate {
  double speed = 0.0;
  double iops = 0.0;
};

struct DynamicEngine::State {
  State(const PerfTable& table, sched::Scheduler& policy,
        const DynamicConfig& config);

  double& next_at(EventType type) {
    return clocks[static_cast<std::size_t>(type)];
  }
  /// The perf table's cell for `app` beside `neighbour`.
  const Rate& rate(std::size_t app,
                   const std::optional<std::size_t>& neighbour) const {
    return rates[app * (n + 1) + neighbour.value_or(n)];
  }
  static std::optional<std::size_t> neighbour_of(const Machine& m, int slot) {
    const auto& other = m.slot[1 - slot];
    if (!other.has_value()) return std::nullopt;
    return other->app;
  }

  void trace_event(double now, obs::TraceEventKind kind, std::size_t app,
                   std::size_t machine, std::size_t count, double value,
                   double value2) {
    if (tel == nullptr) return;
    obs::TraceEvent ev;
    ev.time_s = now;
    ev.kind = kind;
    ev.app = app;
    ev.machine = machine;
    ev.count = count;
    ev.value = value;
    ev.value2 = value2;
    tel->tracer.record(ev);
  }

  // Task-lifecycle span recording (obs::SpanLog). An epoch is the
  // stretch since a task's co-runner or copy-window state last changed;
  // close_epoch splits the open epoch at the task's freeze and the
  // machine's copy-window boundaries into the span kinds in force —
  // the same piecewise factors advance_machine integrates — and
  // re-opens it at `now`. Every mutation that changes a slot's
  // neighbour or a machine's copy window closes the affected epochs
  // FIRST, so an open epoch only ever sees the freeze/copy boundaries
  // that were in force when it opened.
  void close_epoch(std::size_t mi, int slot, double now) {
    Machine& m = fleet[mi];
    if (!m.slot[slot].has_value()) return;
    RunningTask& t = *m.slot[slot];
    auto nb = neighbour_of(m, slot);
    const double speed = rate(t.app, nb).speed;
    double t0 = t.span_open_s;
    while (t0 < now) {
      obs::SpanEvent se;
      se.task = t.task_id;
      se.app = t.app;
      se.machine = mi;
      se.t0_s = t0;
      double t1 = now;
      if (t0 < t.frozen_until_s) {
        se.kind = obs::SpanEvent::Kind::kMigrationFreeze;
        t1 = std::min(t1, t.frozen_until_s);
      } else if (t0 < m.copy_until_s) {
        se.kind = obs::SpanEvent::Kind::kMigrationCopy;
        se.neighbour = nb;
        se.factor = speed;
        se.copy_factor = copy_factor;
        t1 = std::min(t1, m.copy_until_s);
      } else {
        se.kind = obs::SpanEvent::Kind::kRunning;
        se.neighbour = nb;
        se.factor = speed;
      }
      se.t1_s = t1;
      tel->spans.record(se);
      t0 = t1;
    }
    t.span_open_s = now;
  }

  void close_epochs(std::size_t mi, double now) {
    close_epoch(mi, 0, now);
    close_epoch(mi, 1, now);
  }

  // Brings a machine's running tasks up to `now`, integrating progress
  // piecewise over a task's migration freeze (no progress) and the
  // machine's copy window (reduced speed).
  void advance_machine(std::size_t mi, double now) {
    Machine& m = fleet[mi];
    for (int s = 0; s < 2; ++s) {
      if (!m.slot[s].has_value()) continue;
      RunningTask& t = *m.slot[s];
      if (now <= t.last_update_s) continue;
      const Rate& r = rate(t.app, neighbour_of(m, s));
      double t0 = t.last_update_s;
      while (t0 < now) {
        double t1 = now;
        double factor = 1.0;
        if (t0 < t.frozen_until_s) {
          factor = 0.0;
          t1 = std::min(t1, t.frozen_until_s);
        } else if (t0 < m.copy_until_s) {
          factor = copy_factor;
          t1 = std::min(t1, m.copy_until_s);
        }
        double dt = t1 - t0;
        t.remaining_solo_s =
            std::max(0.0, t.remaining_solo_s - dt * r.speed * factor);
        t.iops_integral += r.iops * factor * dt;
        t0 = t1;
      }
      t.last_update_s = now;
    }
  }

  // Re-times a machine's completion entries after any state change:
  // occupied slots get their piecewise ETA recomputed and moved in
  // place, freed slots leave the heap.
  void update_etas(std::size_t mi, double now) {
    Machine& m = fleet[mi];
    for (int s = 0; s < 2; ++s) {
      const std::size_t id = mi * 2 + static_cast<std::size_t>(s);
      if (!m.slot[s].has_value()) {
        completions.remove(id);
        continue;
      }
      const RunningTask& t = *m.slot[s];
      const double speed = rate(t.app, neighbour_of(m, s)).speed;
      TRACON_ASSERT(speed > 0.0, "non-positive task speed");
      // Piecewise ETA mirroring advance_machine: sit out the freeze,
      // run the copy window at reduced speed, then full speed.
      double t0 = now;
      double rem = t.remaining_solo_s;
      if (t.frozen_until_s > t0) t0 = t.frozen_until_s;
      if (m.copy_until_s > t0) {
        // copy_interference < 1 keeps the copy-window rate positive.
        double copy_rate = speed * copy_factor;
        double work = (m.copy_until_s - t0) * copy_rate;
        if (work >= rem) {
          completions.update(id, t0 + rem / copy_rate);
          continue;
        }
        rem -= work;
        t0 = m.copy_until_s;
      }
      completions.update(id, t0 + rem / speed);
    }
  }

  // Invokes the scheduler repeatedly until it stops placing (a batch
  // scheduler only handles one window per call).
  void run_scheduler(double now) {
    sched::ScheduleContext ctx{now};
    for (bool progressed = true; progressed;) {
      auto placements = scheduler.schedule(queue, counts, ctx);
      progressed = !placements.empty();
      remove.clear();
      for (const auto& p : placements) {
        TRACON_ASSERT(p.queue_pos < queue.size(), "bad placement position");
        std::size_t app = queue[p.queue_pos].app;
        counts.place(app, p.neighbour);
        int key = p.neighbour.has_value()
                      ? 1 + static_cast<int>(*p.neighbour)
                      : 0;
        std::size_t mi = registry.pop(key);
        advance_machine(mi, now);
        Machine& m = fleet[mi];
        int slot = m.slot[0].has_value() ? 1 : 0;
        TRACON_ASSERT(!m.slot[slot].has_value(), "slot already busy");
        RunningTask t;
        t.app = app;
        t.remaining_solo_s = solo_runtimes[app];
        t.started_s = now;
        t.last_update_s = now;
        t.placed_neighbour = p.neighbour;
        t.task_id = queue[p.queue_pos].id;
        if (tel != nullptr) tel->decisions.bind_machine(t.task_id, mi);
        if (cfg.accuracy_probe != nullptr) {
          t.predicted_runtime_s =
              cfg.accuracy_probe->predict_runtime(app, p.neighbour);
          t.predicted_iops = cfg.accuracy_probe->predict_iops(app, p.neighbour);
        }
        t.span_open_s = now;
        if (spans_on) {
          close_epochs(mi, now);  // the resident's co-runner changes
          obs::SpanEvent qs;
          qs.kind = obs::SpanEvent::Kind::kQueued;
          qs.task = t.task_id;
          qs.app = app;
          qs.t0_s = queue[p.queue_pos].arrival_s;
          qs.t1_s = now;
          tel->spans.record(qs);
        }
        m.slot[slot] = t;
        registry.set_key(mi, registry_key(m));
        update_etas(mi, now);
        ++busy_slots;
        if (m.occupancy() == 1) {
          ++busy_machines;
          trace_event(now, obs::TraceEventKind::kVmStart, app, mi,
                      m.occupancy(), 0.0, 0.0);
        }
        double wait = now - queue[p.queue_pos].arrival_s;
        if (wait_hist != nullptr) wait_hist->observe(wait);
        trace_event(now, obs::TraceEventKind::kTaskPlaced, app, mi,
                    queue.size(), t.predicted_runtime_s, wait);
        wait_sum += wait;
        ++out.started;
        if (c_placed != nullptr) c_placed->inc();
        remove.push_back(p.queue_pos);
      }
      std::sort(remove.begin(), remove.end(), std::greater<>());
      for (std::size_t pos : remove)
        queue.erase(queue.begin() + static_cast<long>(pos));
    }
    if (auto wake = scheduler.next_wakeup(queue, ctx);
        wake.has_value() && *wake > now && *wake < cfg.duration_s) {
      wakeups.insert(*wake);
    }
  }

  // One rebalance round: snapshot the running tasks, let the
  // rebalancer plan against its slowdown rings, then apply each move —
  // lift the task off its source host, claim a destination slot of the
  // planned class, freeze the task for the downtime, open the copy
  // window on both hosts, and record provenance.
  void run_rebalancer(double now) {
    std::vector<migrate::RunningTaskView> views;
    for (std::size_t mi = 0; mi < cfg.machines; ++mi) {
      advance_machine(mi, now);
      Machine& m = fleet[mi];
      // Hosts mid-copy and tasks mid-freeze sit a round out: stacking
      // migrations on an in-flight one compounds cost unpredictably.
      if (m.copy_until_s > now) continue;
      for (int s = 0; s < 2; ++s) {
        if (!m.slot[s].has_value()) continue;
        const RunningTask& t = *m.slot[s];
        if (t.frozen_until_s > now) continue;
        if (t.remaining_solo_s <= 1e-6) continue;  // completing now
        migrate::RunningTaskView v;
        v.task_id = t.task_id;
        v.app = t.app;
        v.machine = mi;
        v.neighbour = neighbour_of(m, s);
        v.remaining_solo_s = t.remaining_solo_s;
        v.solo_runtime_s = solo_runtimes[t.app];
        v.started_s = t.started_s;
        views.push_back(v);
      }
    }
    const auto plans = cfg.rebalancer->plan(now, views, counts);
    for (const migrate::MigrationPlan& p : plans) {
      // Resolve the destination before touching anything: earlier moves
      // in the same round can have consumed the planned class's last
      // slot (or left only the source machine itself holding it), in
      // which case the plan is quietly dropped — the cluster state
      // stays truthful and later plans resolve against it.
      int key = p.dest_neighbour.has_value()
                    ? 1 + static_cast<int>(*p.dest_neighbour)
                    : 0;
      std::optional<std::size_t> dest =
          registry.try_pop_excluding(key, p.from_machine);
      if (!dest.has_value()) continue;
      std::size_t dest_mi = *dest;

      Machine& src = fleet[p.from_machine];
      int slot = -1;
      for (int s = 0; s < 2; ++s) {
        if (src.slot[s].has_value() && src.slot[s]->task_id == p.task_id)
          slot = s;
      }
      TRACON_ASSERT(slot >= 0, "planned migration names a missing task");
      // Close both source epochs before lifting: the moved task's
      // epoch ends and the left-behind co-runner's neighbour changes.
      if (spans_on) close_epochs(p.from_machine, now);
      RunningTask moved = *src.slot[slot];
      src.slot[slot].reset();
      --busy_slots;
      if (src.occupancy() == 0) {
        --busy_machines;
        trace_event(now, obs::TraceEventKind::kVmStop, moved.app,
                    p.from_machine, 0, now - moved.started_s, 0.0);
      }
      counts.depart(moved.app, neighbour_of(src, slot));
      registry.set_key(p.from_machine, registry_key(src));

      counts.place(moved.app, p.dest_neighbour);
      advance_machine(dest_mi, now);
      // Close the destination resident's epoch too — its co-runner is
      // about to change, and the copy window below must only cover
      // epochs opened at `now`.
      if (spans_on) close_epochs(dest_mi, now);
      Machine& dst = fleet[dest_mi];
      int dslot = dst.slot[0].has_value() ? 1 : 0;
      TRACON_ASSERT(!dst.slot[dslot].has_value(), "slot already busy");
      moved.last_update_s = now;
      moved.span_open_s = now;
      moved.frozen_until_s = now + p.downtime_s;
      moved.placed_neighbour = p.dest_neighbour;
      dst.slot[dslot] = moved;
      registry.set_key(dest_mi, registry_key(dst));
      ++busy_slots;
      if (dst.occupancy() == 1) {
        ++busy_machines;
        trace_event(now, obs::TraceEventKind::kVmStart, moved.app, dest_mi,
                    dst.occupancy(), 0.0, 0.0);
      }

      double copy_end = now + p.copy_s;
      src.copy_until_s = std::max(src.copy_until_s, copy_end);
      dst.copy_until_s = std::max(dst.copy_until_s, copy_end);
      update_etas(p.from_machine, now);
      update_etas(dest_mi, now);

      if (c_migrated != nullptr) c_migrated->inc();
      if (tel != nullptr && tel->decisions.enabled()) {
        obs::DecisionEvent de;
        de.task = moved.task_id;
        de.time_s = now;
        de.app = moved.app;
        de.machine = dest_mi;
        de.from_machine = p.from_machine;
        de.from_neighbour = p.from_neighbour;
        de.neighbour = p.dest_neighbour;
        de.predicted_stay_s = p.predicted_stay_s;
        de.predicted_move_s = p.predicted_move_s;
        de.downtime_s = p.downtime_s;
        de.copy_s = p.copy_s;
        de.cost_s = p.cost_s;
        de.margin = p.margin;
        tel->decisions.record_migration(de);
      }
    }
  }

  // The completion at the top of the heap, due at `now`.
  void complete(double now) {
    const std::size_t id = completions.top().id;
    completions.pop();
    const std::size_t mi = id / 2;
    const int slot = static_cast<int>(id % 2);
    Machine& m = fleet[mi];
    TRACON_ASSERT(m.slot[slot].has_value(),
                  "completion entry for an empty slot");
    advance_machine(mi, now);
    RunningTask* t = &*m.slot[slot];
    if (t->remaining_solo_s > 1e-6) {
      // Floating-point residue left the finish past the computed
      // ETA; re-arm the slot's entry at the corrected time.
      update_etas(mi, now);
      return;
    }
    double runtime = now - t->started_s;
    double mean_iops = runtime > 0.0 ? t->iops_integral / runtime : 0.0;
    ++out.completed;
    if (c_completed != nullptr) c_completed->inc();
    out.total_runtime += runtime;
    out.total_iops += mean_iops;
    std::size_t departed = t->app;
    if (runtime_hist != nullptr) runtime_hist->observe(runtime);
    trace_event(now, obs::TraceEventKind::kTaskCompleted, departed, mi, 0,
                runtime, mean_iops);
    if (acc_runtime.has_value() && t->predicted_runtime_s >= 0.0)
      acc_runtime->record(t->predicted_runtime_s, runtime);
    if (acc_iops.has_value() && t->predicted_iops >= 0.0)
      acc_iops->record(t->predicted_iops, mean_iops);
    if (cfg.windowed_runtime != nullptr && t->predicted_runtime_s >= 0.0)
      cfg.windowed_runtime->record(t->predicted_runtime_s, runtime);
    if (cfg.windowed_iops != nullptr && t->predicted_iops >= 0.0)
      cfg.windowed_iops->record(t->predicted_iops, mean_iops);
    if (cfg.outcome_observer != nullptr) {
      cfg.outcome_observer->on_completion(departed, t->placed_neighbour,
                                          runtime, mean_iops);
    }
    if (cfg.rebalancer != nullptr) {
      cfg.rebalancer->observe_completion(departed, t->placed_neighbour,
                                         runtime, solo_runtimes[departed]);
    }
    if (tel != nullptr && tel->decisions.enabled()) {
      obs::DecisionEvent de;
      de.task = t->task_id;
      de.time_s = now;
      de.app = departed;
      de.machine = mi;
      de.neighbour = t->placed_neighbour;
      de.runtime_s = runtime;
      de.iops = mean_iops;
      de.solo_runtime_s = solo_runtimes[departed];
      tel->decisions.record_outcome(de);
    }
    if (spans_on) {
      // Close the departing task's final segment and the survivor's
      // epoch (its co-runner is about to leave), then mark the
      // completion.
      close_epochs(mi, now);
      obs::SpanEvent cm;
      cm.kind = obs::SpanEvent::Kind::kCompleted;
      cm.task = t->task_id;
      cm.app = departed;
      cm.machine = mi;
      cm.t0_s = now;
      cm.t1_s = now;
      cm.solo_runtime_s = solo_runtimes[departed];
      tel->spans.record(cm);
    }
    m.slot[slot].reset();
    --busy_slots;
    if (m.occupancy() == 0) {
      --busy_machines;
      trace_event(now, obs::TraceEventKind::kVmStop, departed, mi, 0, runtime,
                  0.0);
    }
    counts.depart(departed, neighbour_of(m, slot));
    registry.set_key(mi, registry_key(m));
    update_etas(mi, now);
    if (online) run_scheduler(now);
  }

  // The next fed arrival, due at `now`. Its task id is its index in the
  // stream.
  void arrive(double now) {
    const std::size_t idx = out.arrived++;
    if (c_arrived != nullptr) c_arrived->inc();
    const std::size_t app = pending[next_pending++].app;
    TRACON_ASSERT(app < n, "arrival app out of range");
    trace_event(now, obs::TraceEventKind::kTaskArrival, app,
                obs::TraceEvent::kNone, queue.size(), 0.0, 0.0);
    if (queue.size() < cfg.queue_capacity) {
      queue.push_back({app, now, static_cast<std::uint64_t>(idx)});
      run_scheduler(now);
    } else {
      ++out.dropped;  // manager queue full: task rejected
      if (c_dropped != nullptr) c_dropped->inc();
      trace_event(now, obs::TraceEventKind::kTaskDropped, app,
                  obs::TraceEvent::kNone, queue.size(), 0.0, 0.0);
    }
  }

  void run() {
    while (!ended) {
      // The arrival clock: the next fed arrival, kNever past the horizon
      // or once the stream has ended. With no fed arrival left on an open
      // stream the earliest event is not known yet, so stop before
      // choosing one.
      if (next_pending < pending.size()) {
        const double at = pending[next_pending].time_s;
        next_at(EventType::kArrival) = at < cfg.duration_s ? at : kNever;
      } else if (closed) {
        next_at(EventType::kArrival) = kNever;
      } else {
        return;
      }
      next_at(EventType::kWakeup) =
          wakeups.empty() ? kNever : *wakeups.begin();
      std::size_t due = 0;
      for (std::size_t t = 1; t < kEventTypes; ++t)
        if (clocks[t] < clocks[due]) due = t;
      // Two-queue merge: control events win equal-time ties so that a
      // round/arrival at the exact instant of a completion sees the
      // pre-completion cluster — completions at a tied time strictly
      // follow, as a deterministic rule rather than heap happenstance.
      const bool take_comp =
          !completions.empty() && completions.top().time < clocks[due];
      const double now = take_comp ? completions.top().time : clocks[due];
      if (now > cfg.duration_s) {  // also: nothing left pending
        ended = true;
        return;
      }

      double dt = now - last_event_time;
      queue_len_integral += static_cast<double>(queue.size()) * dt;
      busy_machine_integral += static_cast<double>(busy_machines) * dt;
      busy_slot_integral += static_cast<double>(busy_slots) * dt;
      last_event_time = now;

      if (take_comp) {
        complete(now);
        continue;
      }
      switch (static_cast<EventType>(due)) {
        case EventType::kArrival:
          arrive(now);
          break;
        case EventType::kWakeup:
          wakeups.erase(wakeups.begin());
          run_scheduler(now);
          break;
        case EventType::kRound: {
          run_scheduler(now);
          double next_round = now + cfg.schedule_period_s;
          next_at(EventType::kRound) =
              next_round < cfg.duration_s ? next_round : kNever;
          break;
        }
        case EventType::kRebalance: {
          run_rebalancer(now);
          double next_rebalance = now + cfg.rebalancer->config().interval_s;
          next_at(EventType::kRebalance) =
              next_rebalance < cfg.duration_s ? next_rebalance : kNever;
          break;
        }
        case EventType::kSnapshot: {
          // Instantaneous state gauges are refreshed right before the
          // sample so each window reports the state at its t_end. These
          // gauges only exist on snapshot-enabled runs.
          obs::MetricsRegistry& m = tel->metrics;
          m.gauge("sim.queue.length").set(static_cast<double>(queue.size()));
          m.gauge("sim.util.busy_machines")
              .set(static_cast<double>(busy_machines));
          m.gauge("sim.util.busy_slots").set(static_cast<double>(busy_slots));
          cfg.snapshots->sample(now);
          double next_window =
              std::min(now + cfg.snapshots->interval_s(), cfg.duration_s);
          next_at(EventType::kSnapshot) =
              next_window > now ? next_window : kNever;
          break;
        }
      }
    }
  }

  // The horizon's bookkeeping, once the event loop has ended.
  DynamicOutcome close_run() {
    if (spans_on) {
      // Account the tail: tasks still running or queued when the horizon
      // closes get their open spans flushed at the horizon (mirroring how
      // the utilization integrals run out to it). No completed markers —
      // the breakdown reports them as incomplete.
      for (std::size_t mi = 0; mi < cfg.machines; ++mi)
        close_epochs(mi, cfg.duration_s);
      for (const sched::QueuedTask& q : queue) {
        obs::SpanEvent qs;
        qs.kind = obs::SpanEvent::Kind::kQueued;
        qs.task = q.id;
        qs.app = q.app;
        qs.t0_s = q.arrival_s;
        qs.t1_s = cfg.duration_s;
        tel->spans.record(qs);
      }
    }

    out.duration_s = cfg.duration_s;
    out.mean_wait_s = out.started > 0
                          ? wait_sum / static_cast<double>(out.started)
                          : 0.0;
    out.mean_queue_length =
        last_event_time > 0.0 ? queue_len_integral / last_event_time : 0.0;

    if (tel != nullptr) {
      // Run the utilization integrals out to the simulated horizon (the
      // cluster keeps its final occupancy until the clock stops).
      double tail = cfg.duration_s - last_event_time;
      if (tail > 0.0) {
        busy_machine_integral += static_cast<double>(busy_machines) * tail;
        busy_slot_integral += static_cast<double>(busy_slots) * tail;
        queue_len_integral += static_cast<double>(queue.size()) * tail;
      }
      double span_s = cfg.duration_s;
      obs::MetricsRegistry& m = tel->metrics;
      m.gauge("sim.util.host_busy_fraction")
          .set(busy_machine_integral /
               (static_cast<double>(cfg.machines) * span_s));
      m.gauge("sim.util.slot_busy_fraction")
          .set(busy_slot_integral /
               (2.0 * static_cast<double>(cfg.machines) * span_s));
      m.gauge("sim.queue.mean_length").set(queue_len_integral / span_s);
    }
    return out;
  }

  sched::Scheduler& scheduler;
  const DynamicConfig cfg;
  const std::size_t n;  ///< application classes
  // The perf table, dense per run: the event loop reads it with no
  // range check. Row `app` holds a cell per neighbour, the idle one
  // last.
  std::vector<Rate> rates;
  std::vector<double> solo_runtimes;

  std::vector<Machine> fleet;
  sched::ClusterCounts counts;
  SlotRegistry registry;
  // One clock per control-event type: the instant of its next event,
  // kNever when none is pending. Only the scheduler's wake-ups can be
  // pending several at once; they are a set of distinct instants in
  // `wakeups`, whose first is the kWakeup clock, so an instant
  // requested again while pending is delivered once. Picking the
  // earliest clock, ties to the type declared first, is a total order,
  // so the event sequence never depends on which sinks are on.
  std::array<double, kEventTypes> clocks;
  std::set<double> wakeups;
  // Completions live in an indexed heap keyed by VM slot; ETA changes
  // move the slot's single entry in place instead of stranding stale
  // events behind a stamp check.
  CompletionHeap completions;
  std::vector<sched::QueuedTask> queue;
  std::vector<std::size_t> remove;  ///< placed queue positions, per round

  // The arrival stream: the chunk being fed and the next arrival in it.
  // `closed` once finish() ends the stream, `ended` once the clock has
  // passed the horizon.
  std::span<const Arrival> pending;
  std::size_t next_pending = 0;
  double last_fed_s = 0.0;  ///< time of the last arrival fed
  bool closed = false;
  bool ended = false;

  DynamicOutcome out;
  double wait_sum = 0.0;
  double queue_len_integral = 0.0;
  double last_event_time = 0.0;
  // Utilization accounting: time-integrals of busy machines (>=1 task)
  // and busy VM slots, advanced at every event alongside the queue
  // integral.
  std::size_t busy_machines = 0;
  std::size_t busy_slots = 0;
  double busy_machine_integral = 0.0;
  double busy_slot_integral = 0.0;

  obs::Telemetry* tel;
  obs::Histogram* wait_hist = nullptr;
  obs::Histogram* runtime_hist = nullptr;
  // Task counters are incremented live (not tallied at the end) so the
  // snapshot series sees meaningful per-window deltas; the end-of-run
  // export carries the same totals either way.
  obs::Counter* c_arrived = nullptr;
  obs::Counter* c_dropped = nullptr;
  obs::Counter* c_placed = nullptr;
  obs::Counter* c_completed = nullptr;
  obs::Counter* c_migrated = nullptr;
  std::optional<obs::AccuracyTracker> acc_runtime;
  std::optional<obs::AccuracyTracker> acc_iops;
  const bool spans_on;  ///< spans are recorded (see close_epoch)
  // Speed multiplier a migration's copy window applies to every task
  // on the source and destination hosts (1.0 when rebalancing is off,
  // and every copy/freeze branch below is dead code).
  const double copy_factor;
  // Online schedulers (FIFO, MIOS) dispatch on every event. Batch
  // schedulers are triggered by arrivals (the paper: "the scheduling
  // process takes place when the queue that holds the incoming tasks is
  // full") and by the manager's periodic safety round — NOT by
  // completions: freed VMs accumulate between batches, which is what
  // gives MIBS/MIX genuinely concurrent placement choices.
  const bool online;
};

// TRACON_ANALYZE_ALLOW(require-guard): DynamicEngine's constructor
// checks the configuration before it builds the state.
DynamicEngine::State::State(const PerfTable& table, sched::Scheduler& policy,
                            const DynamicConfig& config)
    : scheduler(policy),
      cfg(config),
      n(table.num_apps()),
      fleet(cfg.machines),
      counts(n, cfg.machines),
      registry(cfg.machines, n),
      completions(cfg.machines * 2),
      tel(cfg.telemetry),
      spans_on(cfg.telemetry != nullptr && cfg.telemetry->spans.enabled()),
      copy_factor(cfg.rebalancer != nullptr
                      ? cfg.rebalancer->cost_model().copy_speed_factor()
                      : 1.0),
      online(scheduler.online()) {
  for (std::size_t a = 0; a < n; ++a) {
    solo_runtimes.push_back(table.solo_runtime(a));
    for (std::size_t b = 0; b <= n; ++b) {
      const std::optional<std::size_t> nb =
          b < n ? std::optional<std::size_t>(b) : std::nullopt;
      rates.push_back({table.speed(a, nb), table.iops(a, nb)});
    }
  }
  for (std::size_t m = 0; m < cfg.machines; ++m)
    registry.set_key(m, 0);

  if (tel != nullptr) {
    wait_hist = &tel->metrics.histogram(
        "sim.task.wait_s",
        {1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0});
    runtime_hist = &tel->metrics.histogram(
        "sim.task.runtime_s",
        {10.0, 20.0, 50.0, 100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0});
    c_arrived = &tel->metrics.counter("sim.tasks.arrived");
    c_dropped = &tel->metrics.counter("sim.tasks.dropped");
    c_placed = &tel->metrics.counter("sim.tasks.placed");
    c_completed = &tel->metrics.counter("sim.tasks.completed");
    // Registered only on rebalancing runs so non-rebalancing exports
    // keep their exact bytes.
    if (cfg.rebalancer != nullptr)
      c_migrated = &tel->metrics.counter("sim.tasks.migrated");
    if (cfg.accuracy_probe != nullptr) {
      std::string family =
          cfg.accuracy_family.empty() ? "probe" : cfg.accuracy_family;
      acc_runtime.emplace(tel->metrics, family, "runtime");
      acc_iops.emplace(tel->metrics, family, "iops");
    }
  }

  // Prime the manager's scheduling rounds; the arrival clock follows
  // the fed stream.
  clocks.fill(kNever);
  next_at(EventType::kRound) = cfg.schedule_period_s;
  if (cfg.snapshots != nullptr)
    next_at(EventType::kSnapshot) =
        std::min(cfg.snapshots->interval_s(), cfg.duration_s);
  if (cfg.rebalancer != nullptr) {
    double first = cfg.rebalancer->config().interval_s;
    if (first < cfg.duration_s) next_at(EventType::kRebalance) = first;
  }
}

DynamicEngine::DynamicEngine(const PerfTable& table,
                             sched::Scheduler& scheduler,
                             const DynamicConfig& cfg) {
  TRACON_REQUIRE(cfg.machines > 0, "need at least one machine");
  TRACON_REQUIRE(cfg.duration_s > 0.0, "duration must be positive");
  TRACON_REQUIRE(cfg.queue_capacity >= 1, "queue capacity must be >= 1");
  TRACON_REQUIRE(cfg.schedule_period_s > 0.0,
                 "schedule period must be positive");
  TRACON_REQUIRE(cfg.snapshots == nullptr || cfg.telemetry != nullptr,
                 "snapshot series requires telemetry");
  TRACON_REQUIRE(
      cfg.windowed_runtime == nullptr || cfg.accuracy_probe != nullptr,
      "windowed runtime accuracy requires an accuracy probe");
  TRACON_REQUIRE(
      cfg.windowed_iops == nullptr || cfg.accuracy_probe != nullptr,
      "windowed IOPS accuracy requires an accuracy probe");
  state_ = std::make_unique<State>(table, scheduler, cfg);
}

DynamicEngine::~DynamicEngine() = default;

void DynamicEngine::feed(std::span<const Arrival> chunk) {
  State& s = *state_;
  TRACON_REQUIRE(!s.closed, "the arrival stream has already been finished");
  for (const Arrival& a : chunk) {
    TRACON_REQUIRE(a.time_s >= s.last_fed_s,
                   "arrivals must be sorted by time, from t = 0");
    s.last_fed_s = a.time_s;
  }
  s.pending = chunk;
  s.next_pending = 0;
  s.run();
  s.pending = {};  // the chunk stays the caller's
}

DynamicOutcome DynamicEngine::finish() {
  State& s = *state_;
  TRACON_REQUIRE(!s.closed, "the arrival stream has already been finished");
  s.closed = true;
  s.run();
  return s.close_run();
}

void feed_poisson(const DynamicConfig& cfg, std::size_t num_apps,
                  std::span<DynamicEngine* const> engines) {
  PoissonStream stream(cfg.lambda_per_min, cfg.duration_s, cfg.mix,
                       cfg.mix_stddev, cfg.seed, num_apps);
  std::vector<Arrival> chunk(kArrivalChunk);
  for (std::size_t got = chunk.size(); got == chunk.size();) {
    got = stream.fill(chunk);
    for (DynamicEngine* engine : engines)
      engine->feed(std::span<const Arrival>(chunk.data(), got));
  }
}

DynamicOutcome run_dynamic(const PerfTable& table,
                           sched::Scheduler& scheduler,
                           const DynamicConfig& cfg) {
  DynamicEngine engine(table, scheduler, cfg);
  if (cfg.arrival_source != nullptr) {
    engine.feed(cfg.arrival_source->arrivals(table.num_apps()));
  } else {
    DynamicEngine* const engines[] = {&engine};
    feed_poisson(cfg, table.num_apps(), engines);
  }
  return engine.finish();
}

DynamicOutcome run_dynamic(const PerfTable& table,
                           sched::Scheduler& scheduler,
                           const DynamicConfig& cfg,
                           std::span<const Arrival> arrivals) {
  DynamicEngine engine(table, scheduler, cfg);
  engine.feed(arrivals);
  return engine.finish();
}

}  // namespace tracon::sim
