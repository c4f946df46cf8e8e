// Micro benchmarks (google-benchmark): the scheduling-overhead claims of
// Section 3.2 (MIOS cheapest, MIX costliest, MIBS in between), model
// training/prediction cost, the host-simulator allocation solver, the
// completion heap's operation mix, and what one double costs the JSONL
// logs.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <memory>
#include <optional>
#include <ostream>
#include <vector>

#include "core/tracon.hpp"
#include "model/evaluate.hpp"
#include "obs/jsonl.hpp"
#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "sim/completion_heap.hpp"
#include "util/rng.hpp"
#include "virt/fairshare.hpp"
#include "workload/benchmarks.hpp"
#include "workload/mixes.hpp"

namespace {

using namespace tracon;

/// One shared system; building it is expensive, so it is lazily
/// constructed once for all benchmarks.
core::Tracon& system_instance() {
  static core::Tracon sys = [] {
    core::Tracon s;
    s.register_applications(workload::paper_benchmarks());
    s.train(model::ModelKind::kNonlinear);
    return s;
  }();
  return sys;
}

std::vector<sched::QueuedTask> make_queue(std::size_t n) {
  Rng rng(5);
  std::vector<sched::QueuedTask> q;
  for (std::size_t i = 0; i < n; ++i)
    q.push_back({workload::sample_benchmark_index(
                     workload::MixKind::kMedium, rng),
                 0.0});
  return q;
}

sched::ClusterCounts make_cluster(std::size_t num_apps) {
  sched::ClusterCounts c(num_apps, 64);
  // Occupy some machines so joins are an option.
  for (std::size_t a = 0; a < num_apps; ++a) c.place(a, std::nullopt);
  return c;
}

void BM_SolveSpeeds(benchmark::State& state) {
  virt::HostConfig cfg = virt::HostConfig::paper_testbed();
  std::vector<virt::VmDemand> demands(2);
  demands[0] = {0.45, 374, 125, 64, 0.95};
  demands[1] = {0.42, 210, 8, 128, 0.90};
  for (auto _ : state) {
    benchmark::DoNotOptimize(virt::solve_speeds(cfg, demands));
  }
}
BENCHMARK(BM_SolveSpeeds);

void BM_PairMeasurement(benchmark::State& state) {
  virt::HostSimulator sim(virt::HostConfig::paper_testbed());
  auto apps = workload::paper_benchmarks();
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim.measure_pair(apps[7], apps[5]));
  }
}
BENCHMARK(BM_PairMeasurement);

void BM_TrainNlm(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  for (auto _ : state) {
    auto m = model::train_model(model::ModelKind::kNonlinear,
                                sys.training_set(7),
                                model::Response::kRuntime);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_TrainNlm);

void BM_PredictorLookup(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  const auto& p = sys.predictor();
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        p.predict_runtime(i % 8, std::optional<std::size_t>((i + 3) % 8)));
    ++i;
  }
}
BENCHMARK(BM_PredictorLookup);

void BM_ScheduleFifo(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::FifoScheduler s(3);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleFifo);

void BM_ScheduleMios(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::MiosScheduler s(sys.predictor(), sched::Objective::kRuntime);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleMios);

void BM_ScheduleMibs(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::MibsScheduler s(sys.predictor(), sched::Objective::kRuntime, 8);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleMibs);

void BM_ScheduleMix(benchmark::State& state) {
  core::Tracon& sys = system_instance();
  auto queue = make_queue(8);
  auto cluster = make_cluster(sys.num_apps());
  sched::MixScheduler s(sys.predictor(), sched::Objective::kRuntime, 8);
  sched::ScheduleContext ctx{1e9};
  for (auto _ : state) {
    benchmark::DoNotOptimize(s.schedule(queue, cluster, ctx));
  }
}
BENCHMARK(BM_ScheduleMix);

/// The completion heap of one fleet-1e5 shard (1,563 machines, 3,126
/// slots), every slot busy. Each step pops the earliest completion,
/// re-times one running task earlier (its co-runner left), starts the
/// freed slot's next task ~100 s out and re-times one task later (a
/// co-runner joined). Printed, not gated.
void BM_CompletionHeap(benchmark::State& state) {
  constexpr std::size_t kSlots = 3126;
  constexpr std::size_t kDraws = std::size_t{1} << 14;
  Rng rng(23);
  sim::CompletionHeap heap(kSlots);
  std::vector<double> eta(kSlots);
  for (std::size_t id = 0; id < kSlots; ++id) {
    eta[id] = rng.uniform(0.0, 200.0);
    heap.update(id, eta[id]);
  }
  // Drawn ahead, so the loop times the heap alone.
  std::vector<std::size_t> ids(kDraws);
  std::vector<double> fractions(kDraws);
  for (std::size_t i = 0; i < kDraws; ++i) {
    ids[i] = rng.index(kSlots);
    fractions[i] = rng.uniform();
  }
  std::size_t k = 0;
  for (auto _ : state) {
    const sim::CompletionHeap::Entry done = heap.top();
    benchmark::DoNotOptimize(done);
    heap.pop();
    const double now = done.time;
    const std::size_t faster = ids[k];
    if (faster != done.id) {
      eta[faster] = now + (eta[faster] - now) * (0.5 + 0.5 * fractions[k]);
      heap.update(faster, eta[faster]);
    }
    eta[done.id] = now + 50.0 + 100.0 * fractions[k];
    heap.update(done.id, eta[done.id]);
    const std::size_t slower = ids[k + 1];
    eta[slower] += 10.0 * fractions[k + 1];
    heap.update(slower, eta[slower]);
    k = (k + 2) % kDraws;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CompletionHeap);

/// 2^16 doubles as a log writes them: a share `repeats` are drawn from
/// 100 table values (a prediction table's scores and speed factors),
/// the rest are unique times in [0, 3600).
std::vector<double> log_doubles(double repeats) {
  Rng rng(17);
  std::vector<double> table(100);
  for (double& v : table) v = rng.uniform(0.0, 1000.0);
  std::vector<double> values(std::size_t{1} << 16);
  for (double& v : values)
    v = rng.uniform() < repeats ? table[rng.index(table.size())]
                                : rng.uniform(0.0, 3600.0);
  return values;
}

/// One shortest-text double per JSONL line, formatted into a buffer
/// whose blocks go to a stream that discards them. Printed, not gated.
void BM_JsonlNumber(benchmark::State& state, double repeats) {
  const std::vector<double> values = log_doubles(repeats);
  std::ostream discard(nullptr);
  obs::JsonlBuffer out(discard);
  for (auto _ : state) {
    for (double v : values) out.number(v).end_line();
    benchmark::DoNotOptimize(&out);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(values.size()));
}
// Two in three repeated, as in provenance-4096's decision and span logs.
BENCHMARK_CAPTURE(BM_JsonlNumber, provenance_like, 2.0 / 3.0);
BENCHMARK_CAPTURE(BM_JsonlNumber, all_unique, 0.0);

}  // namespace

BENCHMARK_MAIN();
