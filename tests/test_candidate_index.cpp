#include "sched/candidate_index.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "sched/fifo.hpp"
#include "sched/mibs.hpp"
#include "sched/mios.hpp"
#include "sched/mix.hpp"
#include "sim/dynamic_scenario.hpp"
#include "sim/static_scenario.hpp"
#include "workload/benchmarks.hpp"

namespace tracon::sched {
namespace {

/// Three app classes with a crafted interference table: app 0 barely
/// interferes, apps 1 and 2 destroy each other but tolerate app 0.
TablePredictor crafted_predictor() {
  stats::Matrix rt = {{55.0, 60.0, 60.0, 50.0},
                      {110.0, 400.0, 420.0, 100.0},
                      {115.0, 430.0, 410.0, 100.0}};
  stats::Matrix io = {{95.0, 90.0, 90.0, 100.0},
                      {180.0, 40.0, 35.0, 200.0},
                      {170.0, 35.0, 45.0, 200.0}};
  return TablePredictor(rt, io);
}

/// Same shape as crafted_predictor with shifted values, so a two-family
/// ensemble over the pair has genuinely different per-family answers.
TablePredictor crafted_predictor_alt() {
  stats::Matrix rt = {{60.0, 58.0, 65.0, 52.0},
                      {120.0, 380.0, 440.0, 105.0},
                      {105.0, 450.0, 395.0, 95.0}};
  stats::Matrix io = {{90.0, 95.0, 85.0, 105.0},
                      {170.0, 45.0, 30.0, 190.0},
                      {180.0, 30.0, 50.0, 210.0}};
  return TablePredictor(rt, io);
}

const sim::PerfTable& paper_table() {
  static sim::PerfTable t = [] {
    model::Profiler prof(
        virt::HostSimulator(virt::HostConfig::paper_testbed()), 42);
    return sim::PerfTable::build(prof, workload::paper_benchmarks());
  }();
  return t;
}

/// bench_scaling's many-class table: a fixed formula over `classes`
/// app classes, whose rows repeat every 23 neighbours (many ties).
TablePredictor synthetic_predictor(std::size_t classes) {
  stats::Matrix rt(classes, classes + 1);
  stats::Matrix io(classes, classes + 1);
  for (std::size_t i = 0; i < classes; ++i) {
    for (std::size_t j = 0; j <= classes; ++j) {
      rt(i, j) = 60.0 + 3.0 * static_cast<double>(i) +
                 static_cast<double>((i * 7 + j * 13) % 23);
      io(i, j) = 40.0 + 2.0 * static_cast<double>(i) +
                 static_cast<double>((i * 11 + j * 5) % 19);
    }
  }
  return TablePredictor(rt, io);
}

/// Exhaustive equivalence: drive one ClusterCounts through a
/// deterministic churn of placements and departures, and at every step
/// compare the indexed lookup against the flat scan for every task,
/// objective, admission policy, and exclude_empty combination. Over the
/// paper's 8 classes, and over 64 synthetic ones: with at most 6 of
/// them live on the 6 machines, the sorted walk skips long runs of
/// unavailable entries and ties.
TEST(CandidateIndex, BestSlotMatchesFlatScanUnderChurn) {
  const TablePredictor predictors[] = {paper_table().oracle_predictor(),
                                       synthetic_predictor(64)};
  for (const TablePredictor& pred : predictors) {
    const std::size_t n = pred.num_apps();
    // One index per objective.
    const CandidateIndex indexes[] = {CandidateIndex(pred, Objective::kRuntime),
                                      CandidateIndex(pred, Objective::kIops)};
    ClusterCounts counts(n, 6);

    PlacementPolicy strict;                    // beneficial joins only
    PlacementPolicy open;
    open.beneficial_joins_only = false;
    const PlacementPolicy policies[] = {strict, open};

    std::uint64_t state = 12345;
    auto next = [&state]() {
      state = state * 6364136223846793005ULL + 1442695040888963407ULL;
      return static_cast<std::size_t>(state >> 33);
    };
    // Explicit fleet mirror (each machine holds <=2 apps), so departures
    // always report the CURRENT co-resident — a neighbour recorded at
    // placement time goes stale once a later task joins the machine.
    std::vector<std::vector<std::size_t>> fleet(6);
    auto machine_with = [&fleet](std::optional<std::size_t> cls) {
      for (std::size_t m = 0; m < fleet.size(); ++m) {
        if (!cls.has_value() && fleet[m].empty()) return m;
        if (cls.has_value() && fleet[m].size() == 1 && fleet[m][0] == *cls)
          return m;
      }
      throw std::logic_error("no machine in the requested class");
    };
    for (int step = 0; step < 400; ++step) {
      // Mutate: mostly place (greedily, onto the flat scan's choice so
      // the states visited are scheduler-realistic), sometimes depart.
      std::size_t occupied = 0;
      for (const auto& m : fleet) occupied += m.size();
      if (occupied > 0 && next() % 3 == 0) {
        std::size_t victim = next() % occupied;
        for (auto& m : fleet) {
          if (victim >= m.size()) {
            victim -= m.size();
            continue;
          }
          std::size_t app = m[victim];
          m.erase(m.begin() + static_cast<long>(victim));
          counts.depart(app, m.empty() ? std::nullopt
                                       : std::optional<std::size_t>{m[0]});
          break;
        }
      } else {
        std::size_t app = next() % n;
        auto slot = mios_best_slot(app, counts, pred, Objective::kRuntime,
                                   open);
        if (slot.has_value()) {
          counts.place(app, *slot);
          fleet[machine_with(*slot)].push_back(app);
        }
      }
      for (std::size_t task = 0; task < n; ++task) {
        for (Objective obj : {Objective::kRuntime, Objective::kIops}) {
          for (const PlacementPolicy& pol : policies) {
            for (bool excl : {false, true}) {
              auto exact = mios_best_slot(task, counts, pred, obj, pol, excl);
              auto fast = mios_best_slot(task, counts, pred, obj, pol, excl,
                                         &indexes[static_cast<int>(obj)]);
              ASSERT_EQ(exact, fast)
                  << n << " classes, step " << step << " task " << task
                  << " obj " << static_cast<int>(obj) << " strict "
                  << pol.beneficial_joins_only << " excl " << excl;
            }
          }
        }
      }
    }
    for (const CandidateIndex& index : indexes)
      EXPECT_EQ(index.rebuilds(), 0u);  // table predictor: epoch never moves
  }
}

/// `pred` with every runtime scaled by `runtime` and every IOPS by
/// `iops`: a deliberately biased model family.
TablePredictor scaled_predictor(const Predictor& pred, double runtime,
                                double iops) {
  const std::size_t n = pred.num_apps();
  stats::Matrix rt(n, n + 1), io(n, n + 1);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b <= n; ++b) {
      std::optional<std::size_t> neighbour;
      if (b < n) neighbour = b;
      rt(a, b) = runtime * pred.predict_runtime(a, neighbour);
      io(a, b) = iops * pred.predict_iops(a, neighbour);
    }
  }
  return TablePredictor(std::move(rt), std::move(io));
}

struct SchedulerCase {
  const char* name;
  std::unique_ptr<Scheduler> (*make)(const Predictor& pred);
  /// Schedule over a fresh three-family confidence ensemble fed by the
  /// run's completions instead of the static oracle table.
  bool ensemble = false;
};

std::unique_ptr<Scheduler> make_fifo(const Predictor&) {
  return std::make_unique<FifoScheduler>(17);
}
std::unique_ptr<Scheduler> make_mios(const Predictor& pred) {
  PlacementPolicy policy;
  policy.beneficial_joins_only = false;  // the core factory's MIOS
  return std::make_unique<MiosScheduler>(pred, Objective::kRuntime, policy);
}
std::unique_ptr<Scheduler> make_mibs(const Predictor& pred) {
  return std::make_unique<MibsScheduler>(pred, Objective::kRuntime);
}
std::unique_ptr<Scheduler> make_mix(const Predictor& pred) {
  return std::make_unique<MixScheduler>(pred, Objective::kIops);
}
std::unique_ptr<Scheduler> make_mix_rt(const Predictor& pred) {
  return std::make_unique<MixScheduler>(pred, Objective::kRuntime);
}

TEST(CandidateIndex, TraconSchedulersOwnAnIndexOverTheirPredictor) {
  // The base's index pointer targets the scheduler's own member, so a
  // copy or a move would leave it dangling.
  static_assert(!std::is_copy_constructible_v<MiosScheduler> &&
                !std::is_move_constructible_v<MiosScheduler>);
  static_assert(!std::is_copy_constructible_v<MibsScheduler> &&
                !std::is_move_constructible_v<MibsScheduler>);
  static_assert(!std::is_copy_constructible_v<MixScheduler> &&
                !std::is_move_constructible_v<MixScheduler>);
  TablePredictor pred = paper_table().oracle_predictor();
  for (auto make : {&make_mios, &make_mibs, &make_mix}) {
    std::unique_ptr<Scheduler> sched = make(pred);
    ASSERT_NE(sched->candidate_index(), nullptr) << sched->name();
    EXPECT_EQ(&sched->candidate_index()->predictor(), &pred) << sched->name();
    EXPECT_EQ(sched->name().find("-IO") != std::string::npos,
              sched->candidate_index()->objective() == Objective::kIops)
        << sched->name();
  }
  EXPECT_EQ(make_fifo(pred)->candidate_index(), nullptr);
}

/// Property test for the determinism contract: every scheduler, over
/// several seeds, produces byte-identical metrics, decision logs, and
/// span logs when placements go through its own candidate index (the
/// default) instead of the flat reference scan — MIX included over a
/// confidence ensemble whose epoch moves on every completion.
TEST(CandidateIndex, DynamicRunsAreByteIdenticalAcrossSchedulersAndSeeds) {
  const sim::PerfTable& table = paper_table();
  TablePredictor pred = table.oracle_predictor();
  TablePredictor pessimist = scaled_predictor(pred, 1.4, 0.7);
  TablePredictor optimist = scaled_predictor(pred, 0.8, 1.25);
  const SchedulerCase cases[] = {{"fifo", &make_fifo},
                                 {"mios", &make_mios},
                                 {"mibs", &make_mibs},
                                 {"mix", &make_mix},
                                 {"mix-confidence", &make_mix_rt, true}};
  for (const SchedulerCase& sc : cases) {
    for (std::uint64_t seed : {3u, 5u, 9u}) {
      sim::DynamicConfig cfg;
      cfg.machines = 12;
      cfg.lambda_per_min = 40.0;
      cfg.duration_s = 1800.0;
      cfg.seed = seed;

      auto run = [&](bool indexed) {
        obs::Telemetry tel;
        tel.decisions.set_enabled(true);
        tel.spans.set_enabled(true);
        sim::DynamicConfig c = cfg;
        c.telemetry = &tel;
        std::optional<ConfidenceWeightedPredictor> ensemble;
        const Predictor* view = &pred;
        if (sc.ensemble) {
          ensemble.emplace(std::vector<ConfidenceWeightedPredictor::Family>{
              {"oracle", &pred},
              {"pessimist", &pessimist},
              {"optimist", &optimist}});
          ensemble->set_metrics(&tel.metrics);
          c.outcome_observer = &*ensemble;
          c.accuracy_probe = &*ensemble;
          c.accuracy_family = "confidence";
          view = &*ensemble;
        }
        std::unique_ptr<Scheduler> sched = sc.make(*view);
        if (!indexed) sched->set_candidate_index(nullptr);
        sched->set_telemetry(&tel);
        sim::DynamicOutcome o = sim::run_dynamic(table, *sched, c);
        if (indexed && sc.ensemble) {
          EXPECT_GE(sched->candidate_index()->rebuilds(), 1u) << seed;
        }
        std::ostringstream all;
        tel.metrics.write_json(all);
        tel.decisions.write(all);
        tel.spans.write(all);
        return std::pair<sim::DynamicOutcome, std::string>(o, all.str());
      };
      auto [exact, exact_bytes] = run(false);
      auto [fast, fast_bytes] = run(true);
      EXPECT_EQ(exact.completed, fast.completed) << sc.name << " " << seed;
      EXPECT_EQ(exact.total_runtime, fast.total_runtime)
          << sc.name << " " << seed;
      EXPECT_EQ(exact.total_iops, fast.total_iops) << sc.name << " " << seed;
      EXPECT_EQ(exact.mean_wait_s, fast.mean_wait_s)
          << sc.name << " " << seed;
      EXPECT_EQ(exact_bytes, fast_bytes) << sc.name << " seed " << seed;
    }
  }
}

TEST(CandidateIndex, StaticRunsMatchTheFlatScan) {
  const sim::PerfTable& table = paper_table();
  TablePredictor pred = table.oracle_predictor();
  PlacementPolicy open;
  open.beneficial_joins_only = false;  // the static scenario's policy
  std::vector<std::size_t> tasks;
  for (std::size_t i = 0; i < 40; ++i) tasks.push_back((i * 5 + 3) % 8);
  for (Objective obj : {Objective::kRuntime, Objective::kIops}) {
    auto run = [&](std::unique_ptr<Scheduler> sched, bool indexed) {
      if (!indexed) sched->set_candidate_index(nullptr);
      return sim::run_static(table, *sched, tasks, 20);
    };
    auto makers = [&](int which) -> std::unique_ptr<Scheduler> {
      if (which == 0) return std::make_unique<MiosScheduler>(pred, obj, open);
      if (which == 1)
        return std::make_unique<MibsScheduler>(pred, obj, 8, 0.0, open);
      return std::make_unique<MixScheduler>(pred, obj, 8, 0.0, open);
    };
    for (int which = 0; which < 3; ++which) {
      sim::StaticOutcome exact = run(makers(which), false);
      sim::StaticOutcome fast = run(makers(which), true);
      EXPECT_EQ(exact.total_runtime, fast.total_runtime) << which;
      EXPECT_EQ(exact.total_iops, fast.total_iops) << which;
      EXPECT_EQ(exact.unplaced, fast.unplaced) << which;
    }
  }
}

ConfidenceWeightedPredictor ensemble(const TablePredictor& a,
                                     const TablePredictor& b) {
  return ConfidenceWeightedPredictor(
      {{"oracle", &a}, {"crafted", &b}});
}

TEST(CandidateIndex, RebuildsWhenTheModelEpochAdvances) {
  TablePredictor a = crafted_predictor();
  TablePredictor b = crafted_predictor_alt();
  ConfidenceWeightedPredictor base = ensemble(a, b);
  const CandidateIndex indexes[] = {CandidateIndex(base, Objective::kRuntime),
                                    CandidateIndex(base, Objective::kIops)};
  ClusterCounts counts(base.num_apps(), 4);
  counts.place(0, std::nullopt);
  counts.place(1, std::nullopt);

  PlacementPolicy open;
  open.beneficial_joins_only = false;
  auto check_all = [&]() {
    for (std::size_t task = 0; task < base.num_apps(); ++task)
      for (Objective obj : {Objective::kRuntime, Objective::kIops})
        ASSERT_EQ(mios_best_slot(task, counts, base, obj, open),
                  mios_best_slot(task, counts, base, obj, open,
                                 /*exclude_empty=*/false,
                                 &indexes[static_cast<int>(obj)]));
  };
  check_all();
  for (const CandidateIndex& index : indexes) EXPECT_EQ(index.rebuilds(), 0u);
  // Skew the windows hard enough to move the blend, then re-verify:
  // the index must rebuild once (per epoch bump observed) and keep
  // matching the flat scan over the new predictions.
  for (int i = 0; i < 8; ++i) base.on_completion(2, 0, 60.0, 150.0);
  check_all();
  for (const CandidateIndex& index : indexes) EXPECT_GE(index.rebuilds(), 1u);
}

}  // namespace
}  // namespace tracon::sched
