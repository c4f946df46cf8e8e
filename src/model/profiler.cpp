#include "model/profiler.hpp"

#include <set>
#include <string_view>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace tracon::model {

std::uint64_t Profiler::run_seed(const std::string& a,
                                 const std::string& b) const {
  std::uint64_t h = seed_;
  // FNV-style mixing keeps runs deterministic per (seed, fg, bg) triple.
  for (char c : a) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  h = (h ^ 0x7c) * 0x100000001b3ULL;
  for (char c : b) h = (h ^ static_cast<std::uint64_t>(c)) * 0x100000001b3ULL;
  return h == 0 ? 1 : h;
}

virt::VmRunStats Profiler::run_solo(const virt::AppBehavior& app) const {
  virt::VmRunStats stats;
  if (app.is_idle()) {
    // An idle "workload" contributes nothing; synthesize empty stats.
    stats.present = true;
    stats.completed = true;
    return stats;
  }
  stats = sim_.solo(app, run_seed(app.name, "<solo>"));
  TRACON_ASSERT(stats.completed, "solo run did not complete");
  return stats;
}

virt::PairMeasurement Profiler::run_pair(
    const virt::AppBehavior& target,
    const virt::AppBehavior& background) const {
  return sim_.measure_pair(target, background,
                           run_seed(target.name, background.name));
}

const virt::VmRunStats& Profiler::solo_stats(const virt::AppBehavior& app) {
  auto it = solo_cache_.find(app.name);
  if (it != solo_cache_.end()) return it->second;
  return solo_cache_.emplace(app.name, run_solo(app)).first->second;
}

monitor::AppProfile Profiler::solo_profile(const virt::AppBehavior& app) {
  return monitor::AppProfile::from_run_stats(solo_stats(app));
}

virt::PairMeasurement Profiler::measure(const virt::AppBehavior& target,
                                        const virt::AppBehavior& background) {
  if (background.is_idle()) {
    const virt::VmRunStats& solo = solo_stats(target);
    return {solo.runtime_s, solo.iops, solo.reads_per_s, solo.writes_per_s};
  }
  return run_pair(target, background);
}

std::vector<virt::PairMeasurement> Profiler::measure_all(
    std::span<const virt::AppBehavior> targets,
    std::span<const virt::AppBehavior> backgrounds, std::size_t threads) {
  // Each app without a cached solo run, once.
  std::vector<const virt::AppBehavior*> uncached;
  std::set<std::string_view> named;
  for (std::span<const virt::AppBehavior> apps : {targets, backgrounds}) {
    for (const virt::AppBehavior& app : apps) {
      if (!solo_cache_.contains(app.name) && named.insert(app.name).second)
        uncached.push_back(&app);
    }
  }
  const std::size_t cols = backgrounds.size();
  std::vector<virt::VmRunStats> solo(uncached.size());
  std::vector<virt::PairMeasurement> measured(targets.size() * cols);
  // Items [0, uncached) are the solo runs, the rest one per pair. No
  // item reads the cache, so the pairs need not wait for the solo runs.
  parallel_for(threads, solo.size() + measured.size(), [&](std::size_t i) {
    if (i < solo.size()) {
      solo[i] = run_solo(*uncached[i]);
      return;
    }
    const std::size_t k = i - solo.size();
    if (!backgrounds[k % cols].is_idle())
      measured[k] = run_pair(targets[k / cols], backgrounds[k % cols]);
  });
  for (std::size_t i = 0; i < solo.size(); ++i)
    solo_cache_.emplace(uncached[i]->name, solo[i]);
  for (std::size_t k = 0; k < measured.size(); ++k) {
    if (backgrounds[k % cols].is_idle())
      measured[k] = measure(targets[k / cols], backgrounds[k % cols]);
  }
  return measured;
}

TrainingSet Profiler::training_set(
    const virt::AppBehavior& target,
    std::span<const virt::AppBehavior> backgrounds,
    std::span<const virt::PairMeasurement> measured, bool include_idle) {
  TRACON_REQUIRE(measured.size() == backgrounds.size(),
                 "a training set needs one measurement per background");
  TrainingSet ts;
  monitor::AppProfile fg = solo_profile(target);
  if (include_idle) {
    const virt::VmRunStats& solo = solo_stats(target);
    ts.add(fg, monitor::AppProfile::idle(), solo.runtime_s, solo.iops);
  }
  for (std::size_t b = 0; b < backgrounds.size(); ++b)
    ts.add(fg, solo_profile(backgrounds[b]), measured[b].runtime_s,
           measured[b].iops);
  return ts;
}

TrainingSet Profiler::profile_against(
    const virt::AppBehavior& target,
    std::span<const virt::AppBehavior> backgrounds, bool include_idle) {
  const std::span<const virt::AppBehavior> one(&target, 1);
  return training_set(target, backgrounds, measure_all(one, backgrounds),
                      include_idle);
}

}  // namespace tracon::model
