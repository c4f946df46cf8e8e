// Application profiling: drives the host simulator to produce solo
// profiles and interference training sets, as the paper does on its Xen
// testbed ("we generate its interference profile by running it on VM1
// while varying the workloads on VM2").
#pragma once

#include <map>
#include <span>
#include <string>
#include <vector>

#include "model/training.hpp"
#include "monitor/profile.hpp"
#include "virt/host_sim.hpp"

namespace tracon::model {

class Profiler {
 public:
  explicit Profiler(virt::HostSimulator sim, std::uint64_t seed = 42)
      : sim_(std::move(sim)), seed_(seed) {}

  const virt::HostSimulator& simulator() const { return sim_; }

  /// Solo run statistics for an app; cached by application name.
  const virt::VmRunStats& solo_stats(const virt::AppBehavior& app);

  /// Solo application profile (the model's controlled variables).
  monitor::AppProfile solo_profile(const virt::AppBehavior& app);

  /// Measures each of `targets` next to each of `backgrounds`, as
  /// measure() does: targets.size() rows of backgrounds.size()
  /// measurements. The solo run of every app named that is not cached
  /// yet and every co-located run are the items of one parallel_for on
  /// up to `threads` workers, each writing only its own slot; the solo
  /// runs enter the cache after the join. Each run is seeded by its own
  /// (seed, foreground, background) names alone, so neither the result
  /// nor the cache depends on `threads`.
  std::vector<virt::PairMeasurement> measure_all(
      std::span<const virt::AppBehavior> targets,
      std::span<const virt::AppBehavior> backgrounds,
      std::size_t threads = 1);

  /// The training set of `target` from `measured`, its measurements
  /// next to `backgrounds` in order (a row of measure_all): one row per
  /// background, after the idle baseline when `include_idle`. Rows
  /// carry (target solo profile, background solo profile) as features
  /// and the measured runtime / IOPS under co-location as responses.
  TrainingSet training_set(const virt::AppBehavior& target,
                           std::span<const virt::AppBehavior> backgrounds,
                           std::span<const virt::PairMeasurement> measured,
                           bool include_idle = true);

  /// Builds the training set for `target`: one co-located measurement
  /// per background (plus the idle baseline when `include_idle`).
  TrainingSet profile_against(
      const virt::AppBehavior& target,
      std::span<const virt::AppBehavior> backgrounds,
      bool include_idle = true);

  /// One co-located measurement (also used for ground-truth tables).
  virt::PairMeasurement measure(const virt::AppBehavior& target,
                                const virt::AppBehavior& background);

 private:
  std::uint64_t run_seed(const std::string& a, const std::string& b) const;
  /// The solo run behind solo_stats, uncached.
  virt::VmRunStats run_solo(const virt::AppBehavior& app) const;
  /// The co-located run behind measure, next to a non-idle background.
  virt::PairMeasurement run_pair(const virt::AppBehavior& target,
                                 const virt::AppBehavior& background) const;

  virt::HostSimulator sim_;
  std::uint64_t seed_;
  std::map<std::string, virt::VmRunStats> solo_cache_;
};

}  // namespace tracon::model
