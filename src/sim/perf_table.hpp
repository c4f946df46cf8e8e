// Measured pairwise performance table — the data-center simulator's
// ground truth.
//
// As in the paper ("We measure the real effects of interference and use
// the measured data for simulation"), every ordered application pair is
// measured once on the host simulator: the foreground runs to completion
// while the background runs continuously. The cluster simulator replays
// these measurements; the schedulers only ever see model predictions.
#pragma once

#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "model/profiler.hpp"
#include "monitor/profile.hpp"
#include "sched/predictor.hpp"
#include "virt/app_behavior.hpp"

namespace tracon::sim {

class PerfTable {
 public:
  /// Measures all pairs of `apps` (and each solo) via the profiler.
  static PerfTable build(model::Profiler& profiler,
                         const std::vector<virt::AppBehavior>& apps);

  /// The same table from pair measurements already taken: apps[a] next
  /// to apps[b] at measured[a * stride + b], as a Profiler::measure_all
  /// whose backgrounds start with `apps` lays them out. The profiles and
  /// the solo column are the profiler's solo runs.
  static PerfTable build(model::Profiler& profiler,
                         const std::vector<virt::AppBehavior>& apps,
                         std::span<const virt::PairMeasurement> measured,
                         std::size_t stride);

  std::size_t num_apps() const { return names_.size(); }
  const std::string& app_name(std::size_t a) const;
  const monitor::AppProfile& profile(std::size_t a) const;

  double solo_runtime(std::size_t a) const;
  double solo_iops(std::size_t a) const;

  /// Runtime / average IOPS of `a` while `b` runs continuously beside it
  /// (nullopt b = idle neighbour = solo).
  double runtime(std::size_t a, const std::optional<std::size_t>& b) const;
  double iops(std::size_t a, const std::optional<std::size_t>& b) const;

  /// Progress speed of `a` next to `b`, relative to solo (<= ~1).
  double speed(std::size_t a, const std::optional<std::size_t>& b) const;

  /// Ground-truth predictor (oracle scheduling ablation).
  sched::TablePredictor oracle_predictor() const;

  /// Persists the table (names, profiles, both matrices) as CSV so the
  /// profiling phase can be skipped on later runs.
  void save_csv(std::ostream& os) const;

  /// Parses a table written by save_csv. Throws std::invalid_argument
  /// on malformed input.
  static PerfTable load_csv(std::istream& is);

 private:
  std::vector<std::string> names_;
  std::vector<monitor::AppProfile> profiles_;
  stats::Matrix runtime_;  ///< num_apps x (num_apps+1); last col = solo
  stats::Matrix iops_;
};

}  // namespace tracon::sim
