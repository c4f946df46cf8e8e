// Arrival-stream abstraction for the dynamic scenario.
//
// The dynamic engine consumes a time-sorted arrival stream, fed in
// chunks. PoissonStream draws the paper's Poisson/mix stream lazily,
// one arrival at a time; an ArrivalSource is anything that can
// materialize a whole stream as a list. PoissonArrivalSource drains a
// PoissonStream; src/replay adds TraceArrivalSource, which replays a
// recorded JSONL arrival trace byte-for-byte so the same historical
// workload can be driven through different schedulers (A/B on real
// traces).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "util/rng.hpp"
#include "workload/mixes.hpp"

namespace tracon::sim {

/// One externally supplied task arrival.
struct Arrival {
  double time_s = 0.0;
  std::size_t app = 0;
};

/// The paper's arrival model drawn lazily: a Poisson process with rate
/// lambda per minute whose task classes are drawn from a Gaussian-rank
/// workload mix. This is the one implementation of its draw order — a
/// gap, then a class, then the next gap — so a stream pulled in chunks
/// of any size is the stream PoissonArrivalSource materializes. It
/// holds the generator and the next arrival's time, never the stream.
class PoissonStream {
 public:
  PoissonStream(double lambda_per_min, double duration_s,
                workload::MixKind mix, double mix_stddev, std::uint64_t seed,
                std::size_t num_apps);

  /// The next arrival before the horizon; nullopt once the stream ends.
  std::optional<Arrival> next();

  /// Writes the next arrivals to the front of `out` and returns how
  /// many; fewer than out.size() only when the stream has ended.
  std::size_t fill(std::span<Arrival> out);

 private:
  Rng rng_;
  double rate_per_s_;
  double duration_s_;
  workload::MixKind mix_;
  double mix_stddev_;
  std::size_t num_apps_;
  double next_s_;  ///< time of the next arrival, drawn ahead
};

class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Materializes the full arrival stream, sorted by time. `num_apps`
  /// is the size of the application-class universe; every returned
  /// arrival's app index must be < num_apps.
  virtual std::vector<Arrival> arrivals(std::size_t num_apps) = 0;

  /// Short label for logs and run fingerprints ("poisson", "trace").
  virtual std::string name() const = 0;
};

/// The paper's arrival model as a list: PoissonStream drained.
/// Deterministic given the seed.
class PoissonArrivalSource final : public ArrivalSource {
 public:
  PoissonArrivalSource(double lambda_per_min, double duration_s,
                       workload::MixKind mix, double mix_stddev,
                       std::uint64_t seed);

  std::vector<Arrival> arrivals(std::size_t num_apps) override;
  std::string name() const override { return "poisson"; }

 private:
  double lambda_per_min_;
  double duration_s_;
  workload::MixKind mix_;
  double mix_stddev_;
  std::uint64_t seed_;
};

/// Drift scenario driver: Poisson arrivals whose workload mix switches
/// from `before` to `after` at `shift_time_s`. The two segments are
/// drawn from independent Poisson streams (seed and seed+1) and
/// concatenated at the shift, so the stream stays deterministic given
/// the seed and either segment matches a plain PoissonArrivalSource of
/// its mix. This is the workload that exposes time-varying prediction
/// error: a model family tuned on the pre-shift mix degrades after the
/// shift, which windowed accuracy sees and cumulative histograms blur.
class MixShiftArrivalSource final : public ArrivalSource {
 public:
  MixShiftArrivalSource(double lambda_per_min, double duration_s,
                        double shift_time_s, workload::MixKind before,
                        workload::MixKind after, double mix_stddev,
                        std::uint64_t seed);

  std::vector<Arrival> arrivals(std::size_t num_apps) override;
  std::string name() const override { return "mix_shift"; }

 private:
  double lambda_per_min_;
  double duration_s_;
  double shift_time_s_;
  workload::MixKind before_;
  workload::MixKind after_;
  double mix_stddev_;
  std::uint64_t seed_;
};

}  // namespace tracon::sim
