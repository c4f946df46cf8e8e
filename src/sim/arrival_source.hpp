// Arrival-stream abstraction for the dynamic scenario.
//
// The dynamic engine consumes a time-sorted arrival stream, fed in
// chunks, and an ArrivalSource is anything that hands one over that
// way: each fill() pulls the next chunk, and a pulled arrival is gone.
// PoissonStream draws the paper's Poisson/mix stream lazily;
// MixShiftArrivalSource switches between two of them at an instant;
// src/replay adds TraceArrivalSource, which replays a recorded JSONL
// arrival trace byte-for-byte so the same historical workload can be
// driven through different schedulers (A/B on real traces), and
// RecordingArrivalSource, which writes what it pulls to a trace.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "util/rng.hpp"
#include "workload/mixes.hpp"

namespace tracon::sim {

/// One externally supplied task arrival.
struct Arrival {
  double time_s = 0.0;
  std::size_t app = 0;
};

/// A time-sorted arrival stream, pulled chunk by chunk. Single-pass:
/// an arrival once pulled is not pulled again.
class ArrivalSource {
 public:
  virtual ~ArrivalSource() = default;

  /// Writes the stream's next arrivals to the front of `out`, in time
  /// order, and returns how many; fewer than out.size() only once the
  /// stream has ended.
  virtual std::size_t fill(std::span<Arrival> out) = 0;
};

/// The paper's arrival model drawn lazily: a Poisson process with rate
/// lambda per minute whose task classes are drawn from a Gaussian-rank
/// workload mix, up to the horizon. This is the one implementation of
/// its draw order — a gap, then a class, then the next gap — so the
/// stream is the same however it is pulled, and deterministic given
/// the seed. It holds the generator and the next arrival's time.
class PoissonStream final : public ArrivalSource {
 public:
  PoissonStream(double lambda_per_min, double duration_s,
                workload::MixKind mix, double mix_stddev, std::uint64_t seed);

  /// The next arrival before the horizon; nullopt once the stream ends.
  std::optional<Arrival> next();

  std::size_t fill(std::span<Arrival> out) override;

 private:
  Rng rng_;
  double rate_per_s_;
  double duration_s_;
  workload::MixKind mix_;
  double mix_stddev_;
  double next_s_;  ///< time of the next arrival, drawn ahead
};

/// Drift scenario driver: Poisson arrivals whose workload mix switches
/// from `before` to `after` at `shift_time_s`. It holds two independent
/// Poisson streams (seed and seed+1) and yields the first one's
/// arrivals before the shift, then the second one's from the shift on,
/// so the stream stays deterministic given the seed and either segment
/// matches a plain PoissonStream of its mix. This is the workload that
/// exposes time-varying prediction error: a model family tuned on the
/// pre-shift mix degrades after the shift, which windowed accuracy sees
/// and cumulative histograms blur.
class MixShiftArrivalSource final : public ArrivalSource {
 public:
  MixShiftArrivalSource(double lambda_per_min, double duration_s,
                        double shift_time_s, workload::MixKind before,
                        workload::MixKind after, double mix_stddev,
                        std::uint64_t seed);

  std::size_t fill(std::span<Arrival> out) override;

 private:
  PoissonStream before_;
  PoissonStream after_;
  double shift_time_s_;
  bool shifted_ = false;  ///< `before_` has reached the shift
};

}  // namespace tracon::sim
