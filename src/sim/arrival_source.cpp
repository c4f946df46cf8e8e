#include "sim/arrival_source.hpp"

#include "util/error.hpp"

namespace tracon::sim {

PoissonStream::PoissonStream(double lambda_per_min, double duration_s,
                             workload::MixKind mix, double mix_stddev,
                             std::uint64_t seed)
    : rng_(seed),
      rate_per_s_(lambda_per_min / 60.0),
      duration_s_(duration_s),
      mix_(mix),
      mix_stddev_(mix_stddev) {
  TRACON_REQUIRE(lambda_per_min > 0.0, "lambda must be positive");
  TRACON_REQUIRE(duration_s > 0.0, "duration must be positive");
  next_s_ = rng_.exponential(rate_per_s_);
}

std::optional<Arrival> PoissonStream::next() {
  if (!(next_s_ < duration_s_)) return std::nullopt;
  const Arrival a{next_s_,
                  workload::sample_benchmark_index(mix_, rng_, mix_stddev_)};
  next_s_ += rng_.exponential(rate_per_s_);
  return a;
}

std::size_t PoissonStream::fill(std::span<Arrival> out) {
  std::size_t filled = 0;
  while (filled < out.size()) {
    std::optional<Arrival> a = next();
    if (!a.has_value()) break;
    out[filled++] = *a;
  }
  return filled;
}

MixShiftArrivalSource::MixShiftArrivalSource(double lambda_per_min,
                                             double duration_s,
                                             double shift_time_s,
                                             workload::MixKind before,
                                             workload::MixKind after,
                                             double mix_stddev,
                                             std::uint64_t seed)
    : before_(lambda_per_min, duration_s, before, mix_stddev, seed),
      after_(lambda_per_min, duration_s, after, mix_stddev, seed + 1),
      shift_time_s_(shift_time_s) {
  TRACON_REQUIRE(shift_time_s > 0.0 && shift_time_s < duration_s,
                 "mix shift must fall inside the run");
}

std::size_t MixShiftArrivalSource::fill(std::span<Arrival> out) {
  std::size_t filled = 0;
  while (filled < out.size()) {
    std::optional<Arrival> a;
    if (!shifted_) {
      a = before_.next();
      shifted_ = !a.has_value() || a->time_s >= shift_time_s_;
    }
    if (shifted_) {
      do {
        a = after_.next();
      } while (a.has_value() && a->time_s < shift_time_s_);
      if (!a.has_value()) break;
    }
    out[filled++] = *a;
  }
  return filled;
}

}  // namespace tracon::sim
