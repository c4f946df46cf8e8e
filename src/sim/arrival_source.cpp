#include "sim/arrival_source.hpp"

#include "util/error.hpp"

namespace tracon::sim {

PoissonStream::PoissonStream(double lambda_per_min, double duration_s,
                             workload::MixKind mix, double mix_stddev,
                             std::uint64_t seed, std::size_t num_apps)
    : rng_(seed),
      rate_per_s_(lambda_per_min / 60.0),
      duration_s_(duration_s),
      mix_(mix),
      mix_stddev_(mix_stddev),
      num_apps_(num_apps) {
  TRACON_REQUIRE(lambda_per_min > 0.0, "lambda must be positive");
  TRACON_REQUIRE(duration_s > 0.0, "duration must be positive");
  TRACON_REQUIRE(num_apps > 0, "need at least one application class");
  next_s_ = rng_.exponential(rate_per_s_);
}

std::optional<Arrival> PoissonStream::next() {
  if (!(next_s_ < duration_s_)) return std::nullopt;
  std::size_t app = workload::sample_benchmark_index(mix_, rng_, mix_stddev_);
  TRACON_ASSERT(app < num_apps_, "sampled app out of range");
  const Arrival a{next_s_, app};
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

PoissonArrivalSource::PoissonArrivalSource(double lambda_per_min,
                                           double duration_s,
                                           workload::MixKind mix,
                                           double mix_stddev,
                                           std::uint64_t seed)
    : lambda_per_min_(lambda_per_min),
      duration_s_(duration_s),
      mix_(mix),
      mix_stddev_(mix_stddev),
      seed_(seed) {
  TRACON_REQUIRE(lambda_per_min > 0.0, "lambda must be positive");
  TRACON_REQUIRE(duration_s > 0.0, "duration must be positive");
}

std::vector<Arrival> PoissonArrivalSource::arrivals(std::size_t num_apps) {
  PoissonStream stream(lambda_per_min_, duration_s_, mix_, mix_stddev_, seed_,
                       num_apps);
  std::vector<Arrival> out;
  while (std::optional<Arrival> a = stream.next()) out.push_back(*a);
  return out;
}

MixShiftArrivalSource::MixShiftArrivalSource(double lambda_per_min,
                                             double duration_s,
                                             double shift_time_s,
                                             workload::MixKind before,
                                             workload::MixKind after,
                                             double mix_stddev,
                                             std::uint64_t seed)
    : lambda_per_min_(lambda_per_min),
      duration_s_(duration_s),
      shift_time_s_(shift_time_s),
      before_(before),
      after_(after),
      mix_stddev_(mix_stddev),
      seed_(seed) {
  TRACON_REQUIRE(lambda_per_min > 0.0, "lambda must be positive");
  TRACON_REQUIRE(duration_s > 0.0, "duration must be positive");
  TRACON_REQUIRE(shift_time_s > 0.0 && shift_time_s < duration_s,
                 "mix shift must fall inside the run");
}

std::vector<Arrival> MixShiftArrivalSource::arrivals(std::size_t num_apps) {
  PoissonArrivalSource head(lambda_per_min_, duration_s_, before_,
                            mix_stddev_, seed_);
  PoissonArrivalSource tail(lambda_per_min_, duration_s_, after_, mix_stddev_,
                            seed_ + 1);
  std::vector<Arrival> out;
  for (const Arrival& a : head.arrivals(num_apps)) {
    if (a.time_s >= shift_time_s_) break;
    out.push_back(a);
  }
  for (const Arrival& a : tail.arrivals(num_apps)) {
    if (a.time_s < shift_time_s_) continue;
    out.push_back(a);
  }
  return out;
}

}  // namespace tracon::sim
