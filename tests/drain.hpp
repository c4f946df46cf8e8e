// The one way a test turns an arrival source into a list: pull it to
// its end.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/arrival_source.hpp"

namespace tracon::test {

/// Pulls `source` to its end, `chunk` arrivals at a time, and returns
/// every arrival, in order.
inline std::vector<sim::Arrival> drain(sim::ArrivalSource& source,
                                       std::size_t chunk = 4096) {
  std::vector<sim::Arrival> all;
  std::vector<sim::Arrival> buf(chunk);
  for (std::size_t got = chunk; got == chunk;) {
    got = source.fill(buf);
    all.insert(all.end(), buf.begin(), buf.begin() + static_cast<long>(got));
  }
  return all;
}

}  // namespace tracon::test
