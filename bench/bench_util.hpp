// Timing plumbing shared by the benches: the median and quartiles of
// repeated samples, and the LPT model that prices a sharded run from its
// measured serial leaf times.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <vector>

namespace genio::bench {

struct Spread {
  double median = 0, q1 = 0, q3 = 0;
};

/// Median and quartiles (nearest rank) of a non-empty sample.
inline Spread spread(std::vector<double> xs) {
  std::sort(xs.begin(), xs.end());
  const auto at = [&](double q) {
    return xs[static_cast<std::size_t>(q * static_cast<double>(xs.size() - 1) + 0.5)];
  };
  return {at(0.5), at(0.25), at(0.75)};
}

/// LPT-greedy makespan: each leaf, longest first, goes to the least-loaded
/// of `workers` identical workers (at least one). This is the modeled wall
/// clock of a sharded run on a w-way host.
inline double lpt_makespan(std::vector<double> leaves, std::size_t workers) {
  std::sort(leaves.begin(), leaves.end(), std::greater<>());
  std::vector<double> load(std::max<std::size_t>(workers, 1), 0.0);
  for (const double leaf : leaves) {
    *std::min_element(load.begin(), load.end()) += leaf;
  }
  return *std::max_element(load.begin(), load.end());
}

}  // namespace genio::bench
