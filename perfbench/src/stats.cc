#include "stats.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

double percentile(std::vector<double> values, double pct) {
  if (values.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(pct > 0.0 && pct <= 100.0)) {
    throw std::invalid_argument("percentile outside (0, 100]");
  }
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(pct / 100.0 * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

pob::scale::PhaseTimings phase_delta(const pob::scale::PhaseTimings& before,
                                     const pob::scale::PhaseTimings& after) {
  return {after.generate_seconds - before.generate_seconds,
          after.merge_seconds - before.merge_seconds,
          after.apply_seconds - before.apply_seconds};
}

double driver_self_seconds(double step_seconds, const pob::scale::PhaseTimings& phases) {
  return step_seconds - phases.generate_seconds - phases.merge_seconds -
         phases.apply_seconds;
}

}  // namespace perfbench
