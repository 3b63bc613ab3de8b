#include "pob/exp/sweep.h"

#include <vector>

#include "pob/exp/table.h"

namespace pob {

TrialStats aggregate_trials(std::span<const TrialOutcome> outcomes) {
  TrialStats stats;
  stats.runs = static_cast<std::uint32_t>(outcomes.size());
  std::vector<double> completions;
  std::vector<double> means;
  completions.reserve(outcomes.size());
  means.reserve(outcomes.size());
  for (const TrialOutcome& outcome : outcomes) {
    if (!outcome.completed) {
      ++stats.censored;
      continue;
    }
    completions.push_back(outcome.completion);
    means.push_back(outcome.mean_completion);
  }
  stats.completion = summarize(completions);
  stats.mean_completion = summarize(means);
  return stats;
}

TrialStats repeat_trials(std::uint32_t runs,
                         const std::function<TrialOutcome(std::uint32_t)>& trial) {
  std::vector<TrialOutcome> outcomes;
  outcomes.reserve(runs);
  for (std::uint32_t i = 0; i < runs; ++i) outcomes.push_back(trial(i));
  return aggregate_trials(outcomes);
}

std::string completion_cell(const TrialStats& stats, double cap, int precision) {
  if (stats.all_censored()) {
    std::string cell = ">";
    cell += fmt(cap, 0);
    cell += " (censored)";
    return cell;
  }
  std::string cell = fmt_ci(stats.completion.mean, stats.completion.ci95, precision);
  if (stats.censored > 0) {
    cell += " [" + std::to_string(stats.censored) + "/" + std::to_string(stats.runs) +
            " censored]";
  }
  return cell;
}

}  // namespace pob
