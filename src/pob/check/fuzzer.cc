#include "pob/check/fuzzer.h"

#include <algorithm>

#include "pob/exp/parallel.h"
#include "pob/exp/sweep.h"

namespace pob::check {
namespace {

constexpr std::uint32_t kMaxReportedFailures = 32;
constexpr std::uint32_t kMinimizeBudget = 400;  // scenario runs, not mutations

std::uint64_t fnv1a(std::uint64_t h, const std::string& s) {
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FuzzReport fuzz_many(std::uint64_t base_seed, std::uint32_t budget, unsigned jobs,
                     FaultKind fault, EngineFilter engines) {
  FuzzReport report;
  report.budget = budget;
  if (budget == 0) return report;

  // Index-addressed slots: each trial writes only its own entry, and all
  // aggregation below happens serially in index order, so the report is
  // bit-identical at any job count.
  std::vector<Scenario> scenarios(budget);
  std::vector<ScenarioOutcome> outcomes(budget);
  const auto trial = [&](std::uint32_t i) {
    Scenario sc = sample_scenario(base_seed, i);
    sc.fault = fault;
    if (engines != EngineFilter::kMixed) {
      sc.engine = engines == EngineFilter::kCoreOnly ? EngineKind::kCore
                                                     : EngineKind::kScale;
      if (engines == EngineFilter::kStreamOnly && !sc.stream) {
        // The sampler did not take the stream branch for this index, so its
        // stream fields are still defaults; derive them from the scenario
        // seed so a forced stream run sweeps the pattern space too.
        sc.arrival_pattern =
            static_cast<scale::stream::ArrivalPattern>(sc.seed % 4);
        sc.rate_class_count =
            (sc.seed >> 2) % 2 == 0 ? 0 : 2 + static_cast<std::uint32_t>((sc.seed >> 3) % 2);
        sc.rate_changes = static_cast<std::uint32_t>((sc.seed >> 5) % 9);
        sc.playback_window =
            (sc.seed >> 8) % 2 == 0 ? 0 : 1 + static_cast<std::uint32_t>((sc.seed >> 9) % 8);
        sc.startup_blocks = 1 + static_cast<std::uint32_t>((sc.seed >> 13) % 4);
        sc.playback_interval = 1 + static_cast<Tick>((sc.seed >> 15) % 2);
        sc.hard_deadlines = ((sc.seed >> 16) & 1) != 0;
      }
      sc.stream = engines == EngineFilter::kStreamOnly;
      if (sc.stream && sc.n > 512) sc.n = 4 + sc.n % 509;  // mirror-affordable
      sanitize(sc);  // the forced engine has its own legal space
    }
    scenarios[i] = sc;
    outcomes[i] = run_scenario(sc);
    TrialOutcome out;
    out.completed = outcomes[i].ok;
    out.completion = 1.0;
    out.mean_completion = 1.0;
    return out;
  };
  repeat_trials_parallel(budget, jobs, trial);

  std::uint64_t digest = 0xcbf29ce484222325ULL;
  for (std::uint32_t i = 0; i < budget; ++i) {
    digest = fnv1a(digest, scenarios[i].describe());
    digest = fnv1a(digest, outcomes[i].ok ? "ok" : outcomes[i].diagnosis);
    if (!outcomes[i].ok) {
      ++report.failed;
      if (report.failures.size() < kMaxReportedFailures) {
        report.failures.push_back({i, scenarios[i], outcomes[i].diagnosis});
      }
    }
  }
  report.stream_digest = digest;
  return report;
}

MinimizedScenario minimize(const Scenario& failing) {
  MinimizedScenario m;
  m.scenario = failing;
  m.diagnosis = run_scenario(failing).diagnosis;
  ++m.steps_tried;

  // Accepts the candidate iff (after re-sanitizing) it is a genuinely new
  // scenario that still fails.
  const auto still_fails = [&](Scenario cand) {
    sanitize(cand);
    if (cand.describe() == m.scenario.describe()) return false;
    if (m.steps_tried >= kMinimizeBudget) return false;
    ++m.steps_tried;
    const ScenarioOutcome out = run_scenario(cand);
    if (out.ok) return false;
    m.scenario = cand;
    m.diagnosis = out.diagnosis;
    return true;
  };

  bool progress = true;
  while (progress && m.steps_tried < kMinimizeBudget) {
    progress = false;

    // Structural simplifications first: each one that sticks removes a whole
    // dimension from the search the numeric shrinks below have to do.
    {
      Scenario c = m.scenario;
      c.departures.clear();
      c.depart_on_complete = false;
      c.drop_on_churn = false;
      if (still_fails(c)) progress = true;
    }
    while (!m.scenario.departures.empty()) {
      Scenario c = m.scenario;
      c.departures.pop_back();
      if (!still_fails(c)) break;
      progress = true;
    }
    {
      Scenario c = m.scenario;
      c.upload_caps.clear();
      c.download_caps.clear();
      if (still_fails(c)) progress = true;
    }
    // Stream axis: strip one feature at a time (deadlines, sequential
    // window, rate churn, classes, the arrival pattern) before trying to
    // leave the stream layer entirely.
    if (m.scenario.stream) {
      for (const auto mutate : {
               +[](Scenario& c) { c.hard_deadlines = false; },
               +[](Scenario& c) { c.playback_window = 0; },
               +[](Scenario& c) { c.rate_changes = 0; },
               +[](Scenario& c) { c.rate_class_count = 0; },
               +[](Scenario& c) {
                 c.arrival_pattern = scale::stream::ArrivalPattern::kAllAtStart;
               },
               +[](Scenario& c) { c.stream = false; },
           }) {
        Scenario c = m.scenario;
        mutate(c);
        if (still_fails(c)) progress = true;
      }
    }
    if (m.scenario.overlay != OverlayKind::kComplete) {
      Scenario c = m.scenario;
      c.overlay = OverlayKind::kComplete;
      if (still_fails(c)) progress = true;
    }
    if (m.scenario.mechanism.kind != MechanismSpec::Kind::kNone) {
      Scenario c = m.scenario;
      c.mechanism.kind = MechanismSpec::Kind::kNone;
      if (still_fails(c)) progress = true;
    }
    {
      Scenario c = m.scenario;
      c.download = kUnlimited;
      if (still_fails(c)) progress = true;
    }
    {
      Scenario c = m.scenario;
      c.upload = 1;
      c.server_upload = 0;
      if (still_fails(c)) progress = true;
    }

    // Numeric shrinks: halve toward the floor, then single steps.
    while (m.scenario.n > 2) {
      Scenario c = m.scenario;
      c.n = std::max(2u, c.n / 2);
      if (!still_fails(c)) break;
      progress = true;
    }
    while (m.scenario.n > 2) {
      Scenario c = m.scenario;
      --c.n;
      if (!still_fails(c)) break;
      progress = true;
    }
    while (m.scenario.k > 1) {
      Scenario c = m.scenario;
      c.k = std::max(1u, c.k / 2);
      if (!still_fails(c)) break;
      progress = true;
    }
    while (m.scenario.k > 1) {
      Scenario c = m.scenario;
      --c.k;
      if (!still_fails(c)) break;
      progress = true;
    }
    for (auto dim : {&Scenario::arity, &Scenario::stripes, &Scenario::servers,
                     &Scenario::degree}) {
      while (m.scenario.*dim > 2) {
        Scenario c = m.scenario;
        --(c.*dim);
        if (!still_fails(c)) break;
        progress = true;
      }
    }
    while (m.scenario.period > 2) {
      Scenario c = m.scenario;
      c.period /= 2;
      if (!still_fails(c)) break;
      progress = true;
    }
  }
  return m;
}

}  // namespace pob::check
