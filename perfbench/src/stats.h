// Order statistics and tick-phase bookkeeping for the benchmark's reports.

#pragma once

#include <vector>

#include "pob/scale/engine.h"

namespace perfbench {

/// The median of `values` (mean of the two middle values for an even
/// count). Throws std::invalid_argument on an empty input.
double median(std::vector<double> values);

/// The nearest-rank percentile: the smallest value with at least `pct`
/// percent of the samples at or below it (pct in (0, 100]). Throws
/// std::invalid_argument on an empty input or a pct outside that range.
double percentile(std::vector<double> values, double pct);

/// The engine-phase seconds one tick (or one stretch of ticks) spent: the
/// difference of two readings of Engine::phase_timings(), which accumulate
/// across a lockstep drive.
pob::scale::PhaseTimings phase_delta(const pob::scale::PhaseTimings& before,
                                     const pob::scale::PhaseTimings& after);

/// The seconds a step() span holds outside the three engine phases: the
/// departure loop head and the phase timer reads. Pool dispatch and the
/// scheduler's serial begin_tick hook run inside the timed phases, so their
/// cost shows in generate, merge and apply.
double driver_self_seconds(double step_seconds, const pob::scale::PhaseTimings& phases);

}  // namespace perfbench
