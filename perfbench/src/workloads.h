// The benchmark's workloads and the runs made on them.
//
// A run without tracing measures the end-to-end metrics: it sets up and runs
// swarms of the workload through Engine::run / StreamEngine::run, each in a
// process of its own, for the requested number of seconds and reports
// medians. A traced run gives the per-layer metrics: it drives one swarm a
// tick at a time through Engine::step, records a span per set-up call and per
// tick (with the engine phases as child spans, read as deltas of
// Engine::phase_timings()), audits every transfer, and writes the spans out
// when it ends. Every result is checked against pinned outputs and seed-free
// invariants; a mismatch counts as a failed run.

#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

struct RunSettings {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

/// The workload names, space-separated.
std::string workload_names();

/// Runs the benchmark and prints its result as the last stdout line.
/// Returns the process exit code.
int run_benchmark(const RunSettings& settings);

}  // namespace perfbench
