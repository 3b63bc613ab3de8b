// pob_perfbench: runs one benchmark workload and prints its metrics.
//
//   pob_perfbench --workload coop_random --seed 1 --seconds 10 --trace 0
//
// --trace 0 prints the end-to-end metrics of untraced runs; --trace 1 prints
// the per-layer metrics of a traced run and writes its spans to
// .bench_out/<workload>.spans.csv. The last stdout line is the JSON result.

#include <sys/prctl.h>

#include <csignal>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <string_view>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "pob_perfbench: " << why << "\nusage: pob_perfbench --workload <"
            << perfbench::workload_names()
            << "> [--seed N] [--seconds S] [--trace 0|1]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Stop with the process that started us, so no run outlives a killed caller.
  prctl(PR_SET_PDEATHSIG, SIGKILL);
  perfbench::RunSettings settings;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string_view flag = argv[i];
      if (i + 1 >= argc) return usage("missing value for " + std::string(flag));
      const std::string value = argv[++i];
      std::size_t used = 0;
      if (flag == "--workload") {
        settings.workload = value;
      } else if (flag == "--seed") {
        settings.seed = std::stoull(value, &used);
      } else if (flag == "--seconds") {
        settings.seconds = std::stod(value, &used);
      } else if (flag == "--trace") {
        settings.trace = std::stoi(value, &used) != 0;
      } else {
        return usage("unknown flag " + std::string(flag));
      }
      if (used != 0 && used != value.size()) {
        return usage("malformed value for " + std::string(flag) + ": " + value);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed flag value");
  }
  if (settings.workload.empty()) return usage("--workload is required");
  if (!(settings.seconds > 0.0)) return usage("--seconds must be positive");
  try {
    return perfbench::run_benchmark(settings);
  } catch (const std::exception& e) {
    std::cerr << "pob_perfbench: " << e.what() << "\n";
    return 1;
  }
}
