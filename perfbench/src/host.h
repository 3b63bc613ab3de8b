// The host and build context printed with every result, so that a number
// says what produced it. Thread count and CPU quota come from
// bench/bench_util.h; this file holds what has no equivalent there.

#pragma once

#include <cstdint>

namespace perfbench {

/// The CMake build type the benchmark was compiled as.
const char* build_type();

/// True for a Release build with assertions compiled out; the benchmark
/// refuses to measure anything else.
bool is_release_build();

/// Last-level cache bytes, read from sysfs with a 32 MiB fallback exactly as
/// the scale engine does when it resolves batch_window automatically.
std::uint64_t llc_bytes();

/// Peak resident set of this process in MiB.
double peak_rss_mb();

/// User + system CPU seconds this process has used so far.
double process_cpu_seconds();

}  // namespace perfbench
