#include "host.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>

namespace perfbench {

const char* build_type() { return PERFBENCH_BUILD_TYPE; }

bool is_release_build() {
#ifdef NDEBUG
  return std::strcmp(PERFBENCH_BUILD_TYPE, "Release") == 0;
#else
  return false;
#endif
}

std::uint64_t llc_bytes() {
  for (const char* path : {"/sys/devices/system/cpu/cpu0/cache/index3/size",
                           "/sys/devices/system/cpu/cpu0/cache/index2/size"}) {
    std::FILE* f = std::fopen(path, "r");
    if (f == nullptr) continue;
    char buf[32] = {};
    const std::size_t got = std::fread(buf, 1, sizeof(buf) - 1, f);
    std::fclose(f);
    if (got == 0) continue;
    char* end = nullptr;
    const unsigned long long kb = std::strtoull(buf, &end, 10);
    if (kb != 0 && end != nullptr && *end == 'K') return static_cast<std::uint64_t>(kb) << 10;
  }
  return std::uint64_t{32} << 20;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

}  // namespace perfbench
