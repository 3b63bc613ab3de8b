#include "pob/scale/hugemem.h"

#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pob::scale {
namespace {

// Requests below this use ordinary pages even when the hugetlb pool has
// room: rounding a small test-sized engine up to 2 MiB per array would
// pin real (unswappable) hugetlb pages for kilobytes of payload and could
// drain the pool before the benchmark-scale arenas — the ones the pool
// exists for — get a chance to claim it. 1 MiB keeps every per-node array
// of a million-node engine (even the 1-byte-per-node active flags) on big
// pages — they are all random-read per probe — while the worst-case
// rounding waste stays at one page.
constexpr std::size_t kHugetlbThreshold = std::size_t{1} << 20;
constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kPage = 4096;

constexpr std::size_t round_up(std::size_t v, std::size_t unit) {
  return (v + unit - 1) / unit * unit;
}

// The mapping length is a pure function of the request size so that
// huge_free can reconstruct it without per-allocation bookkeeping. Large
// requests are rounded to the hugetlb unit on EVERY path (a hugetlb
// attempt that falls back still maps the rounded length), so free never
// has to know which path won.
constexpr std::size_t mapping_length(std::size_t bytes) {
  return bytes >= kHugetlbThreshold ? round_up(bytes, kHugePage)
                                    : round_up(bytes, kPage);
}

}  // namespace

void advise_hugepages(const void* data, std::size_t bytes) {
#if defined(__linux__) && defined(MADV_HUGEPAGE)
  // Round inward to whole pages: madvise wants an aligned start, and pages
  // we only partially own must not be advised.
  const auto addr = reinterpret_cast<std::uintptr_t>(data);
  const std::uintptr_t lo = (addr + kPage - 1) & ~(kPage - 1);
  const std::uintptr_t hi = (addr + bytes) & ~(kPage - 1);
  if (hi > lo) {
    // Failure (old kernel, THP off) is fine: purely a perf hint.
    (void)madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_HUGEPAGE);
  }
#else
  (void)data;
  (void)bytes;
#endif
}

void* huge_alloc(std::size_t bytes) {
  if (bytes == 0) return nullptr;
#if defined(__linux__)
  const std::size_t len = mapping_length(bytes);
#if defined(MAP_HUGETLB)
  if (bytes >= kHugetlbThreshold) {
    // Without MAP_NORESERVE the pool reservation happens here, so a
    // depleted or absent pool fails the mmap itself — no lazy-fault
    // surprises later.
    void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (p != MAP_FAILED) return p;
  }
#endif
  void* p = mmap(nullptr, len, PROT_READ | PROT_WRITE,
                 MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc{};  // genuine memory exhaustion
  advise_hugepages(p, len);
  return p;
#else
  void* p = ::operator new(bytes);
  std::memset(p, 0, bytes);
  return p;
#endif
}

void huge_free(void* ptr, std::size_t bytes) noexcept {
  if (ptr == nullptr) return;
#if defined(__linux__)
  // Every Linux allocation is an mmap (huge_alloc throws rather than fall
  // back to the heap), so the length derivation below is always valid.
  (void)munmap(ptr, mapping_length(bytes));
#else
  (void)bytes;
  ::operator delete(ptr);
#endif
}

}  // namespace pob::scale
