#include "pob/scale/hugemem.h"

#include <cstring>
#include <new>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace pob::scale {
namespace {

// Requests of at least this size are mapped in whole 2 MiB units. Recent
// Linux kernels place an anonymous mapping on a 2 MiB boundary only when
// its length is a multiple of 2 MiB, and an aligned mapping can be backed
// by transparent hugepages from its first byte to its last. 1 MiB keeps every
// per-node array of a million-node engine (even the 1-byte-per-node active
// flags) on big pages — they are all random-read per probe — while
// smaller test-sized arrays are not padded to 2 MiB each.
constexpr std::size_t kHugeRoundThreshold = std::size_t{1} << 20;
constexpr std::size_t kHugePage = std::size_t{2} << 20;
constexpr std::size_t kPage = 4096;

constexpr std::size_t round_up(std::size_t v, std::size_t unit) {
  return (v + unit - 1) / unit * unit;
}

// The mapping length is a pure function of the request size so that
// huge_free can reconstruct it without per-allocation bookkeeping.
constexpr std::size_t mapping_length(std::size_t bytes) {
  return bytes >= kHugeRoundThreshold ? round_up(bytes, kHugePage)
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
