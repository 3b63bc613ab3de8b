// Hugepage-aware memory for the mega-swarm engine's large flat arrays.
//
// The scale engine's hot loops are dominated by random reads into arenas of
// tens to hundreds of MiB (possession rows, CSR targets, summary bitmaps).
// With 4 KiB pages every such read risks a TLB miss, and — worse — software
// prefetches that miss the TLB are dropped on common x86 cores, so the
// generate walk's windowed prefetch (each window's lead pass warms its
// first probe targets) only pays off when the arena sits on big pages. The
// mechanism is transparent hugepages: every allocation is an anonymous
// mapping advised with madvise(MADV_HUGEPAGE), a hint the kernel may honor
// lazily, or never (THP disabled, or no memory compaction — some
// virtualized kernels simply don't supply them). At 10^6 x 512, degree 16,
// jobs 4 (Release, 4-vCPU Xeon host, THP in madvise mode) the hint took
// generate from 47-51 s to 44 s.
//
// Everything here is a perf shade only: allocation always succeeds unless
// memory is exhausted, contents start zeroed, and no observable engine
// behavior depends on whether the kernel supplied big pages.
// An allocation is held whole until huge_free: the engine sizes its arenas
// once and returns nothing to the OS mid-run.

#pragma once

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

namespace pob::scale {

/// Best-effort madvise(MADV_HUGEPAGE) over the pages fully inside
/// [data, data + bytes). A perf hint only — random accesses into a
/// hundred-MiB arena otherwise spend much of their latency on 4 KiB TLB
/// walks. No-op off Linux, on failure, or when THP is disabled; never
/// changes observable behavior.
void advise_hugepages(const void* data, std::size_t bytes);

/// Allocates `bytes` of zero-filled memory on an anonymous mapping advised
/// for transparent hugepages (large requests are mapped in whole 2 MiB
/// units). Never returns nullptr for a nonzero request; returns nullptr for
/// bytes == 0; throws std::bad_alloc when the mapping fails.
/// Release with huge_free(ptr, bytes) using the same byte count.
void* huge_alloc(std::size_t bytes);

/// Releases memory obtained from huge_alloc. `bytes` must match the
/// original request (the mapping length is derived from it).
void huge_free(void* ptr, std::size_t bytes) noexcept;

/// A fixed-size, zero-initialized, move-only array on huge_alloc memory.
/// Deliberately minimal: the engine sizes these once per construction and
/// never resizes, so there is no growth logic to get wrong. Only trivial
/// element types are allowed — memory comes back zeroed and is released
/// without running destructors.
template <typename T>
class HugeBuffer {
  static_assert(std::is_trivially_copyable_v<T> &&
                    std::is_trivially_destructible_v<T>,
                "HugeBuffer holds raw zeroed memory; T must be trivial");

 public:
  HugeBuffer() = default;
  explicit HugeBuffer(std::size_t count) { reset(count); }
  ~HugeBuffer() { reset(0); }

  HugeBuffer(HugeBuffer&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)),
        size_(std::exchange(other.size_, 0)) {}
  HugeBuffer& operator=(HugeBuffer&& other) noexcept {
    if (this != &other) {
      reset(0);
      data_ = std::exchange(other.data_, nullptr);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  HugeBuffer(const HugeBuffer&) = delete;
  HugeBuffer& operator=(const HugeBuffer&) = delete;

  /// Frees the current storage and allocates `count` zeroed elements
  /// (count == 0 leaves the buffer empty).
  void reset(std::size_t count) {
    if (data_ != nullptr) huge_free(data_, size_ * sizeof(T));
    data_ = count == 0 ? nullptr : static_cast<T*>(huge_alloc(count * sizeof(T)));
    size_ = count;
  }

  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

 private:
  T* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace pob::scale
