// The §2.4 randomized cooperative protocol and its §3.2 credit-limited
// barter variant as a scale intent generator: the only scale scheduler that
// probes. Every eligible sender u draws up to max_probes neighbors per
// upload slot from its per-(tick, node) RNG stream and sends a block of
// su \ sv to the first viable one (uniform random, rarest first, or — in the
// sequential-demand mode — the lowest block inside v's playback window).
//
// The scheduler reads swarm state only through Engine's const accessors and
// owns everything the probe walk needs of its own: per-shard diff-scan
// scratch and the per-node sated stamps. Two layers make the walk cheap,
// neither of which may change an emitted intent:
//
//   * the WORD-DIFF SCAN (scan_pair) records only the nonzero words of
//     su \ sv and their popcounts, in ascending word order, so the block
//     pick consumes the identical RNG draws as the historical dense walk.
//     When the expected-diff gate says a pair may be useless, the scan is
//     GUIDED by the hierarchical summaries: it visits only words where u
//     holds a block and v still misses one, and rejects an empty pair in
//     O(ceil(k/4096)) words without touching the possession rows. Otherwise
//     it sweeps linearly, four words at a time. ScanKernel::kScalar forces
//     the one-word reference loop; every path records identical entries.
//   * the SATED SKIP: when a slot finds no target, a deterministic sweep of
//     u's whole neighborhood checks whether any neighbor is viable; if none
//     is, u is stamped sated at its possession version and skipped — RNG
//     stream untouched — until that version changes. Sound because every
//     viability predicate is monotone while u's row is frozen: receivers
//     only gain blocks, departures and completions only remove targets, and
//     a §3.2 credit block on u -> v clears only via a v -> u delivery, which
//     bumps u's version. An arrival (Engine::activate) does create targets,
//     so begin_tick wipes every stamp once after any arrival. Sequential
//     demand never stamps: a receiver's window slides without the sender's
//     version changing.
//
// The walk runs in double-buffered windows whose lead pass seeds each
// eligible node's RNG and prefetches its first probe target's lines one
// window ahead of the emit pass (see generate_range).

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "pob/scale/engine.h"
#include "pob/scale/scheduler.h"

namespace pob::scale {

class RandomizedScheduler final : public ScaleScheduler {
 public:
  RandomizedScheduler(const Engine& engine, std::uint32_t num_shards);

  /// Wipes every sated stamp if a node arrived since the last tick; plans
  /// nothing (the tick is generated per shard).
  const std::vector<Transfer>* begin_tick(Tick tick) override;

  void generate(Tick tick, std::uint32_t shard, NodeId first, NodeId last,
                std::vector<Transfer>& out) override;

  const char* name() const override { return "randomized"; }

  std::uint64_t memory_bytes() const override;

 private:
  // Per-shard scratch for the fused usefulness-scan / block-pick: one pass
  // over su & ~sv records the NONZERO diff words (ascending word index),
  // their popcounts and the total, and the selection (random rank-select or
  // rarest-first walk) reuses the recording instead of re-walking the
  // possession rows. Sparse by construction: endgame scans record one or
  // two entries, not ceil(k/64).
  struct DiffScan {
    /// Sizes the three arrays for rows of `stride` words, in one allocation
    /// that starts on a cache line and is padded to whole lines: at k <= 512
    /// each array is 16-64 bytes, and as separate heap blocks the arrays of
    /// different shards' scans would sit side by side on shared lines.
    void configure(std::uint32_t stride);

    std::uint64_t* words = nullptr;  // su[w] & ~sv[w], nonzero only
    std::uint32_t* widx = nullptr;   // possession-word index per entry
    std::uint32_t* pc = nullptr;     // popcount per entry
    std::uint32_t entries = 0;
    std::uint32_t total = 0;  // sum of pc over entries

    std::uint64_t memory_bytes() const { return bytes_; }

   private:
    struct Free {
      void operator()(std::byte* p) const noexcept {
        CacheLineAllocator<std::byte>().deallocate(p, 0);
      }
    };
    std::unique_ptr<std::byte[], Free> storage_;
    std::size_t bytes_ = 0;
  };
  // Shard-owned: node u always generates in shard u / shard_nodes, so scans
  // never cross threads, and each shard's slot sits on cache lines of its
  // own.
  static_assert(alignof(ShardSlot<DiffScan>) == kCacheLine &&
                sizeof(ShardSlot<DiffScan>) % kCacheLine == 0);

  /// Fills `scan` with the nonzero words of su \ sv (ascending word index)
  /// via the configured kernel; returns scan.total != 0. `su` is u's sender
  /// row (see generate_node). `guided` takes the summary-driven walk, which
  /// rejects a pair with no useful chunk before touching either row; false
  /// goes straight to the linear sweep. Every path records identical
  /// entries; the choice is perf-only.
  bool scan_pair(NodeId u, const std::uint64_t* su, NodeId v, DiffScan& scan,
                 bool guided) const;

  /// True iff u -> v is viable right now: a nonempty diff, inside v's
  /// window in sequential-demand mode. `scan` then holds the diff for the
  /// block pick.
  bool probe_viable(NodeId u, const std::uint64_t* su, std::uint32_t ver_u,
                    NodeId v, std::uint32_t ver_v, DiffScan& scan) const;

  /// Sequential-demand viability (stream_window != 0): true iff the lowest
  /// block of the recorded diff lies inside v's sliding playback window
  /// [first_missing(v), first_missing(v) + stream_window).
  bool window_admits(NodeId v, const DiffScan& scan) const;

  /// Picks a block from a non-empty DiffScan; consumes the identical RNG
  /// draws (one below(total), or the rarest-first reservoir sequence) as
  /// the historical two-pass pick_block. Sequential-demand mode always
  /// picks the lowest recorded bit and draws nothing.
  BlockId pick_from_scan(const DiffScan& scan, Rng& rng) const;

  /// Deterministic sweep of u's whole neighborhood: true iff no neighbor is
  /// currently a viable probe target, so u cannot emit an intent this tick
  /// or any later tick until its possession version changes (see the
  /// header comment). `su` is u's sender row.
  bool neighborhood_exhausted(NodeId u, const std::uint64_t* su,
                              DiffScan& scan) const;

  /// Emits node u's intents. `rng` is u's per-(tick, node) stream with the
  /// first below(degree) draw already consumed — `first_probe` is that
  /// draw's neighbor — and the caller has verified u is eligible (active,
  /// holds blocks, not sated, has slots and neighbors).
  void generate_node(NodeId u, Rng& rng, NodeId first_probe,
                     std::vector<Transfer>& out, DiffScan& scan);

  /// Emits intents for senders in [first, last), ascending: runs
  /// generate_node over the range in small double-buffered windows whose
  /// lead pass seeds each eligible node's RNG, peeks its first probe target
  /// and prefetches that target's metadata and possession row, so the emit
  /// pass finds the lines resident instead of stalling per probe.
  void generate_range(std::uint64_t tick_base, NodeId first, NodeId last,
                      std::vector<Transfer>& out, DiffScan& scan);

  const Engine& engine_;
  const Topology& topo_;
  const ScaleOptions opt_;
  const std::uint32_t k_;
  const std::uint32_t stride_;      // words per possession row
  const std::uint32_t sum_stride_;  // words per summary row

  std::vector<ShardSlot<DiffScan>> scans_;
  // Per node: possession version + 1 when its neighborhood was proven
  // exhausted at that version, 0 otherwise. Written only by the node's own
  // shard during generate; wiped serially in begin_tick.
  std::vector<std::uint32_t> sated_ver_;
  std::uint64_t seen_arrivals_ = 0;  // Engine::arrivals() at the last wipe
};

}  // namespace pob::scale
