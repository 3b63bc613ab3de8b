// Theorem 3's riffle pipeline as a scale intent generator: strict bilateral
// barter reaching Theorem 2's T = n + k - 2 lower bound.
//
// Core's RifflePipelineScheduler materializes every meeting (O(n^2 k / p)
// of them) and runs a greedy legalizer — fine at n <= 10^4, hopeless at
// 10^6. The observation that makes a million-node port cheap: the recursive
// riffle construction only ever produces one shape, a CYCLE RUN — a
// contiguous client range [client0, client0 + p) playing `cycles`
// consecutive riffle cycles over a contiguous block range starting at
// block0 from tick t0 + 1. The whole schedule is a short list of such
// Segments (O(n / k + log) of them, built once from (n, k) by mirroring the
// recursion), and any tick's transfer set is recovered by pure arithmetic:
//
//   handoff   server -> client0 + (c mod p), block0 + c, at t0 + c + 1,
//             for c in [0, cycles * p)
//   barter    cycle g is active at relative tick rel = tick - t0 iff
//             c' = rel - g*p - 2 lies in [1, 2p - 3]; the meetings are the
//             pairs i < j with i + j = c', swapping (block0 + g*p + i) for
//             (block0 + g*p + j) — at most two cycles of a segment overlap
//             any tick, so emission is O(transfers), not O(schedule).
//
// At u = 1, d >= 2 the desired schedule is already legal — consecutive
// cycles' barter partners shift by p (never two barters on one client in a
// tick), a handoff landing on a bartering client is exactly the d = 2 case,
// and the recursion's server windows are time-disjoint — so core's
// legalizer is a no-op on it and the per-tick sets here equal core's
// legalized schedule (the fuzzer's mirror arm checks precisely that). The
// engine therefore requires download capacity >= 2 for this scheduler; the
// merge admits every intent verbatim.
//
// begin_tick materializes the tick's transfers once, serially, sorted by
// sender (each node sends at most once per tick), and hands that buffer to
// the engine as the tick's planned stream (scheduler.h). The engine admits
// it directly, so the riffle never runs the sharded generate: a tick of ~k
// transfers costs O(k log k) here plus the serial sparse merge, with no
// per-shard dispatch. The rare dense tick (k >= n - 1) is cut into sender-
// shard ranges by the engine, not by this class.

#pragma once

#include <cstdint>
#include <vector>

#include "pob/scale/engine.h"
#include "pob/scale/scheduler.h"

namespace pob::scale {

class RiffleScheduler final : public ScaleScheduler {
 public:
  explicit RiffleScheduler(const Engine& engine);

  const std::vector<Transfer>* begin_tick(Tick tick) override;

  const char* name() const override { return "riffle-pipeline"; }
  std::uint64_t memory_bytes() const override;

  /// The schedule's last transfer tick — n + k - 2 whenever (n - 1) | k or
  /// k < n - 1 divides evenly down the recursion; always >= n + k - 2
  /// (Theorem 2). Exposed for tests and the bench table.
  Tick last_tick() const { return last_tick_; }

 private:
  // One cycle run; see the header comment. `end` is the segment's last
  // transfer tick, precomputed so begin_tick retires segments in O(1).
  struct Segment {
    Tick t0;
    Tick end;
    NodeId client0;
    std::uint32_t p;
    BlockId block0;
    std::uint32_t cycles;
  };

  /// Mirrors core's emit(): contiguous clients [client0, client0 + p) x
  /// blocks [block0, block0 + kk), first transfer after t0. Appends
  /// segments in nondecreasing t0.
  void build(NodeId client0, std::uint32_t p, BlockId block0, std::uint32_t kk,
             Tick t0);
  void emit_segment(const Segment& seg, Tick tick);

  std::vector<Segment> segments_;
  Tick last_tick_ = 0;

  // Per-tick state: a monotone cursor into segments_, the live segments,
  // and the tick's transfers sorted by sender.
  std::size_t next_segment_ = 0;
  std::vector<Segment> active_;
  std::vector<Transfer> tick_buf_;
  Tick built_tick_ = 0;
};

}  // namespace pob::scale
