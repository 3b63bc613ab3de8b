// The scheduler side of the scale tick: a ScaleScheduler turns (tick, sender
// range) into intents, and the engine's merge/apply pipeline does the rest.
//
// The contract that keeps the whole engine bit-identical at any --jobs:
//
//   * begin_tick(t) runs serially, once, before any generate() call of tick
//     t. It must be a pure function of (engine state, tick), never of the
//     job count. A scheduler that can build the whole tick here cheaply
//     returns it: the tick's complete canonical intent stream, ascending by
//     sender. The engine then calls no generate() for the tick and admits
//     the stream directly — serially when it is sparse, cut into sender-
//     shard ranges for the dense merge otherwise — so a tick of a few
//     hundred intents pays no per-shard dispatch. The riffle scheduler
//     plans every tick this way. Returning nullptr (the default) asks for
//     the sharded generate below.
//   * generate(t, shard, first, last, out) appends every intent of tick t
//     whose SENDER lies in [first, last), in ascending sender order, to
//     `out`. Calls for different shards may run concurrently on the thread
//     pool; a shard's intents must not depend on which thread runs it or on
//     whether other shards ran first. Concatenating the shards in ascending
//     shard order yields the canonical (sender-ordered) intent stream the
//     merge admits against.
//   * the merge phase enforces only RECEIVER-side constraints (download
//     capacity, one delivery per (receiver, block)). Upload capacity and any
//     mechanism constraint are the scheduler's contract: randomized
//     generation prechecks the §3.2 credit predicate per probe; the
//     deterministic schedules are legal by construction, so every intent
//     they emit is admitted verbatim.
//
// Deterministic emission is what makes porting the paper's closed-form
// algorithms cheap: merge and apply do not change at all, and the
// MirrorScheduler/oracle stack validates any intent stream the same way.

#pragma once

#include <cstdint>
#include <vector>

#include "pob/core/types.h"

namespace pob::scale {

/// Which intent generator drives the tick. The engine rejects configurations
/// a deterministic schedule cannot serve (non-power-of-two n, missing
/// hypercube edges, d < 2 for the riffle) with a distinct EngineViolation —
/// see the constructor — instead of emitting garbage intents.
enum class SchedKind : std::uint8_t {
  /// §2.4 randomized cooperative probing (credit-limited when
  /// ScaleOptions::credit_limit > 0) — the historical scale protocol.
  kRandomized = 0,
  /// Theorem 1's binomial pipeline: pure index arithmetic on the hypercube,
  /// optimal cooperative T = k - 1 + log2 n at power-of-two n.
  kBinomialPipeline = 1,
  /// Theorem 3's riffle pipeline: strict bilateral barter, T = k + n - 2 in
  /// its clean regimes (matching Theorem 2's lower bound).
  kRifflePipeline = 2,
  /// §3.3 triangular barter: the binomial-pipeline schedule, configured
  /// with credit_limit >= 1. The schedule satisfies CyclicBarter(3, 1), so
  /// relaxing barter to 3-cycles already recovers the optimal cooperative
  /// time — the paper's "price of triangular barter = 1". The engine keeps
  /// no pairwise ledger for it; the CyclicBarter(3, 1) check lives in the
  /// mirror and fuzz oracles (see ScaleOptions::credit_limit).
  kTriangularBarter = 3,
};

inline const char* sched_kind_name(SchedKind kind) {
  switch (kind) {
    case SchedKind::kBinomialPipeline: return "binomial-pipeline";
    case SchedKind::kRifflePipeline: return "riffle-pipeline";
    case SchedKind::kTriangularBarter: return "triangular-barter";
    case SchedKind::kRandomized: break;
  }
  return "randomized";
}

class ScaleScheduler {
 public:
  virtual ~ScaleScheduler() = default;

  /// Serial per-tick hook; see the contract above. Returns the tick's
  /// planned canonical stream (valid until the next begin_tick), or nullptr
  /// to have the engine run generate() per shard. Default: nullptr.
  virtual const std::vector<Transfer>* begin_tick(Tick /*tick*/) {
    return nullptr;
  }

  /// Appends tick `tick`'s intents with sender in [first, last) to `out`,
  /// ascending by sender. `shard` is the intent-shard index (shard-owned
  /// scratch lives behind it); shards partition [0, n) contiguously. Never
  /// called for a tick whose begin_tick returned a planned stream, so a
  /// scheduler that plans every tick keeps the default, which emits nothing.
  virtual void generate(Tick /*tick*/, std::uint32_t /*shard*/,
                        NodeId /*first*/, NodeId /*last*/,
                        std::vector<Transfer>& /*out*/) {}

  virtual const char* name() const = 0;

  /// Scratch + schedule memory owned by the scheduler, for state_bytes().
  virtual std::uint64_t memory_bytes() const { return 0; }
};

}  // namespace pob::scale
