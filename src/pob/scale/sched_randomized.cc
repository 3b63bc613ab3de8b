#include "pob/scale/sched_randomized.h"

namespace pob::scale {

RandomizedScheduler::RandomizedScheduler(Engine& engine, std::uint32_t num_shards)
    : engine_(engine) {
  scratch_.resize(num_shards);
  for (ShardSlot<ProbeScratch>& slot : scratch_) {
    slot.value.scan.configure(engine_.stride_);
    slot.value.cache.configure(engine_.opt_.shard_nodes);
  }
}

void RandomizedScheduler::generate(Tick tick, std::uint32_t shard, NodeId first,
                                   NodeId last, std::vector<Transfer>& out) {
  // Per-node streams derive from trial_seed(seed, tick) exactly as before
  // the scheduler split; recomputing the tick base per shard yields the same
  // value every shard, so the streams — and the digests — are unchanged.
  const std::uint64_t tick_base = trial_seed(engine_.seed_, tick);
  ProbeScratch& scratch = scratch_[shard].value;
  engine_.generate_range(tick_base, first, last, out, scratch.scan, scratch.cache);
}

std::uint64_t RandomizedScheduler::memory_bytes() const {
  std::uint64_t bytes = scratch_.capacity() * sizeof(ShardSlot<ProbeScratch>);
  for (const ShardSlot<ProbeScratch>& slot : scratch_) {
    bytes += slot.value.scan.memory_bytes() + slot.value.cache.memory_bytes();
  }
  return bytes;
}

}  // namespace pob::scale
