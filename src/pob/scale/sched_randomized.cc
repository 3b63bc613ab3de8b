#include "pob/scale/sched_randomized.h"

namespace pob::scale {

RandomizedScheduler::RandomizedScheduler(Engine& engine, std::uint32_t num_shards)
    : engine_(engine) {
  scratch_.resize(num_shards);
  for (Engine::DiffScan& scan : scratch_) {
    scan.widx.resize(engine_.stride_);
    scan.words.resize(engine_.stride_);
    scan.pc.resize(engine_.stride_);
  }
  cache_.resize(num_shards);
  for (Engine::ProbeCache& cache : cache_) cache.configure(engine_.opt_.shard_nodes);
}

void RandomizedScheduler::generate(Tick tick, std::uint32_t shard, NodeId first,
                                   NodeId last, std::vector<Transfer>& out) {
  // Per-node streams derive from trial_seed(seed, tick) exactly as before
  // the scheduler split; recomputing the tick base per shard yields the same
  // value every shard, so the streams — and the digests — are unchanged.
  const std::uint64_t tick_base = trial_seed(engine_.seed_, tick);
  engine_.generate_range(tick_base, first, last, out, scratch_[shard], cache_[shard]);
}

std::uint64_t RandomizedScheduler::memory_bytes() const {
  std::uint64_t bytes = 0;
  for (const Engine::DiffScan& scan : scratch_) bytes += scan.memory_bytes();
  for (const Engine::ProbeCache& cache : cache_) bytes += cache.memory_bytes();
  return bytes;
}

}  // namespace pob::scale
