// The historical randomized cooperative / credit-limited generator (§2.4,
// §3.2), extracted behind the ScaleScheduler interface. This class owns the
// per-shard probe scratch (diff scans, probe-outcome caches) that used to
// live in the engine; the probing logic itself — eligibility, RNG streams,
// the rejection ladder, block picks — stays in Engine::generate_range so the
// emitted intent stream is bit-for-bit the pre-refactor one (the 200k digest
// pins in tests/scale prove exactly that).

#pragma once

#include <cstdint>
#include <vector>

#include "pob/scale/engine.h"
#include "pob/scale/scheduler.h"

namespace pob::scale {

class RandomizedScheduler final : public ScaleScheduler {
 public:
  RandomizedScheduler(Engine& engine, std::uint32_t num_shards);

  void generate(Tick tick, std::uint32_t shard, NodeId first, NodeId last,
                std::vector<Transfer>& out) override;

  const char* name() const override { return "randomized"; }

  std::uint64_t memory_bytes() const override;

 private:
  // One shard's probe scratch. Shard-owned: node u always generates in
  // shard u / shard_nodes, so scans and cache entries never cross threads,
  // and each shard's slot sits on cache lines of its own.
  struct ProbeScratch {
    Engine::DiffScan scan;
    Engine::ProbeCache cache;
  };
  static_assert(alignof(ShardSlot<ProbeScratch>) == kCacheLine &&
                sizeof(ShardSlot<ProbeScratch>) % kCacheLine == 0);

  Engine& engine_;
  std::vector<ShardSlot<ProbeScratch>> scratch_;
};

}  // namespace pob::scale
