// Theorem 1's binomial pipeline as a scale intent generator, for swarms at
// exactly n = 2^m (the engine rejects anything else). With no doubled
// vertices, core's hypercube schedule collapses to pure index arithmetic:
// on tick t <= k + m - 1 the active dimension is d = (t-1) mod m, and every
// node u with transmission rank r > 0 offers block r-1 to its partner
// u ^ (1 << d) — where the server's rank is min(t, k) and a client's rank is
// 1 + its highest held block id. No probing, no RNG, no legalization: the
// per-tick transfer SET equals core BinomialPipelineScheduler's exactly
// (core emits pair-by-pair, the shards here emit sender-by-sender; only the
// within-tick order differs, which the simultaneous-tick model ignores).
//
// The same emission doubles as §3.3 triangular barter (kTriangularBarter):
// the schedule is unchanged and the mirror and fuzz oracles validate the
// stream under their own CyclicBarter(3, limit) instead of no mechanism —
// the paper's point being that the optimal cooperative schedule already
// satisfies relaxed barter, so the price of triangular barter is 1. The
// engine requires credit_limit >= 1 for this kind but records no pairwise
// ledger: the schedule never consults one.

#pragma once

#include <cstdint>
#include <vector>

#include "pob/scale/engine.h"
#include "pob/scale/scheduler.h"

namespace pob::scale {

class BinomialScheduler final : public ScaleScheduler {
 public:
  /// `engine.config().num_nodes` must be a power of two (validated by the
  /// engine before construction). `triangular` only changes the reported
  /// name: the schedule is identical, the ledger semantics live in the
  /// engine's credit_limit.
  BinomialScheduler(const Engine& engine, bool triangular);

  void generate(Tick tick, std::uint32_t shard, NodeId first, NodeId last,
                std::vector<Transfer>& out) override;

  const char* name() const override {
    return triangular_ ? "triangular-barter" : "binomial-pipeline";
  }

 private:
  const Engine& engine_;
  std::uint32_t k_;
  std::uint32_t dims_;     // m = log2(n)
  Tick phase_len_;         // k + m - 1: the last tick with transfers
  bool triangular_;
};

}  // namespace pob::scale
