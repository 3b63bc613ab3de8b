// The deterministic parallel trial runner: per-index seed derivation,
// bit-identical aggregation at any job count, and thread-pool basics.

#include "pob/exp/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <stdexcept>
#include <vector>

#include "pob/core/engine.h"
#include "pob/exp/cli.h"
#include "pob/overlay/overlay.h"
#include "pob/rand/randomized.h"

namespace pob {
namespace {

TEST(TrialSeed, DependsOnlyOnBaseAndIndex) {
  // Same (base, i) always maps to the same seed — the property that makes
  // results independent of --jobs and of scheduling order.
  for (std::uint32_t i = 0; i < 100; ++i) {
    EXPECT_EQ(trial_seed(42, i), trial_seed(42, i));
  }
  EXPECT_NE(trial_seed(42, 0), trial_seed(43, 0));
}

TEST(TrialSeed, NearbyIndicesAndBasesGiveDistinctSeeds) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t base : {0ull, 1ull, 42ull, 0xF16'6000ull}) {
    for (std::uint32_t i = 0; i < 256; ++i) seeds.insert(trial_seed(base, i));
  }
  EXPECT_EQ(seeds.size(), 4u * 256u);  // no collisions among nearby inputs
}

TEST(JobsFromFlag, RejectsNegativeValues) {
  // A --jobs=-1 typo must not wrap to 4294967295 workers.
  EXPECT_EQ(jobs_from_flag(0), 0u);  // 0 = "use default_jobs()", resolved later
  EXPECT_EQ(jobs_from_flag(1), 1u);
  EXPECT_THROW(jobs_from_flag(-1), std::invalid_argument);
  EXPECT_THROW(jobs_from_flag(std::numeric_limits<std::int64_t>::min()),
               std::invalid_argument);
}

TEST(JobsFromFlag, ClampsValuesAboveHardwareConcurrency) {
  // Mild oversubscription passes through; absurd values clamp to 4x the
  // hardware instead of spawning that many threads.
  const std::uint64_t cap = 4ull * default_jobs();
  EXPECT_EQ(jobs_from_flag(static_cast<std::int64_t>(cap)), cap);
  EXPECT_EQ(jobs_from_flag(static_cast<std::int64_t>(cap) + 1), cap);
  EXPECT_EQ(jobs_from_flag(1'000'000), cap);
  EXPECT_EQ(jobs_from_flag(std::numeric_limits<std::int64_t>::max()), cap);
}

TEST(JobsFromFlag, NonNumericFlagTextIsRejectedByTheParser) {
  // pobsim/pobfuzz route --jobs through Args::get_int, whose stoll call
  // throws on text like --jobs=fast before jobs_from_flag ever runs.
  const char* argv[] = {"prog", "--jobs=fast"};
  const Args args(2, argv);
  EXPECT_THROW(args.get_int("jobs", 0), std::invalid_argument);
  const char* none[] = {"prog"};
  EXPECT_EQ(Args(1, none).get_int("jobs", 0), 0);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.jobs(), 4u);
  std::vector<std::atomic<std::uint32_t>> hits(1000);
  pool.parallel_for(1000, [&](std::uint32_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1u);
}

TEST(ThreadPool, ReusableAcrossDispatches) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<std::uint64_t> sum{0};
    pool.parallel_for(100, [&](std::uint32_t i) { sum += i; });
    EXPECT_EQ(sum.load(), 4950u);
  }
}

TEST(ThreadPool, ZeroAndOneItemWork) {
  ThreadPool pool(4);
  pool.parallel_for(0, [](std::uint32_t) { FAIL() << "no items to run"; });
  std::atomic<std::uint32_t> hits{0};
  pool.parallel_for(1, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits.load(), 1u);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [&](std::uint32_t i) {
                                   if (i == 13) throw std::runtime_error("boom");
                                 }),
               std::runtime_error);
  // The pool survives a throwing dispatch.
  std::atomic<std::uint32_t> hits{0};
  pool.parallel_for(8, [&](std::uint32_t) { ++hits; });
  EXPECT_EQ(hits.load(), 8u);
}

// A real randomized workload: completion time of a small cooperative swarm,
// seeded purely from the trial index.
TrialOutcome swarm_trial(std::uint32_t i) {
  EngineConfig cfg;
  cfg.num_nodes = 24;
  cfg.num_blocks = 12;
  RandomizedScheduler sched(std::make_shared<CompleteOverlay>(24), {},
                            Rng(trial_seed(0xABCD, i)));
  const RunResult r = run(cfg, sched);
  TrialOutcome out;
  out.completed = r.completed;
  if (r.completed) {
    out.completion = static_cast<double>(r.completion_tick);
    out.mean_completion = r.mean_client_completion();
  }
  return out;
}

void expect_bit_identical(const TrialStats& a, const TrialStats& b) {
  EXPECT_EQ(a.runs, b.runs);
  EXPECT_EQ(a.censored, b.censored);
  for (const auto& [sa, sb] : {std::pair{a.completion, b.completion},
                               std::pair{a.mean_completion, b.mean_completion}}) {
    EXPECT_EQ(sa.count, sb.count);
    EXPECT_EQ(sa.mean, sb.mean);  // exact: same values reduced in same order
    EXPECT_EQ(sa.stddev, sb.stddev);
    EXPECT_EQ(sa.ci95, sb.ci95);
    EXPECT_EQ(sa.min, sb.min);
    EXPECT_EQ(sa.max, sb.max);
    EXPECT_EQ(sa.median, sb.median);
  }
}

std::uintptr_t address_of(const void* p) { return reinterpret_cast<std::uintptr_t>(p); }

TEST(ShardSlot, ConsecutiveSlotsSitOnDistinctCacheLines) {
  // A slot smaller than a line (a vector header) and one that spills into a
  // second line: either way every slot starts on a line boundary, and the
  // next slot starts at least a whole line later.
  struct Wide {
    std::uint64_t words[9];
  };
  static_assert(alignof(ShardSlot<std::vector<int>>) == kCacheLine &&
                sizeof(ShardSlot<std::vector<int>>) % kCacheLine == 0);
  static_assert(alignof(ShardSlot<Wide>) == kCacheLine &&
                sizeof(ShardSlot<Wide>) % kCacheLine == 0);

  std::vector<ShardSlot<std::vector<int>>> headers(5);
  for (std::size_t s = 0; s < headers.size(); ++s) {
    EXPECT_EQ(address_of(&headers[s]) % kCacheLine, 0u) << "slot " << s;
    if (s > 0) {
      EXPECT_GE(address_of(&headers[s]) - address_of(&headers[s - 1]), kCacheLine);
    }
  }
  std::vector<ShardSlot<Wide>> wide(4);
  for (std::size_t s = 1; s < wide.size(); ++s) {
    EXPECT_EQ(address_of(&wide[s]) % kCacheLine, 0u) << "slot " << s;
    EXPECT_GE(address_of(&wide[s]) - address_of(&wide[s - 1]), 2 * kCacheLine);
  }
}

TEST(CacheLineAllocator, BuffersStartOnALine) {
  for (const std::size_t count : {1u, 3u, 16u, 17u, 1000u}) {
    std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>> buf(count, 7u);
    EXPECT_EQ(address_of(buf.data()) % kCacheLine, 0u) << "count " << count;
    EXPECT_EQ(buf.back(), 7u);
  }
  EXPECT_EQ(pad_to_cache_lines<std::uint32_t>(0), 0u);
  EXPECT_EQ(pad_to_cache_lines<std::uint32_t>(1), 16u);
  EXPECT_EQ(pad_to_cache_lines<std::uint32_t>(16), 16u);
  EXPECT_EQ(pad_to_cache_lines<std::uint32_t>(49), 64u);
  EXPECT_EQ(pad_to_cache_lines<std::uint64_t>(9), 16u);
}

TEST(ShardScratch, RowsStartOnTheirOwnLinesAndReduceInShardOrder) {
  // A width of 5 counters is a fraction of a line: each row must still
  // start on a line of its own, and the padding must not leak into the
  // reduction.
  ShardScratch<std::uint32_t> scratch;
  scratch.configure(3, 5);
  for (std::uint32_t s = 0; s < 3; ++s) {
    EXPECT_EQ(address_of(scratch.shard(s)) % kCacheLine, 0u) << "row " << s;
    if (s > 0) {
      EXPECT_GE(address_of(scratch.shard(s)) - address_of(scratch.shard(s - 1)),
                kCacheLine);
    }
  }
  ThreadPool pool(3);
  pool.parallel_for(3, [&](std::uint32_t s) {
    for (std::uint32_t i = 0; i < 5; ++i) scratch.shard(s)[i] = (s + 1) * 10 + i;
  });
  std::vector<std::uint32_t> out(5, 1);
  scratch.reduce_into(out.data(), &pool);
  for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(out[i], 1 + 60 + 3 * i) << "column " << i;
  for (std::uint32_t s = 0; s < 3; ++s) {
    for (std::uint32_t i = 0; i < 5; ++i) EXPECT_EQ(scratch.shard(s)[i], 0u);
  }
}

TEST(RepeatTrialsParallel, BitIdenticalToSerialAtAnyJobCount) {
  const TrialStats serial = repeat_trials(32, swarm_trial);
  for (const unsigned jobs : {1u, 2u, 3u, 8u, 64u}) {
    const TrialStats parallel = repeat_trials_parallel(32, jobs, swarm_trial);
    expect_bit_identical(serial, parallel);
  }
}

TEST(RepeatTrialsParallel, CountsCensoredRunsLikeSerial) {
  const auto trial = [](std::uint32_t i) {
    TrialOutcome out;
    out.completed = i % 3 != 0;  // every third run censored
    out.completion = static_cast<double>(100 + i);
    out.mean_completion = static_cast<double>(50 + i);
    return out;
  };
  const TrialStats serial = repeat_trials(20, trial);
  const TrialStats parallel = repeat_trials_parallel(20, 7, trial);
  EXPECT_EQ(parallel.censored, 7u);
  expect_bit_identical(serial, parallel);
}

TEST(RepeatTrialsParallel, MoreJobsThanRunsIsFine) {
  const TrialStats stats = repeat_trials_parallel(3, 16, swarm_trial);
  EXPECT_EQ(stats.runs, 3u);
  EXPECT_EQ(stats.censored, 0u);
}

TEST(RepeatTrialsParallel, JobsZeroUsesHardwareDefault) {
  EXPECT_GE(default_jobs(), 1u);
  const TrialStats stats = repeat_trials_parallel(8, 0, swarm_trial);
  expect_bit_identical(repeat_trials(8, swarm_trial), stats);
}

}  // namespace
}  // namespace pob
