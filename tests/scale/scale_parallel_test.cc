// Determinism pins for the fully parallel tick (receiver-sharded merge +
// sharded apply): a 200,000-node swarm that exercises every cross-node
// constraint the merge and commit phases enforce at once — config churn,
// depart-on-complete, the §3.2 credit ledger under rarest-first selection,
// and heterogeneous download caps — must produce bit-identical RunResults
// at jobs = 1, 4 and hardware_concurrency. The smaller companion case keeps
// record_trace on, so the full per-tick transfer stream (not just the
// aggregate bookkeeping) is digested too.
//
// The digests themselves are pinned to absolute constants (captured before
// the scheduler-interface refactor for the randomized family, at its
// introduction for the deterministic mechanisms), so a silent behavioral
// drift fails even if it drifts identically at every job count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <thread>
#include <vector>

#include "pob/check/oracle.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"

namespace pob::scale {
namespace {

// Captured from the pre-refactor engine (randomized planner inlined in
// generate); the ScaleScheduler extraction must not move a single bit.
constexpr std::uint64_t kCreditRarest200kDigest = 0x5157ee3c583eea14ULL;
constexpr std::uint64_t kTrace2500Digest = 0xf28c333e5835ab16ULL;
constexpr std::uint64_t kPureRandomized200kDigest = 0x72fa6ecfba949db6ULL;

// The deterministic mechanisms at 2^18 nodes, k = 64 (the power of two
// nearest the 200k randomized pins). Binomial and triangular share a digest
// by design: §3.3's result is that the triangular ledger admits the
// binomial schedule unchanged.
constexpr std::uint64_t kBinomial262kDigest = 0xce992a8dbb1d2100ULL;
constexpr std::uint64_t kTriangular262kDigest = kBinomial262kDigest;
constexpr std::uint64_t kRiffle262kDigest = 0x4842fc682201766dULL;

// Cooperative randomized at 2^16 x 256, degree 16, run to completion;
// captured before per-shard state moved onto its own cache lines.
constexpr std::uint64_t kSixteenShards65kDigest = 17618284842672967801ULL;

TEST(ScaleParallel, TwoHundredThousandNodesEveryPhaseSharded) {
  constexpr std::uint32_t kNodes = 200000;
  constexpr std::uint64_t kSeed = 29;

  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 32;
  cfg.server_upload_capacity = 8;
  cfg.depart_on_complete = true;  // run()'s leaving queue, sharded by receiver
  cfg.departures = {{4, 777}, {11, 1234}, {25, 99999}};
  // Fixed horizon: with depart-on-complete on a sparse overlay, stragglers
  // whose whole neighborhood departed can never finish, and the digest at a
  // fixed tick is exactly as discriminating as one at completion.
  cfg.max_ticks = 64;
  // Heterogeneous download caps: every 7th client can take 3 blocks/tick,
  // the rest 2 — receiver shards must enforce exactly their own slice.
  cfg.download_capacities.assign(kNodes, 2);
  for (NodeId c = 1; c < kNodes; c += 7) cfg.download_capacities[c] = 3;

  ScaleOptions opt;
  opt.policy = BlockPolicy::kRarestFirst;
  opt.credit_limit = 3;

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(kSeed);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 16, rng)));
    Engine engine(cfg, std::move(topo), opt, kSeed);
    const RunResult r = engine.run(jobs);
    EXPECT_EQ(r.ticks_executed, 64u);
    EXPECT_GT(r.departed, 3u);  // the 3 config departures + depart-on-complete
    return check::run_result_digest(r);
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(serial, kCreditRarest200kDigest);
  EXPECT_EQ(digest_at(4), serial);
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  EXPECT_EQ(digest_at(hw), serial);

  // The scan-kernel axis: forcing the one-word reference kernel (no
  // unrolled sweep, no summary-guided sparse walk) must reproduce the
  // identical stream — this is the pin that keeps the unrolled paths honest
  // at scale.
  opt.scan_kernel = ScanKernel::kScalar;
  EXPECT_EQ(digest_at(1), serial);
}

TEST(ScaleParallel, PureRandomizedTwoHundredThousandNodesPinned) {
  constexpr std::uint32_t kNodes = 200000;
  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 64;
  cfg.server_upload_capacity = 4;
  cfg.max_ticks = 48;

  ScaleOptions opt;  // defaults: cooperative randomized, no credit ledger

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(11);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 8, rng)));
    Engine engine(cfg, std::move(topo), opt, 11);
    return check::run_result_digest(engine.run(jobs));
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(serial, kPureRandomized200kDigest);
  EXPECT_EQ(digest_at(4), serial);
}

TEST(ScaleParallel, ScanKernelAndJobsAxesPreserveThePinnedDigest) {
  // The scan kernel is a speed choice, not a policy: any (scan kernel,
  // jobs) point must reproduce the pinned stream bit for bit. (The unrolled
  // kernel at jobs 1 and 4 is pinned by the test above.)
  constexpr std::uint32_t kNodes = 200000;
  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 64;
  cfg.server_upload_capacity = 4;
  cfg.max_ticks = 48;

  struct Axis {
    ScanKernel kernel;
    unsigned jobs;
  };
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const Axis axes[] = {
      {ScanKernel::kScalar, 1},   // reference scan, serial
      {ScanKernel::kScalar, 4},   // reference scan, sharded
      {ScanKernel::kAuto, hw},    // unrolled, every core
  };
  for (const Axis& axis : axes) {
    SCOPED_TRACE(testing::Message() << "kernel=" << scan_kernel_name(axis.kernel)
                                    << " jobs=" << axis.jobs);
    ScaleOptions opt;
    opt.scan_kernel = axis.kernel;
    Rng rng(11);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 8, rng)));
    Engine engine(cfg, std::move(topo), opt, 11);
    EXPECT_EQ(check::run_result_digest(engine.run(axis.jobs)),
              kPureRandomized200kDigest);
  }
}

TEST(ScaleParallel, CompactionSurvivesChurnCreditAndHeteroCaps) {
  // The endgame of the hardest pinned swarm — config churn,
  // depart-on-complete, the credit ledger under rarest-first, heterogeneous
  // download caps — where departing and completing nodes hold nearly full
  // dense rows. Each engine is built from its own options, and the second
  // point runs the reference scan sharded, an axis the test above crosses
  // only at jobs 1.
  constexpr std::uint32_t kNodes = 200000;
  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 32;
  cfg.server_upload_capacity = 8;
  cfg.depart_on_complete = true;
  cfg.departures = {{4, 777}, {11, 1234}, {25, 99999}};
  cfg.max_ticks = 64;
  cfg.download_capacities.assign(kNodes, 2);
  for (NodeId c = 1; c < kNodes; c += 7) cfg.download_capacities[c] = 3;

  const auto digest_with = [&](ScanKernel kernel, unsigned jobs) {
    ScaleOptions opt;
    opt.policy = BlockPolicy::kRarestFirst;
    opt.credit_limit = 3;
    opt.scan_kernel = kernel;
    Rng rng(29);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 16, rng)));
    Engine engine(cfg, std::move(topo), opt, 29);
    return check::run_result_digest(engine.run(jobs));
  };

  EXPECT_EQ(digest_with(ScanKernel::kAuto, 1), kCreditRarest200kDigest);
  EXPECT_EQ(digest_with(ScanKernel::kScalar, 4), kCreditRarest200kDigest);
}

TEST(ScaleParallel, SixteenGenerateShardsOnePerClaimPinned) {
  // n = 2^16 at the default 4096-node shards: 16 intent shards, so the
  // pool claims one shard at a time at every job count above 1 and
  // neighbouring shards always run on different workers. Per-shard state
  // that shares a cache line is contended hardest here; whatever its
  // layout, the run must match the serial one bit for bit.
  constexpr std::uint32_t kNodes = 65536;
  EngineConfig cfg;
  cfg.num_nodes = kNodes;
  cfg.num_blocks = 256;

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(1);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(kNodes, 16, rng)));
    Engine engine(cfg, std::move(topo), ScaleOptions{}, 1);
    const RunResult r = engine.run(jobs);
    EXPECT_TRUE(r.completed) << "jobs=" << jobs;
    return check::run_result_digest(r);
  };

  for (const unsigned jobs : {1u, 2u, 4u}) {
    EXPECT_EQ(digest_at(jobs), kSixteenShards65kDigest) << "jobs=" << jobs;
  }
}

TEST(ScaleParallel, DeterministicSchedulersQuarterMillionNodesPinned) {
  constexpr std::uint32_t kNodes = 262144;  // 2^18
  constexpr std::uint32_t kBlocks = 64;
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());

  const auto digest_at = [&](SchedKind kind, unsigned jobs) {
    EngineConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.num_blocks = kBlocks;
    if (kind == SchedKind::kRifflePipeline) cfg.download_capacity = 2;
    ScaleOptions opt;
    opt.scheduler = kind;
    if (kind == SchedKind::kTriangularBarter) opt.credit_limit = 1;
    auto topo = std::make_shared<Topology>(Topology::complete(kNodes));
    Engine engine(cfg, std::move(topo), opt, 7);
    const RunResult r = engine.run(jobs);
    EXPECT_TRUE(r.completed);
    // Every client downloads each block exactly once, whatever the mechanism.
    EXPECT_EQ(r.total_transfers, static_cast<Count>(kNodes - 1) * kBlocks);
    return check::run_result_digest(r);
  };

  for (const auto& [kind, pinned] :
       {std::pair{SchedKind::kBinomialPipeline, kBinomial262kDigest},
        {SchedKind::kTriangularBarter, kTriangular262kDigest},
        {SchedKind::kRifflePipeline, kRiffle262kDigest}}) {
    const std::uint64_t serial = digest_at(kind, 1);
    EXPECT_EQ(serial, pinned) << sched_kind_name(kind);
    EXPECT_EQ(digest_at(kind, 4), serial) << sched_kind_name(kind);
    EXPECT_EQ(digest_at(kind, hw), serial) << sched_kind_name(kind);
  }
}

// --- The planned path: the riffle scheduler hands each tick's stream to the
// merge from begin_tick, skipping the sharded generate. Its streams must be
// the ones the sharded generate produced (these digests were captured from
// that path), on every tick shape the merge distinguishes. ---

constexpr std::uint64_t kRiffleSparse4096Digest = 17706418616339102779ULL;  // k = 64
constexpr std::uint64_t kRiffleDense4096Stream = 1413290932520877083ULL;    // k = 4095
constexpr std::uint64_t kRiffleMixed4096Stream = 13583063037662116725ULL;   // k = 4100

constexpr std::uint32_t kSparseTickIntents = 2048;  // engine.cc's threshold

std::unique_ptr<Engine> riffle_engine(std::uint32_t n, std::uint32_t k,
                                      bool record_trace) {
  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.download_capacity = 2;  // Theorem 3's d = 2u regime
  cfg.record_trace = record_trace;
  ScaleOptions opt;
  opt.scheduler = SchedKind::kRifflePipeline;
  return std::make_unique<Engine>(
      cfg, std::make_shared<Topology>(Topology::complete(n)), opt, 7);
}

std::uint64_t fnv_mix(std::uint64_t h, std::uint64_t v) {
  for (unsigned i = 0; i < 8; ++i) h = (h ^ ((v >> (8 * i)) & 0xffu)) * 0x100000001b3ULL;
  return h;
}

std::uint64_t tick_digest(std::span<const Transfer> stream) {
  std::uint64_t h = fnv_mix(0xcbf29ce484222325ULL, stream.size());
  for (const Transfer& tr : stream) {
    h = fnv_mix(fnv_mix(fnv_mix(h, tr.from), tr.to), tr.block);
  }
  return h;
}

// Drives the engine in lockstep with step() until every client completes;
// returns one digest per tick of the accepted stream.
std::vector<std::uint64_t> stepped_ticks(Engine& engine, unsigned jobs) {
  ThreadPool pool(jobs);
  std::vector<std::uint64_t> ticks;
  while (!engine.all_complete()) ticks.push_back(tick_digest(engine.step(&pool)));
  return ticks;
}

std::uint64_t stream_digest(const std::vector<std::uint64_t>& ticks) {
  std::uint64_t h = fnv_mix(0xcbf29ce484222325ULL, ticks.size());
  for (const std::uint64_t t : ticks) h = fnv_mix(h, t);
  return h;
}

TEST(ScaleParallel, RifflePlannedSparseTicksPinned) {
  // n = 4096, k = 64: every tick carries a few dozen transfers, so every
  // tick takes the serial admission straight from the planned stream.
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const RunResult r = riffle_engine(4096, 64, /*record_trace=*/true)->run(jobs);
    ASSERT_TRUE(r.completed) << "jobs=" << jobs;
    EXPECT_EQ(r.completion_tick, 4096u + 64u - 2u);
    EXPECT_LE(*std::max_element(r.uploads_per_tick.begin(), r.uploads_per_tick.end()),
              kSparseTickIntents);
    EXPECT_EQ(check::run_result_digest(r), kRiffleSparse4096Digest) << "jobs=" << jobs;
  }
}

TEST(ScaleParallel, RifflePlannedDenseTicksPinned) {
  // n = 4096, k = 4095: one full riffle cycle over all n - 1 clients, whose
  // middle ticks carry ~n barters — above the sparse threshold, so the
  // engine cuts the planned stream into sender shards for the dense merge.
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const RunResult r = riffle_engine(4096, 4095, /*record_trace=*/false)->run(jobs);
    ASSERT_TRUE(r.completed) << "jobs=" << jobs;
    EXPECT_EQ(r.completion_tick, 4096u + 4095u - 2u);
    EXPECT_GT(*std::max_element(r.uploads_per_tick.begin(), r.uploads_per_tick.end()),
              kSparseTickIntents);
    const auto stepped = riffle_engine(4096, 4095, /*record_trace=*/false);
    EXPECT_EQ(stream_digest(stepped_ticks(*stepped, jobs)), kRiffleDense4096Stream)
        << "jobs=" << jobs;
  }
}

TEST(ScaleParallel, RiffleLockstepReplayOutOfOrderMatchesTheForwardStream) {
  // k = 4100 = (n - 1) + 5: a dense full cycle, then sparse subgroup
  // remainders. The forward step() drive is pinned at every job count; a
  // fresh engine then plans the ticks in descending order, so every
  // begin_tick call rewinds the scheduler's segment cursor, and each tick's
  // stream must still equal the forward one. (The riffle's intents read no
  // swarm state, so planning without applying is a faithful replay.)
  std::vector<std::uint64_t> forward;
  for (const unsigned jobs : {1u, 2u, 4u}) {
    const auto engine = riffle_engine(4096, 4100, /*record_trace=*/false);
    const std::vector<std::uint64_t> ticks = stepped_ticks(*engine, jobs);
    EXPECT_EQ(stream_digest(ticks), kRiffleMixed4096Stream) << "jobs=" << jobs;
    if (forward.empty()) forward = ticks;
  }
  ASSERT_FALSE(forward.empty());

  const auto replay = riffle_engine(4096, 4100, /*record_trace=*/false);
  std::vector<Transfer> planned;
  for (auto t = static_cast<Tick>(forward.size()); t >= 1; --t) {
    planned.clear();
    replay->plan(t, planned);
    ASSERT_EQ(tick_digest(planned), forward[t - 1]) << "tick " << t;
  }
}

TEST(ScaleParallel, TraceDigestStableAcrossJobsWithChurnAndCredit) {
  EngineConfig cfg;
  cfg.num_nodes = 2500;
  cfg.num_blocks = 65;  // tail word in play
  cfg.record_trace = true;
  cfg.depart_on_complete = true;
  cfg.departures = {{2, 17}, {6, 400}};
  cfg.download_capacities.assign(2500, 2);
  cfg.download_capacities[42] = 4;

  ScaleOptions opt;
  opt.policy = BlockPolicy::kRarestFirst;
  opt.credit_limit = 2;
  opt.shard_nodes = 97;  // many intent shards, boundaries mid-swarm

  const auto digest_at = [&](unsigned jobs) {
    Rng rng(3);
    auto topo = std::make_shared<Topology>(
        Topology::from_graph(make_random_regular(2500, 12, rng)));
    Engine engine(cfg, std::move(topo), opt, 3);
    return check::run_result_digest(engine.run(jobs));
  };

  const std::uint64_t serial = digest_at(1);
  EXPECT_EQ(serial, kTrace2500Digest);
  EXPECT_EQ(digest_at(2), serial);
  EXPECT_EQ(digest_at(4), serial);
  EXPECT_EQ(digest_at(16), serial);

  // With record_trace on, the digest covers every transfer of every tick —
  // the scalar reference kernel must reproduce them all, across jobs too.
  opt.scan_kernel = ScanKernel::kScalar;
  EXPECT_EQ(digest_at(1), serial);
  EXPECT_EQ(digest_at(4), serial);
}

}  // namespace
}  // namespace pob::scale
