// The mega-swarm engine: a structure-of-arrays reimplementation of the
// randomized cooperative protocol (§2.4) and its credit-limited barter
// variant (§3.2) designed for swarms of 10^6 nodes and beyond.
//
// Where core::Engine is general (any Scheduler, any Mechanism, machine-
// checked validation of every tick), scale::Engine serves a fixed set of
// ScaleSchedulers (see SchedKind) and trades generality for density:
//
//   * possession is one contiguous arena of packed uint64 bitset rows
//     (n * ceil(k/64) words), not n separate BlockSet allocations;
//   * neighbor adjacency is CSR (scale::Topology), not a virtual Overlay;
//   * each tick runs in three phases — INTENT GENERATION sharded by sender
//     range, a MERGE sharded by receiver range, and an APPLY sharded by
//     receiver (state commit) and sender (upload accounting) — all three on
//     the pob/exp ThreadPool. The transfer stream and the final RunResult
//     are bit-identical at any --jobs value: a scheduler's intents are a
//     pure function of (state, seed, tick, node) — the randomized one via
//     trial_seed-derived per-node RNG streams — every merge constraint is
//     per-receiver (so receiver shards decide independently, each walking
//     its receivers' intents in canonical node order), and the accepted
//     stream is reconstructed from per-intent accept flags in the exact
//     order the old serial merge emitted. Shard counts are pure functions
//     of n, never of the worker count.
//
// The engine owns swarm state, the merge and the apply; a ScaleScheduler
// (scheduler.h) owns how a tick's intents are generated. The §2.4 probe walk
// lives in RandomizedScheduler (sched_randomized.h), which reads the state
// below only through the const accessors: possession rows, the hierarchical
// summaries, possession versions, active flags, capacities, replica counts,
// the credit ledger and the arrival counter. Two pieces of that state exist
// for the probe walk's sake and are maintained in the apply commit:
//
//   * a HIERARCHICAL SUMMARY per node (one bit per 64-block possession
//     word, tail bits masked): `summary_has` marks words holding at least
//     one block, `summary_missing` marks words still missing at least one.
//     A probe u -> v can only be useful where summary_has(u) AND
//     summary_missing(v) is nonzero, so near-complete receivers and empty
//     chunks reject probes in O(ceil(k/4096)) words without touching the
//     possession rows.
//   * a POSSESSION VERSION per node: the delivered-block count. Deliveries
//     are the only possession changes, so count_ doubles as the version
//     array the scheduler keys its per-node skip on.
//
// The engine also fights the memory system directly: the big arenas are
// madvise(MADV_HUGEPAGE)d so random row accesses stop paying 4 KiB TLB
// walks, which also lets the scheduler's software prefetches fire. None of
// this changes a comparison outcome, so the intent stream is untouched.
//
// The engine emits only legal transfers by construction; it is NOT trusted
// on its own. scale::MirrorScheduler replays the exact same plan/apply
// semantics through core::Engine and the pob/check reference oracle, and
// the scenario fuzzer cross-checks all three on overlapping n (see
// pob/check/scenario.h, EngineKind::kScale) — including the scalar and
// unrolled scan kernels against each other.

#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "pob/core/engine.h"
#include "pob/core/rng.h"
#include "pob/core/types.h"
#include "pob/exp/parallel.h"
#include "pob/mech/barter.h"
#include "pob/rand/randomized.h"
#include "pob/scale/scheduler.h"
#include "pob/scale/topology.h"

namespace pob::scale {

/// Which word-diff kernel the generate phase uses. kAuto is the portable
/// four-word unrolled uint64 sweep; kScalar forces the one-word-at-a-time
/// reference loop. Both orders are ascending-word and both record identical
/// diffs, so every digest is bit-identical across kernels — CI pins the
/// 200k run both ways.
enum class ScanKernel : std::uint8_t { kAuto = 0, kScalar = 1 };

/// The name of the path `kernel` selects: "unrolled" for kAuto, "scalar"
/// for kScalar.
const char* scan_kernel_name(ScanKernel kernel);

struct ScaleOptions {
  /// Block selection within u \ v: uniform random or globally rarest first
  /// (§2.4 / §3.2.4's "perfect statistics").
  BlockPolicy policy = BlockPolicy::kRandom;

  /// Neighbor probes per upload slot before the node gives up for the tick.
  /// The practical handshake protocol: no exhaustive fallback scan — at
  /// n = 10^6 an O(degree) scan per idle node would dominate the tick.
  std::uint32_t max_probes = 16;

  /// 0 = cooperative (no constraint); >= 1 enables the §3.2 credit-limited
  /// barter predicate: client u uploads to client v only while the pairwise
  /// net (pre-tick ledger) stays below the limit. The emitted stream always
  /// satisfies CreditLimited::check_tick.
  ///
  /// Under kTriangularBarter the limit must be >= 1, but the engine keeps no
  /// ledger for it: the deterministic schedule is CyclicBarter(3, 1)-
  /// compliant by construction and never consults one, and the mirror and
  /// fuzz checks run their own CyclicBarter. Only the randomized generate
  /// reads the ledger, so only kRandomized commits record it.
  std::uint32_t credit_limit = 0;

  /// Which ScaleScheduler generates intents; see SchedKind (scheduler.h).
  /// The deterministic kinds place hard requirements on the config —
  /// power-of-two n, uniform unit upload capacity, no churn, and per-kind
  /// topology/capacity/credit rules — each rejected with a distinct
  /// EngineViolation at construction.
  SchedKind scheduler = SchedKind::kRandomized;

  /// Nodes per intent shard in the parallel generation phase. Shard count
  /// is a pure function of n (never of the job count), so chunk assignment
  /// cannot leak into results.
  std::uint32_t shard_nodes = 4096;

  /// Accumulate per-phase wall-clock (generate / merge / apply) across the
  /// ticks of one run() call, readable via phase_timings(). Off by default:
  /// the two clock reads per phase are cheap but pure overhead for fuzzing
  /// and tests.
  bool collect_phase_timings = false;

  /// Word-diff kernel selection; see ScanKernel. Results are identical
  /// either way — kScalar exists so tests and CI can prove exactly that.
  ScanKernel scan_kernel = ScanKernel::kAuto;

  /// 0 = the paper's random block demand. >= 1 enables SEQUENTIAL demand
  /// with a sliding playback window (the pob/scale/stream VoD mode): a
  /// probe u -> v is viable only if the lowest block of su \ sv lies inside
  /// v's window [first_missing(v), first_missing(v) + stream_window), and
  /// the pick is always that lowest block (in-order priority, no RNG draw —
  /// the draw sequence differs from random mode by design; within one mode
  /// the stream stays bit-identical at any job count). Because a receiver's
  /// window advances when its prefix grows, a previously useless sender can
  /// become useful without the SENDER's version changing — so the
  /// randomized scheduler's per-node exhaustion skip is off in this mode.
  /// Randomized schedulers only.
  std::uint32_t stream_window = 0;
};

/// Wall-clock seconds accumulated per tick phase (see
/// ScaleOptions::collect_phase_timings); all zero when collection is off.
/// run() resets the accumulators on entry, so each call reports only its
/// own ticks; a lockstep drive accumulates across all its plan/apply calls.
struct PhaseTimings {
  double generate_seconds = 0.0;
  double merge_seconds = 0.0;
  double apply_seconds = 0.0;
};

class Engine {
 public:
  /// `config` uses the same EngineConfig as core::Engine; record_trace,
  /// departures, depart_on_complete, heterogeneous capacities, max_ticks
  /// and stall detection all behave identically. `topology->num_nodes()`
  /// must equal config.num_nodes. `seed` plays the role a scheduler Rng
  /// plays for core runs: the full run is a pure function of
  /// (config, topology, options, seed).
  Engine(const EngineConfig& config, std::shared_ptr<const Topology> topology,
         ScaleOptions options, std::uint64_t seed);

  /// Runs up to the tick cap (config.max_ticks per call, or the default
  /// cap) on `jobs` workers (0 = all cores, 1 = serial) and returns a
  /// RunResult with the exact same shape and semantics as core::Engine's —
  /// including dropped_transfers (always 0: the planner reads live state
  /// and never names a departed node) and active_slots_per_tick.
  ///
  /// run() is RESUMABLE: a second call continues the same swarm from where
  /// the previous call stopped (tick numbering, departures, the credit
  /// ledger and the depart-on-complete queue all carry over), so a capped
  /// run can be driven in windows. Per-call fields (ticks_executed,
  /// total_transfers, uploads_per_tick, trace, stall detection, phase
  /// timings) cover only that call's ticks; cumulative state (completion
  /// ticks, uploads_per_node, departed) reports global totals. Splitting
  /// one run into windows changes no transfer and no completion tick.
  /// Cannot be mixed with the lockstep API below.
  RunResult run(unsigned jobs = 1);

  // --- Lockstep API ---------------------------------------------------
  // MirrorScheduler (and tests) drive the engine one tick at a time so the
  // identical transfer stream can be validated by core::Engine and the
  // reference oracle. plan() runs phases 1+2 against the current state;
  // apply() commits an accepted stream; deactivate() injects departures
  // (run() handles config.departures itself — lockstep callers own churn).

  /// Appends this tick's merged transfer stream to `out`. Runs the sharded
  /// phases on the calling thread; produces exactly what run() would commit
  /// on this tick at any job count.
  void plan(Tick tick, std::vector<Transfer>& out);

  /// Commits a planned stream: possession bits and summaries, possession
  /// versions, replica counts, completion ticks, per-node upload totals,
  /// and the credit ledger. Serial; run() uses the receiver/sender-sharded
  /// commit instead, which leaves the engine in the identical state.
  void apply(Tick tick, std::span<const Transfer> accepted);

  /// Removes a node (idempotent; the server cannot depart): its capacity
  /// leaves the active upload slots, its replicas stop counting, and it no
  /// longer needs to complete.
  void deactivate(NodeId node);

  // --- Stream-driver API (pob/scale/stream) ----------------------------
  // The hybrid tick+event layer constructs the engine with every late
  // arrival pre-deactivated, then drives variable-population ticks through
  // step() while injecting arrivals and rate changes between ticks. All
  // mutators below are serial, called only between ticks.

  /// (Re)admits a node (idempotent; no-op for an active node): its capacity
  /// rejoins the active upload slots, its held blocks count as replicas
  /// again, and arrivals() advances — a fresh target appeared, which the
  /// randomized scheduler must see at its next begin_tick.
  void activate(NodeId node);

  /// Changes a node's capacities mid-run (client rule d >= u enforced,
  /// d >= 1; the server's download capacity is ignored as always). Takes
  /// effect at the next planned tick.
  void set_capacity(NodeId node, std::uint32_t up, std::uint32_t down);

  /// One variable-population tick on a caller-owned pool (nullptr = the
  /// calling thread): applies due config departures and the depart-on-
  /// complete queue exactly like run()'s loop head, then runs the sharded
  /// plan and the sharded commit. Returns the tick's accepted stream (valid
  /// until the next step/plan call). Like plan(), poisons run().
  std::span<const Transfer> step(ThreadPool* pool);

  /// Lowest block `node` is missing, or k if complete — O(summary words)
  /// via the missing-summary, then one possession word. The playback prefix
  /// of the sequential-demand mode: every block below it is held.
  BlockId first_missing(NodeId node) const;

  Tick current_tick() const { return tick_; }
  std::uint32_t blocks_held(NodeId node) const { return count_[node]; }
  /// Completion tick of `node` (0 = not complete yet).
  Tick node_completion(NodeId node) const { return completion_[node]; }
  std::uint64_t active_upload_slots() const { return active_slots_; }
  std::uint32_t num_departed() const { return num_departed_; }
  Count node_uploads(NodeId node) const { return uploads_per_node_[node]; }

  bool is_active(NodeId node) const { return active_[node] != 0; }
  bool is_complete(NodeId node) const { return count_[node] >= k_; }
  bool all_complete() const { return num_incomplete_ == 0; }
  /// One possession-word read: every node keeps its dense row from start
  /// to finish, complete nodes included.
  bool has(NodeId node, BlockId block) const {
    return (row(node)[block >> 6] >> (block & 63)) & 1u;
  }
  /// Highest block id `node` holds, kNoBlock if none — O(summary words) via
  /// the has-summary, then one possession word. The binomial pipeline's
  /// transmission rank is top_block + 1 (block ids are rank-ordered).
  BlockId top_block(NodeId node) const;

  const EngineConfig& config() const { return cfg_; }
  const Topology& topology() const { return *topo_; }
  const ScaleOptions& options() const { return opt_; }

  // --- Summary / version introspection (tests, invariant checks) -------

  /// Words per per-node summary row: ceil(ceil(k/64) / 64).
  std::uint32_t summary_words_per_row() const { return sum_stride_; }
  /// Summary word `g` of `node`: bit w set iff possession word (g*64 + w)
  /// holds at least one block.
  std::uint64_t summary_has_word(NodeId node, std::uint32_t g) const {
    return summary_has_[static_cast<std::size_t>(node) * sum_stride_ + g];
  }
  /// Summary word `g` of `node`: bit w set iff possession word (g*64 + w)
  /// is still missing at least one of its (tail-masked) blocks.
  std::uint64_t summary_missing_word(NodeId node, std::uint32_t g) const {
    return summary_missing_[static_cast<std::size_t>(node) * sum_stride_ + g];
  }
  /// Monotone counter bumped once per block `node` receives; the
  /// randomized scheduler's per-node skip is keyed on it. It is exactly the
  /// delivered-block count (the server's stays at k forever): deliveries
  /// are the only possession changes, so count and version coincide.
  std::uint32_t possession_version(NodeId node) const { return count_[node]; }

  // --- Read-only state for schedulers -----------------------------------
  // Everything a scheduler may read of the swarm. All of it is frozen
  // while a tick's intents are generated (the commit runs afterwards), and
  // none of the arrays moves after construction.

  /// Words per possession row: ceil(k/64).
  std::uint32_t words_per_row() const { return stride_; }
  /// `node`'s possession row (words_per_row() words, tail bits 0).
  const std::uint64_t* possession_row(NodeId node) const { return row(node); }
  /// One shared all-ones (tail-masked) row, word for word what a complete
  /// node's possession row holds.
  const std::uint64_t* full_row() const { return full_row_.data(); }
  /// `node`'s summary rows (summary_words_per_row() words each); see
  /// summary_has_word / summary_missing_word.
  const std::uint64_t* summary_has_row(NodeId node) const {
    return summary_has_.data() + static_cast<std::size_t>(node) * sum_stride_;
  }
  const std::uint64_t* summary_missing_row(NodeId node) const {
    return summary_missing_.data() + static_cast<std::size_t>(node) * sum_stride_;
  }
  /// possession_version of every node, indexed by node id (hot loops and
  /// prefetches take the array rather than one call per node).
  const std::uint32_t* possession_versions() const { return count_.data(); }
  /// is_active of every node as one byte per node id (nonzero = active).
  const std::uint8_t* active_flags() const { return active_.data(); }
  /// `node`'s upload slots per tick.
  std::uint32_t upload_capacity(NodeId node) const { return up_caps_[node]; }
  /// Replicas of `block` among active nodes.
  std::uint32_t replicas(BlockId block) const { return freq_[block]; }
  /// The §3.2 pairwise ledger, as of the start of the tick (recorded only
  /// for randomized credit-limited runs; see ScaleOptions::credit_limit).
  const CreditLedger& ledger() const { return ledger_; }
  std::uint64_t seed() const { return seed_; }
  /// Number of activate() calls that readmitted a node so far. A scheduler
  /// that caches "no viable target" verdicts compares it between ticks: an
  /// arrival is the one state change that creates targets.
  std::uint64_t arrivals() const { return arrivals_; }

  // --- Generate introspection (bench reports) ---------------------------
  // Bench reports print these three. The engine has one per-sender walk
  // and one dense possession row per node, so each is a constant.

  /// Senders in flight per generate walk: always 1, the per-sender probe
  /// walk.
  std::uint32_t batch_window() const { return 1; }
  /// Endgame-compaction threshold: always 0, every row stays dense.
  std::uint32_t compact_threshold() const { return 0; }
  /// Possession-arena bytes handed back to the OS mid-run: always 0, the
  /// arena lives until the engine does.
  std::uint64_t arena_released_bytes() const { return 0; }

  /// Per-phase wall-clock for the current/most recent run() call (or the
  /// lockstep drive so far); zeros unless options().collect_phase_timings.
  PhaseTimings phase_timings() const { return timings_; }

  /// Arena + index + tick-scratch memory actually allocated, for bench
  /// reporting: possession arena and summaries, the shared full row,
  /// per-node arrays (counts — which double as possession versions —
  /// capacities, upload totals), topology CSR, the per-shard intent
  /// vectors, the scheduler's own memory (ScaleScheduler::memory_bytes), the
  /// merge/apply scratch (buckets, accept flags, admission tables, frequency
  /// scratch), and the credit ledger. Nothing is freed mid-run, so the
  /// figure never shrinks.
  std::uint64_t state_bytes() const;

 private:
  // A (receiver, block) admission table: open-addressed, epoch-stamped so a
  // tick reset is O(1) and a million inserts touch no allocator. One table
  // per receiver shard; a receiver's deliveries land in exactly one table.
  class PairTable {
   public:
    void begin_tick(std::size_t expected);
    bool insert(std::uint64_t key);  ///< false if already present this tick

    /// Warms the home slot of a key about to be inserted (the table is a
    /// random-indexed miss per insert otherwise; the admission loop runs a
    /// few keys ahead of itself).
    void prefetch(std::uint64_t key) const {
      __builtin_prefetch(slots_.data() + (hash(key) & mask_), 1, 1);
    }

    std::uint64_t memory_bytes() const {
      return slots_.capacity() * sizeof(Slot);
    }

   private:
    // splitmix64 finalizer; good avalanche for open-addressed probing.
    static std::uint64_t hash(std::uint64_t x) {
      x += 0x9e3779b97f4a7c15ULL;
      x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
      x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
      return x ^ (x >> 31);
    }

    // Key and epoch share a slot so a probe touches one cache line, not a
    // line in each of two parallel arrays.
    struct Slot {
      std::uint64_t key;
      std::uint32_t epoch;
    };
    std::vector<Slot> slots_;
    std::uint64_t mask_ = 0;
    std::uint32_t epoch_ = 0;
  };

  // One intent, tagged with its global position in the canonical
  // (sender-node-ordered) intent stream so accept flags and the emitted
  // stream can be reconstructed in that order after receiver-sharded
  // admission.
  struct MergeItem {
    Transfer tr;
    std::uint32_t idx;
  };

  std::uint64_t* row(NodeId node) {
    return rows_ + static_cast<std::size_t>(node) * stride_;
  }
  const std::uint64_t* row(NodeId node) const {
    return rows_ + static_cast<std::size_t>(node) * stride_;
  }

  /// The full-word mask of possession word w (tail-masked for the last word
  /// when k is not a multiple of 64).
  std::uint64_t word_full_mask(std::uint32_t w) const {
    return (w + 1 == stride_) ? tail_mask_ : ~0ULL;
  }

  std::uint32_t recv_shard_of(NodeId v) const { return v >> recv_shift_; }

  /// True iff commits record the §3.2 pairwise ledger. Only the randomized
  /// generate reads it (its credit precheck), so the deterministic kinds —
  /// triangular barter included — skip the record.
  bool records_ledger() const {
    return opt_.credit_limit != 0 && opt_.scheduler == SchedKind::kRandomized;
  }

  /// Commits one delivery's summary bookkeeping for `to` after the
  /// possession bit of `block` has been set in `word`. (The version bump is
  /// the caller's count_ increment — count doubles as the version.)
  void note_delivery(NodeId to, BlockId block, std::uint64_t word);

  /// Commits one delivery to `to`'s possession row, including summaries
  /// and the count/version bump. Returns true iff the node just completed.
  /// Called only from the receiver's owning context (serial commit or its
  /// receiver shard), so it needs no synchronization.
  bool deliver_block(NodeId to, BlockId block);

  /// The loop head of run() and step(): deactivates the config departures
  /// due by tick_, then the depart-on-complete queue, both at the START of
  /// the tick.
  void depart_due();

  void plan_phases(Tick tick, std::vector<Transfer>& out, ThreadPool* pool);
  /// The serial commit loop shared by the public apply() and the sparse-tick
  /// fast path of apply_merged().
  void commit_serial(Tick tick, std::span<const Transfer> accepted);
  /// Commits the stream the immediately preceding plan_phases() call
  /// produced, reusing its receiver buckets and accept flags: possession /
  /// summaries / counts / completion sharded by receiver, upload totals
  /// sharded by sender (the accepted stream is non-decreasing in `from`),
  /// frequency deltas reduced from per-shard scratch in fixed shard order,
  /// ledger commit serial. Leaves the engine in the exact state apply()
  /// would.
  void apply_merged(Tick tick, std::span<const Transfer> accepted, ThreadPool* pool);

  EngineConfig cfg_;
  std::shared_ptr<const Topology> topo_;
  ScaleOptions opt_;
  std::uint64_t seed_ = 0;

  std::uint32_t n_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t stride_ = 0;      // words per possession row
  std::uint32_t sum_stride_ = 0;  // words per summary row
  std::uint64_t tail_mask_ = ~0ULL;  // full mask of the last possession word

  // Structure-of-arrays swarm state. The possession version of a node is
  // count_[node] — see possession_version(). The three random-read arenas
  // live on hugepage-preferring buffers (hugemem.h): TLB relief, and a
  // prerequisite for the generate phase's software prefetch to fire at all.
  HugeBuffer<std::uint64_t> bits_;  // possession arena + alignment slack
  std::uint64_t* rows_ = nullptr;   // 64-byte-aligned base inside bits_
  HugeBuffer<std::uint64_t> summary_has_;      // n * sum_stride hierarchy
  HugeBuffer<std::uint64_t> summary_missing_;  // n * sum_stride hierarchy

  // One shared all-ones possession row (tail-masked): every complete
  // sender's scans read through this single hot line instead of n identical
  // arena rows scattered across the arena.
  std::vector<std::uint64_t> full_row_;

  HugeBuffer<std::uint32_t> count_;       // blocks held per node
  std::vector<Tick> completion_;          // completion tick per node (0 = not)
  HugeBuffer<std::uint8_t> active_;       // 0 once departed
  std::vector<std::uint32_t> freq_;       // per-block replica count (active nodes)
  std::vector<std::uint32_t> up_caps_;    // resolved per-node capacities
  std::vector<std::uint32_t> down_caps_;
  bool down_caps_unlimited_ = false;  // merge skips capacity bookkeeping
  std::vector<Count> uploads_per_node_;
  std::uint32_t num_incomplete_ = 0;
  std::uint32_t num_departed_ = 0;
  std::uint64_t active_slots_ = 0;
  std::uint64_t arrivals_ = 0;  // readmissions by activate(); see arrivals()
  CreditLedger ledger_;  // §3.2 pairwise net-transfer ledger; see records_ledger

  // Receiver shards: contiguous node-id ranges of width recv_width_ (a
  // power of two, so the merge's three million-intent passes shard with a
  // shift instead of an integer division). Every merge/apply constraint
  // that crosses sender shards is per-receiver, so shard r exclusively owns
  // down_used_/down_stamp_/count_/completion_/possession+summary rows for
  // its range. All three values are pure functions of n — and because each
  // receiver lives wholly inside one shard and shards decide independently
  // in canonical order, the admitted stream does not depend on the widths.
  std::uint32_t recv_shards_ = 1;
  std::uint32_t recv_width_ = 1;
  std::uint32_t recv_shift_ = 0;

  // Resumable-run cursor: global tick counter and the next config departure
  // to apply, both carried across run() calls.
  Tick tick_ = 0;
  std::vector<std::pair<Tick, NodeId>> departures_;  // sorted copy
  std::size_t next_departure_ = 0;

  // The intent generator (scheduler.h), constructed from opt_.scheduler; it
  // owns its own scratch (the randomized probe walk's scans and per-node
  // stamps, the riffle's segments).
  std::unique_ptr<ScaleScheduler> sched_;

  // What one intent shard writes during the tick: its generate output and
  // its accepted-intent count in the merge's emit pass.
  struct SenderShard {
    std::vector<Transfer> intents;  // sharded generate only
    std::uint32_t accepted = 0;
  };
  // What one receiver shard writes during the tick: its admission table in
  // the merge, its completions and their depart-on-complete queue in the
  // commit.
  struct ReceiverShard {
    PairTable delivered;
    std::vector<NodeId, CacheLineAllocator<NodeId>> leaving;
    std::uint32_t completions = 0;
  };
  static_assert(alignof(ShardSlot<SenderShard>) == kCacheLine &&
                sizeof(ShardSlot<SenderShard>) % kCacheLine == 0);
  static_assert(alignof(ShardSlot<ReceiverShard>) == kCacheLine &&
                sizeof(ShardSlot<ReceiverShard>) % kCacheLine == 0);

  // Tick scratch (reused, never shrunk). Everything a shard writes during a
  // phase sits on cache lines no other shard writes: per-shard state in a
  // ShardSlot, per-shard rows padded to whole lines on a line-aligned base.
  std::vector<ShardSlot<SenderShard>> senders_;
  // The dense merge's per-intent-shard input: the shard's intents, or its
  // sender slice of the scheduler's planned stream.
  std::vector<std::span<const Transfer>> shard_view_;
  std::vector<std::uint32_t> down_used_;    // stamped by down_stamp_
  std::vector<Tick> down_stamp_;
  std::vector<ShardSlot<ReceiverShard>> receivers_;
  std::vector<std::size_t> intent_offsets_; // canonical stream offsets, S+1
  // S rows of R counts, then cursors; each row padded to whole lines.
  std::vector<std::uint32_t, CacheLineAllocator<std::uint32_t>> scatter_pos_;
  std::size_t scatter_stride_ = 0;          // row pitch of scatter_pos_
  std::vector<std::uint32_t> bucket_offsets_;  // R+1 into bucket_
  std::vector<MergeItem> bucket_;           // intents grouped by recv shard
  std::vector<std::uint8_t> accept_;        // admission flag per intent idx
  std::vector<std::uint32_t> emit_offsets_; // accepted-stream offsets, S+1
  ShardScratch<std::uint32_t> freq_scratch_;   // R x k frequency deltas
  std::vector<NodeId> leaving_;  // depart_on_complete queue (run() only)
  std::vector<Transfer> accepted_;

  PhaseTimings timings_;
  bool lockstep_ = false;  // plan() called; run() may no longer be used

  // Set by plan_phases when the tick's intent total is at or below the
  // sparse threshold: the merge ran serially in canonical order (no buckets,
  // no accept flags), so apply_merged must commit serially too. A pure
  // function of the intent stream, hence identical at any job count. This is
  // what makes million-tick deterministic runs (riffle: T = n + k - 2 ticks
  // of ~k intents) affordable — the O(shards * recv_shards) merge scaffolding
  // and the O(R * k) frequency reduce would otherwise dominate every tick.
  bool sparse_tick_ = false;
};

}  // namespace pob::scale
