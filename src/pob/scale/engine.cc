#include "pob/scale/engine.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <chrono>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <string>

#include "pob/scale/hugemem.h"
#include "pob/scale/sched_binomial.h"
#include "pob/scale/sched_randomized.h"
#include "pob/scale/sched_riffle.h"

namespace pob::scale {

namespace {

std::uint64_t delivery_key(NodeId to, BlockId block) {
  return (static_cast<std::uint64_t>(to) << 32) | block;
}

// Runs body(s) for s in [0, count): on the pool when it has real workers,
// inline otherwise. Every caller's body writes only shard-owned state, so
// the two paths are observationally identical — jobs=1 runs the exact same
// sharded algorithm, just serially.
void for_shards(ThreadPool* pool, std::uint32_t count,
                const std::function<void(std::uint32_t)>& body) {
  if (pool != nullptr && pool->jobs() > 1 && count > 1) {
    pool->parallel_for(count, body);
  } else {
    for (std::uint32_t s = 0; s < count; ++s) body(s);
  }
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Ticks with at most this many intents take the serial merge/commit fast
// path (see Engine::sparse_tick_). The threshold compares against the tick's
// intent total — a pure function of the intent stream — so the path taken is
// identical at any job count. 2048 intents is far below where the sharded
// scaffolding starts paying for itself.
constexpr std::uint32_t kSparseTickIntents = 2048;

}  // namespace

const char* scan_kernel_name(ScanKernel kernel) {
  return kernel == ScanKernel::kScalar ? "scalar" : "unrolled";
}

// --- PairTable -----------------------------------------------------------

void Engine::PairTable::begin_tick(std::size_t expected) {
  std::size_t want = 16;
  while (want < expected * 2) want <<= 1;  // load factor <= 0.5
  if (slots_.size() < want) {
    slots_.assign(want, Slot{0, 0});
    mask_ = want - 1;
    epoch_ = 0;
  }
  if (++epoch_ == 0) {  // epoch wrapped: stale stamps would alias
    for (Slot& s : slots_) s.epoch = 0;
    epoch_ = 1;
  }
}

bool Engine::PairTable::insert(std::uint64_t key) {
  auto i = static_cast<std::size_t>(hash(key) & mask_);
  while (slots_[i].epoch == epoch_) {
    if (slots_[i].key == key) return false;
    i = (i + 1) & static_cast<std::size_t>(mask_);
  }
  slots_[i] = Slot{key, epoch_};
  return true;
}

// --- Engine --------------------------------------------------------------

Engine::Engine(const EngineConfig& config, std::shared_ptr<const Topology> topology,
               ScaleOptions options, std::uint64_t seed)
    : cfg_(config), topo_(std::move(topology)), opt_(options), seed_(seed) {
  // Same validation, same exception types, same order as core's
  // run_with_state — a config that one engine rejects must not silently run
  // on the other.
  if (cfg_.num_nodes < 2) throw std::invalid_argument("scale: num_nodes < 2");
  if (cfg_.num_blocks < 1) throw std::invalid_argument("scale: num_blocks < 1");
  if (cfg_.upload_capacity < 1) throw std::invalid_argument("scale: upload_capacity < 1");
  if (cfg_.download_capacity < 1) throw std::invalid_argument("scale: download_capacity < 1");
  if (topo_ == nullptr || topo_->num_nodes() != cfg_.num_nodes) {
    throw std::invalid_argument("scale: topology does not match num_nodes");
  }
  if (opt_.max_probes < 1) throw std::invalid_argument("scale: max_probes < 1");
  if (opt_.shard_nodes < 1) throw std::invalid_argument("scale: shard_nodes < 1");

  const std::uint32_t n = cfg_.num_nodes;
  if (!cfg_.upload_capacities.empty() && cfg_.upload_capacities.size() != n) {
    throw EngineViolation("config: upload_capacities has " +
                          std::to_string(cfg_.upload_capacities.size()) +
                          " entries for " + std::to_string(n) + " nodes");
  }
  if (!cfg_.download_capacities.empty() && cfg_.download_capacities.size() != n) {
    throw EngineViolation("config: download_capacities has " +
                          std::to_string(cfg_.download_capacities.size()) +
                          " entries for " + std::to_string(n) + " nodes");
  }
  for (const auto& [dep_tick, dep_node] : cfg_.departures) {
    (void)dep_tick;
    if (dep_node == kServer) {
      throw EngineViolation("config: departure names the server (node 0)");
    }
    if (dep_node >= n) {
      throw EngineViolation("config: departure names out-of-range node " +
                            std::to_string(dep_node) + " (num_nodes " +
                            std::to_string(n) + ")");
    }
  }

  n_ = n;
  k_ = cfg_.num_blocks;
  stride_ = (k_ + 63) / 64;
  sum_stride_ = (stride_ + 63) / 64;
  tail_mask_ = (k_ & 63) != 0 ? (1ULL << (k_ & 63)) - 1 : ~0ULL;

  const std::uint32_t server_up = cfg_.server_upload_capacity != 0
                                      ? cfg_.server_upload_capacity
                                      : cfg_.upload_capacity;
  up_caps_.resize(n_);
  down_caps_.resize(n_);
  for (NodeId u = 0; u < n_; ++u) {
    up_caps_[u] = !cfg_.upload_capacities.empty()
                      ? cfg_.upload_capacities[u]
                      : (u == kServer ? server_up : cfg_.upload_capacity);
    down_caps_[u] = !cfg_.download_capacities.empty() ? cfg_.download_capacities[u]
                                                      : cfg_.download_capacity;
  }
  for (NodeId c = 1; c < n_; ++c) {
    if (down_caps_[c] < up_caps_[c]) {
      throw EngineViolation("config: client " + std::to_string(c) +
                            " has download capacity " + std::to_string(down_caps_[c]) +
                            " < upload capacity " + std::to_string(up_caps_[c]) +
                            " (the model requires d >= u)");
    }
  }
  down_caps_unlimited_ = std::all_of(
      down_caps_.begin(), down_caps_.end(),
      [](std::uint32_t c) { return c == kUnlimited; });

  // Deterministic schedulers run fixed closed-form schedules; a config the
  // schedule was not derived for must be rejected loudly (distinct message
  // per rule), never silently produce garbage intents.
  if (opt_.scheduler != SchedKind::kRandomized) {
    const char* sname = sched_kind_name(opt_.scheduler);
    if (opt_.stream_window != 0) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " emits a fixed schedule; sequential stream "
                            "demand (stream_window) is randomized-only");
    }
    if (!std::has_single_bit(n)) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " requires power-of-two num_nodes (got " +
                            std::to_string(n) + ")");
    }
    if (!cfg_.upload_capacities.empty() || !cfg_.download_capacities.empty()) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " requires uniform capacities (per-node capacity "
                            "vectors are not supported)");
    }
    if (cfg_.upload_capacity != 1 || server_up > 1) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " requires unit upload capacity (upload_capacity "
                            "1, server_upload_capacity <= 1)");
    }
    if (!cfg_.departures.empty() || cfg_.depart_on_complete) {
      throw EngineViolation(std::string("scale: ") + sname +
                            " does not support churn (departures / "
                            "depart_on_complete)");
    }
    if (opt_.scheduler == SchedKind::kRifflePipeline) {
      if (!topo_->is_complete()) {
        throw EngineViolation(
            "scale: riffle-pipeline requires the complete topology");
      }
      if (cfg_.download_capacity < 2) {
        throw EngineViolation(
            "scale: riffle-pipeline requires download capacity >= 2 (a "
            "server hand-off may land on a bartering client)");
      }
      if (opt_.credit_limit != 0) {
        throw EngineViolation(
            "scale: riffle-pipeline is strict barter; credit_limit must be 0");
      }
    } else {
      // Binomial pipeline / triangular barter: every hypercube edge must be
      // present in the overlay (the complete graph trivially qualifies).
      if (!topo_->is_complete()) {
        const std::uint32_t dims = static_cast<std::uint32_t>(std::countr_zero(n));
        const auto has_edge = [&](NodeId u, NodeId v) {
          std::uint32_t lo = 0;
          std::uint32_t hi = topo_->degree(u);
          while (lo < hi) {  // neighbor lists are ascending (topology.h)
            const std::uint32_t mid = lo + (hi - lo) / 2;
            const NodeId w = topo_->neighbor(u, mid);
            if (w < v) {
              lo = mid + 1;
            } else if (w > v) {
              hi = mid;
            } else {
              return true;
            }
          }
          return false;
        };
        for (NodeId u = 0; u < n; ++u) {
          for (std::uint32_t d = 0; d < dims; ++d) {
            const NodeId v = u ^ (NodeId{1} << d);
            if (!has_edge(u, v)) {
              throw EngineViolation(std::string("scale: ") + sname +
                                    " requires the hypercube overlay: missing "
                                    "edge " +
                                    std::to_string(u) + " <-> " +
                                    std::to_string(v));
            }
          }
        }
      }
      if (opt_.scheduler == SchedKind::kBinomialPipeline && opt_.credit_limit != 0) {
        throw EngineViolation(
            "scale: binomial-pipeline is cooperative; credit_limit must be 0");
      }
      if (opt_.scheduler == SchedKind::kTriangularBarter && opt_.credit_limit < 1) {
        throw EngineViolation(
            "scale: triangular-barter requires credit_limit >= 1");
      }
    }
  }

  // Every per-probe random access lands in one of the arrays below. The
  // big uint64 arenas go through huge_alloc (hugemem.h), which asks for
  // transparent hugepages (MADV_HUGEPAGE). Beyond plain TLB relief this is
  // what makes the generate phase's windowed prefetch real — software
  // prefetches that miss the TLB are dropped on common cores, so with
  // 4 KiB pages most row prefetches into a 64 MiB arena would silently do
  // nothing.
  //
  // Over-allocate the arena by one cache line and align the row base to 64
  // bytes: a k = 512 row is then exactly one line instead of straddling
  // two, which halves the misses of every random row access. (mmap-backed
  // buffers are page-aligned already; the slack also covers the heap
  // fallback path.)
  bits_.reset(static_cast<std::size_t>(n_) * stride_ + 8);
  {
    auto addr = reinterpret_cast<std::uintptr_t>(bits_.data());
    const std::uintptr_t aligned = (addr + 63) & ~std::uintptr_t{63};
    rows_ = bits_.data() + (aligned - addr) / sizeof(std::uint64_t);
  }
  summary_has_.reset(static_cast<std::size_t>(n_) * sum_stride_);
  summary_missing_.reset(static_cast<std::size_t>(n_) * sum_stride_);
  count_.reset(n_);
  completion_.assign(n_, 0);
  active_.reset(n_);
  std::memset(active_.data(), 1, n_);
  freq_.assign(k_, 1);  // the server's copy of every block
  uploads_per_node_.assign(n_, 0);
  down_used_.assign(n_, 0);
  down_stamp_.assign(n_, 0);

  // Seed the server with the whole file (tail bits of the last word stay 0 —
  // the planner's word-wise diffs rely on that invariant for every row).
  std::uint64_t* server = row(kServer);
  for (std::uint32_t w = 0; w < stride_; ++w) server[w] = word_full_mask(w);
  count_[kServer] = k_;
  num_incomplete_ = n_ - 1;

  // Summaries: the server HAS every chunk and MISSES none; clients have
  // nothing and miss every chunk. The chunk-index pattern (bits [0, stride_)
  // across sum_stride_ words) is tail-masked the same way possession words
  // are, so summary bits beyond the last real chunk stay 0 forever.
  for (std::uint32_t g = 0; g < sum_stride_; ++g) {
    const bool last_partial = (g + 1 == sum_stride_) && (stride_ & 63) != 0;
    const std::uint64_t pattern = last_partial ? (1ULL << (stride_ & 63)) - 1 : ~0ULL;
    summary_has_[static_cast<std::size_t>(kServer) * sum_stride_ + g] = pattern;
    for (NodeId c = 1; c < n_; ++c) {
      summary_missing_[static_cast<std::size_t>(c) * sum_stride_ + g] = pattern;
    }
  }

  for (NodeId u = 0; u < n_; ++u) active_slots_ += up_caps_[u];

  const std::uint32_t shards = (n_ + opt_.shard_nodes - 1) / opt_.shard_nodes;
  senders_.resize(shards);
  shard_view_.resize(shards);
  switch (opt_.scheduler) {
    case SchedKind::kRandomized:
      sched_ = std::make_unique<RandomizedScheduler>(*this, shards);
      break;
    case SchedKind::kBinomialPipeline:
      sched_ = std::make_unique<BinomialScheduler>(*this, /*triangular=*/false);
      break;
    case SchedKind::kTriangularBarter:
      sched_ = std::make_unique<BinomialScheduler>(*this, /*triangular=*/true);
      break;
    case SchedKind::kRifflePipeline:
      sched_ = std::make_unique<RiffleScheduler>(*this);
      break;
  }

  // Receiver shards: enough for the pool to balance (the E22 swarm gets ~64)
  // but never so many that tiny fuzz swarms pay bucketing overhead for a
  // handful of intents. The width rounds up to a power of two so the merge
  // buckets by shift — the division was ~3 per intent per tick. A pure
  // function of n — job counts must not be able to move shard boundaries —
  // and results cannot depend on it anyway: admission is per-receiver and
  // every receiver lives wholly inside one shard.
  const std::uint32_t want = std::clamp(n_ / 1024u, 1u, 64u);
  recv_width_ = std::bit_ceil((n_ + want - 1) / want);
  recv_shift_ = static_cast<std::uint32_t>(std::countr_zero(recv_width_));
  recv_shards_ = (n_ + recv_width_ - 1) / recv_width_;
  receivers_.resize(recv_shards_);
  bucket_offsets_.assign(recv_shards_ + 1, 0);
  intent_offsets_.assign(shards + 1, 0);
  emit_offsets_.assign(shards + 1, 0);
  scatter_stride_ = pad_to_cache_lines<std::uint32_t>(recv_shards_);
  scatter_pos_.assign(shards * scatter_stride_, 0);
  freq_scratch_.configure(recv_shards_, k_);

  departures_ = cfg_.departures;
  std::sort(departures_.begin(), departures_.end());

  // One shared all-ones row for every complete sender's scans: identical
  // words to a complete arena row, so recordings cannot change, and a
  // million complete senders share one hot line instead of their own rows.
  full_row_.assign(stride_, 0);
  for (std::uint32_t w = 0; w < stride_; ++w) full_row_[w] = word_full_mask(w);
}

BlockId Engine::top_block(NodeId node) const {
  const std::uint64_t* hs = summary_has_row(node);
  for (std::uint32_t g = sum_stride_; g-- > 0;) {
    const std::uint64_t sword = hs[g];
    if (sword == 0) continue;
    const std::uint32_t w =
        (g << 6) + 63 - static_cast<std::uint32_t>(std::countl_zero(sword));
    const std::uint64_t pword = row(node)[w];
    return static_cast<BlockId>(
        (w << 6) + 63 - static_cast<std::uint32_t>(std::countl_zero(pword)));
  }
  return kNoBlock;
}

void Engine::plan_phases(Tick tick, std::vector<Transfer>& out, ThreadPool* pool) {
  const std::uint32_t shard = opt_.shard_nodes;
  const auto num_shards = static_cast<std::uint32_t>(senders_.size());
  const bool timing = opt_.collect_phase_timings;
  auto stamp = std::chrono::steady_clock::time_point{};
  if (timing) stamp = std::chrono::steady_clock::now();

  // Phase 1: intent generation. begin_tick is the scheduler's serial hook;
  // a scheduler that plans the whole tick there (the riffle) returns its
  // canonical stream and the sharded generate is skipped. Otherwise it runs
  // sharded by sender node range: shards only read the (frozen) swarm state
  // and write their own vector + scheduler-owned scratch, so running them on
  // a pool is observationally identical to the serial loop, and generate()
  // emits each shard's slice of the canonical sender-ordered stream.
  const std::vector<Transfer>* planned = sched_->begin_tick(tick);
  if (planned == nullptr) {
    for_shards(pool, num_shards, [&](std::uint32_t s) {
      auto& intents = senders_[s].value.intents;
      intents.clear();
      const auto first = static_cast<NodeId>(static_cast<std::uint64_t>(s) * shard);
      const auto last = static_cast<NodeId>(
          std::min<std::uint64_t>(n_, static_cast<std::uint64_t>(first) + shard));
      sched_->generate(tick, s, first, last, intents);
    });
  }

  if (timing) {
    timings_.generate_seconds += seconds_since(stamp);
    stamp = std::chrono::steady_clock::now();
  }

  // Phase 2: receiver-sharded merge. Every cross-sender constraint —
  // download capacity, one delivery per (receiver, block) — is keyed on the
  // receiver alone, so receiver shards admit independently. Each shard sees
  // its receivers' intents in canonical node order (the counting-sort
  // scatter below is order-preserving), so its decisions match the
  // historical single-pass serial merge exactly; the accepted stream is
  // then reconstructed from per-intent accept flags in canonical order.
  const std::uint32_t R = recv_shards_;

  // 2a. The tick's intent total (serial, O(S) for the sharded generate,
  // O(1) for a planned stream).
  std::size_t total_wide = 0;
  if (planned != nullptr) {
    total_wide = planned->size();
  } else {
    for (const auto& slot : senders_) total_wide += slot.value.intents.size();
  }
  assert(total_wide <= std::numeric_limits<std::uint32_t>::max());
  const auto total = static_cast<std::uint32_t>(total_wide);
  sparse_tick_ = total <= kSparseTickIntents;
  if (total == 0) {
    if (timing) timings_.merge_seconds += seconds_since(stamp);
    return;
  }
  if (sparse_tick_) {
    // Serial admission in canonical order — the same constraints in the
    // same order as the sharded path (which replicates the historical
    // serial merge), so the accepted stream is identical; it just skips the
    // counting/scatter/flag scaffolding, whose fixed O(S * R) cost would
    // dominate million-tick deterministic runs of a few hundred intents per
    // tick. A planned stream is admitted in one pass; the sharded generate's
    // vectors are its S consecutive pieces. apply_merged sees sparse_tick_
    // and commits serially too.
    PairTable& delivered = receivers_[0].value.delivered;
    delivered.begin_tick(total);
    const auto admit_serial = [&](std::span<const Transfer> intents) {
      for (const Transfer& tr : intents) {
        bool admit;
        if (down_caps_unlimited_) {
          admit = delivered.insert(delivery_key(tr.to, tr.block));
        } else {
          if (down_stamp_[tr.to] != tick) {
            down_stamp_[tr.to] = tick;
            down_used_[tr.to] = 0;
          }
          const std::uint32_t dcap = down_caps_[tr.to];
          admit = dcap == kUnlimited || down_used_[tr.to] < dcap;
          if (admit) admit = delivered.insert(delivery_key(tr.to, tr.block));
          if (admit) ++down_used_[tr.to];
        }
        if (admit) out.push_back(tr);
      }
    };
    if (planned != nullptr) {
      admit_serial(*planned);
    } else {
      for (const auto& slot : senders_) admit_serial(slot.value.intents);
    }
    if (timing) timings_.merge_seconds += seconds_since(stamp);
    return;
  }

  // 2a'. Dense tick: one view per intent shard plus its canonical-stream
  // offset. A planned stream is cut here at the shard's sender boundaries
  // (it is ascending by sender), so the dense merge below reads the same
  // slices the sharded generate would have produced.
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    if (planned != nullptr) {
      const auto last = static_cast<NodeId>(
          std::min<std::uint64_t>(n_, static_cast<std::uint64_t>(s + 1) * shard));
      const auto lo = planned->begin() + static_cast<std::ptrdiff_t>(intent_offsets_[s]);
      const auto hi = std::partition_point(
          lo, planned->end(), [&](const Transfer& t) { return t.from < last; });
      shard_view_[s] = {lo, hi};
    } else {
      shard_view_[s] = senders_[s].value.intents;
    }
    intent_offsets_[s + 1] = intent_offsets_[s] + shard_view_[s].size();
  }
  assert(intent_offsets_[num_shards] == total);

  // 2b. Count intents per (intent shard, receiver shard).
  for_shards(pool, num_shards, [&](std::uint32_t s) {
    std::uint32_t* cnt = scatter_pos_.data() + s * scatter_stride_;
    std::fill_n(cnt, R, 0u);
    for (const Transfer& tr : shard_view_[s]) ++cnt[recv_shard_of(tr.to)];
  });

  // 2c. Bucket offsets; counts become scatter cursors (serial, O(S * R)).
  std::uint32_t running = 0;
  for (std::uint32_t r = 0; r < R; ++r) {
    bucket_offsets_[r] = running;
    for (std::uint32_t s = 0; s < num_shards; ++s) {
      std::uint32_t& cell = scatter_pos_[s * scatter_stride_ + r];
      const std::uint32_t c = cell;
      cell = running;
      running += c;
    }
  }
  bucket_offsets_[R] = running;  // == total

  // 2d. Scatter intents into receiver buckets; cursor ranges are disjoint
  // by construction, and walking intent shards in ascending s keeps each
  // bucket in canonical stream order.
  if (bucket_.size() < total) {
    bucket_.reserve(total);
    advise_hugepages(bucket_.data(), static_cast<std::size_t>(total) * sizeof(MergeItem));
    bucket_.resize(total);
  }
  if (accept_.size() < total) {
    accept_.reserve(total);
    advise_hugepages(accept_.data(), total);
    accept_.resize(total);
  }
  for_shards(pool, num_shards, [&](std::uint32_t s) {
    std::uint32_t* cur = scatter_pos_.data() + s * scatter_stride_;
    auto g = static_cast<std::uint32_t>(intent_offsets_[s]);
    for (const Transfer& tr : shard_view_[s]) {
      bucket_[cur[recv_shard_of(tr.to)]++] = MergeItem{tr, g++};
    }
  });

  // 2e. Admission per receiver shard: download capacity + per-(receiver,
  // block) dedup, each shard with its own epoch-stamped table and its own
  // slice of down_used_/down_stamp_.
  for_shards(pool, R, [&](std::uint32_t r) {
    const std::uint32_t lo = bucket_offsets_[r];
    const std::uint32_t hi = bucket_offsets_[r + 1];
    PairTable& delivered = receivers_[r].value.delivered;
    delivered.begin_tick(hi - lo);
    // (No software prefetch here: each receiver shard's working set —
    // its slice of down_used_/down_stamp_ — is small enough to stay
    // cached, and measured prefetching made this loop slower.)
    if (down_caps_unlimited_) {
      // With no download cap anywhere, the capacity bookkeeping can never
      // reject, so admission reduces to the (receiver, block) dedup — and
      // down_used_/down_stamp_ are never read. Same accepts, same order.
      // The two random lines per intent — the dedup table's home slot and
      // the accept flag (indexed by canonical stream position, scattered
      // across the whole tick) — are warmed a few intents ahead.
      for (std::uint32_t i = lo; i < hi; ++i) {
        if (i + 8 < hi) {
          const MergeItem& ahead = bucket_[i + 8];
          delivered.prefetch(delivery_key(ahead.tr.to, ahead.tr.block));
          __builtin_prefetch(&accept_[ahead.idx], 1, 1);
        }
        const Transfer& tr = bucket_[i].tr;
        accept_[bucket_[i].idx] =
            delivered.insert(delivery_key(tr.to, tr.block)) ? 1 : 0;
      }
      return;
    }
    for (std::uint32_t i = lo; i < hi; ++i) {
      const Transfer& tr = bucket_[i].tr;
      if (down_stamp_[tr.to] != tick) {
        down_stamp_[tr.to] = tick;
        down_used_[tr.to] = 0;
      }
      const std::uint32_t dcap = down_caps_[tr.to];
      bool admit = dcap == kUnlimited || down_used_[tr.to] < dcap;
      if (admit) admit = delivered.insert(delivery_key(tr.to, tr.block));
      if (admit) ++down_used_[tr.to];
      accept_[bucket_[i].idx] = admit ? 1 : 0;
    }
  });

  // 2f. Emit the accepted subsequence in canonical order: count accepted
  // per intent shard, prefix, then scatter into the output slots.
  for_shards(pool, num_shards, [&](std::uint32_t s) {
    std::uint32_t acc = 0;
    for (std::size_t g = intent_offsets_[s]; g < intent_offsets_[s + 1]; ++g) {
      acc += accept_[g];
    }
    senders_[s].value.accepted = acc;
  });
  emit_offsets_[0] = 0;
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    emit_offsets_[s + 1] = emit_offsets_[s] + senders_[s].value.accepted;
  }
  const std::size_t base = out.size();
  out.resize(base + emit_offsets_[num_shards]);
  for_shards(pool, num_shards, [&](std::uint32_t s) {
    auto g = intent_offsets_[s];
    std::size_t w = base + emit_offsets_[s];
    for (const Transfer& tr : shard_view_[s]) {
      if (accept_[g++]) out[w++] = tr;
    }
  });

  if (timing) timings_.merge_seconds += seconds_since(stamp);
}

void Engine::plan(Tick tick, std::vector<Transfer>& out) {
  lockstep_ = true;  // lockstep driving began; run() may no longer be used
  plan_phases(tick, out, nullptr);
}

void Engine::note_delivery(NodeId to, BlockId block, std::uint64_t word) {
  const std::uint32_t w = block >> 6;
  const std::size_t g = static_cast<std::size_t>(to) * sum_stride_ + (w >> 6);
  const std::uint64_t chunk_bit = 1ULL << (w & 63);
  summary_has_[g] |= chunk_bit;
  // The word just filled up (tail-masked for the last one): v no longer
  // misses anything in this chunk, so senders whose holdings sit entirely
  // inside it reject v at the summary level from now on.
  if (word == word_full_mask(w)) summary_missing_[g] &= ~chunk_bit;
  // No separate version bump: the caller's ++count_[to] IS the possession
  // version change, which voids any scheduler verdict keyed on `to`'s
  // version (see possession_version).
}

bool Engine::deliver_block(NodeId to, BlockId block) {
  std::uint64_t& word = row(to)[block >> 6];
  const std::uint64_t bit = 1ULL << (block & 63);
  assert((word & bit) == 0 && "duplicate delivery slipped through the merge");
  word |= bit;
  note_delivery(to, block, word);
  return ++count_[to] >= k_;
}

void Engine::apply(Tick tick, std::span<const Transfer> accepted) {
  const bool timing = opt_.collect_phase_timings;
  auto stamp = std::chrono::steady_clock::time_point{};
  if (timing) stamp = std::chrono::steady_clock::now();
  commit_serial(tick, accepted);
  if (timing) timings_.apply_seconds += seconds_since(stamp);
}

void Engine::commit_serial(Tick tick, std::span<const Transfer> accepted) {
  for (const Transfer& tr : accepted) {
    ++freq_[tr.block];
    ++uploads_per_node_[tr.from];
    if (deliver_block(tr.to, tr.block)) {
      completion_[tr.to] = tick;
      --num_incomplete_;
      if (cfg_.depart_on_complete) leaving_.push_back(tr.to);
    }
    // Mirrors CreditLimited::commit_tick: server-involved transfers never
    // touch the ledger.
    if (records_ledger() && tr.from != kServer) ledger_.record(tr.from, tr.to);
  }
}

void Engine::apply_merged(Tick tick, std::span<const Transfer> accepted,
                          ThreadPool* pool) {
  const bool timing = opt_.collect_phase_timings;
  auto stamp = std::chrono::steady_clock::time_point{};
  if (timing) stamp = std::chrono::steady_clock::now();
  if (accepted.empty()) {
    if (timing) timings_.apply_seconds += seconds_since(stamp);
    return;
  }
  if (sparse_tick_) {
    // The sparse merge skipped the buckets and accept flags this commit
    // path reads, and at these stream sizes the serial loop wins anyway.
    // (leaving_ may collect completions in stream order rather than
    // receiver-shard order; deactivation is commutative, so the next tick's
    // state is identical either way.)
    commit_serial(tick, accepted);
    if (timing) timings_.apply_seconds += seconds_since(stamp);
    return;
  }
  const std::uint32_t R = recv_shards_;

  // 3a. Receiver-side commit from the merge buckets: possession bits,
  // summary bitmaps, possession versions, per-node counts, completion ticks
  // and the depart-on-complete queue. Shard r owns its receivers' rows and
  // counters exclusively; completions accumulate per shard and fold into
  // num_incomplete_ afterwards.
  for_shards(pool, R, [&](std::uint32_t r) {
    std::uint32_t* freq_row = freq_scratch_.shard(r);
    ReceiverShard& shard = receivers_[r].value;
    shard.leaving.clear();
    std::uint32_t completions = 0;
    const std::uint32_t hi = bucket_offsets_[r + 1];
    for (std::uint32_t i = bucket_offsets_[r]; i < hi; ++i) {
      if (i + 8 < hi) {
        const MergeItem& ahead = bucket_[i + 8];
        __builtin_prefetch(&accept_[ahead.idx], 0, 1);
        __builtin_prefetch(&row(ahead.tr.to)[ahead.tr.block >> 6], 1, 1);
        __builtin_prefetch(&count_[ahead.tr.to], 1, 1);
        __builtin_prefetch(
            &summary_has_[static_cast<std::size_t>(ahead.tr.to) * sum_stride_], 1, 1);
        __builtin_prefetch(
            &summary_missing_[static_cast<std::size_t>(ahead.tr.to) * sum_stride_], 1, 1);
      }
      if (accept_[bucket_[i].idx] == 0) continue;
      const Transfer& tr = bucket_[i].tr;
      ++freq_row[tr.block];
      // deliver_block touches only receiver-owned state (row/summaries/
      // count), so the sharded and serial commits stay observationally
      // identical.
      if (deliver_block(tr.to, tr.block)) {
        completion_[tr.to] = tick;
        ++completions;
        if (cfg_.depart_on_complete) shard.leaving.push_back(tr.to);
      }
    }
    shard.completions = completions;
  });
  for (std::uint32_t r = 0; r < R; ++r) {
    ReceiverShard& shard = receivers_[r].value;
    num_incomplete_ -= shard.completions;
    shard.completions = 0;
    if (cfg_.depart_on_complete) {
      leaving_.insert(leaving_.end(), shard.leaving.begin(), shard.leaving.end());
    }
  }

  // 3b. Fold per-shard frequency deltas into freq_ in fixed shard order.
  freq_scratch_.reduce_into(freq_.data(), pool);

  // 3c. Sender-side upload accounting. The accepted stream is non-
  // decreasing in `from` (canonical order is sender node order), so sender
  // shards find their contiguous slice by binary search and own their
  // uploads_per_node_ range exclusively.
  for_shards(pool, R, [&](std::uint32_t r) {
    const NodeId first = static_cast<NodeId>(r) * recv_width_;
    const NodeId last = static_cast<NodeId>(
        std::min<std::uint64_t>(n_, static_cast<std::uint64_t>(first) + recv_width_));
    const auto lo = std::partition_point(
        accepted.begin(), accepted.end(),
        [&](const Transfer& t) { return t.from < first; });
    const auto hi = std::partition_point(
        lo, accepted.end(), [&](const Transfer& t) { return t.from < last; });
    for (auto it = lo; it != hi; ++it) ++uploads_per_node_[it->from];
  });

  // 3d. Ledger commit stays serial: the pairwise map is shared and the pass
  // only runs where generate reads it (see records_ledger). Stream order
  // matches apply()'s, so the two commit paths build the identical ledger.
  if (records_ledger()) {
    for (const Transfer& tr : accepted) {
      if (tr.from != kServer) ledger_.record(tr.from, tr.to);
    }
  }
  if (timing) timings_.apply_seconds += seconds_since(stamp);
}

void Engine::deactivate(NodeId node) {
  if (node == kServer || node >= n_) {
    throw std::invalid_argument("scale: cannot deactivate node " + std::to_string(node));
  }
  if (active_[node] == 0) return;
  active_[node] = 0;
  ++num_departed_;
  active_slots_ -= up_caps_[node];
  const std::uint64_t* r = row(node);
  for (std::uint32_t w = 0; w < stride_; ++w) {
    std::uint64_t held = r[w];
    while (held != 0) {
      const auto b = (w << 6) + static_cast<std::uint32_t>(std::countr_zero(held));
      held &= held - 1;
      --freq_[b];
    }
  }
  if (count_[node] < k_) --num_incomplete_;
  // No summary/version bookkeeping, and arrivals() does not move: a
  // departure removes viability, it never creates any, so a scheduler's
  // "no viable target" verdicts about the survivors stay valid.
}

void Engine::activate(NodeId node) {
  if (node == kServer || node >= n_) {
    throw std::invalid_argument("scale: cannot activate node " + std::to_string(node));
  }
  if (active_[node] != 0) return;
  active_[node] = 1;
  --num_departed_;
  active_slots_ += up_caps_[node];
  const std::uint64_t* r = row(node);
  for (std::uint32_t w = 0; w < stride_; ++w) {
    std::uint64_t held = r[w];
    while (held != 0) {
      const auto b = (w << 6) + static_cast<std::uint32_t>(std::countr_zero(held));
      held &= held - 1;
      ++freq_[b];
    }
  }
  if (count_[node] < k_) ++num_incomplete_;
  // Unlike deactivate, an arrival CREATES viability: the new node is a fresh
  // target, so "no viable neighbor" verdicts about its neighbors are stale.
  // Such verdicts are keyed on the sender's version, which the arrival does
  // not move, so the scheduler learns of it from this counter instead and
  // drops them once at its next begin_tick, keeping a flash crowd of m
  // arrivals at O(n + m), not O(n * m).
  ++arrivals_;
}

void Engine::set_capacity(NodeId node, std::uint32_t up, std::uint32_t down) {
  if (node >= n_) {
    throw std::invalid_argument("scale: set_capacity on node " + std::to_string(node));
  }
  if (down == 0 || (node != kServer && down != kUnlimited && down < up)) {
    throw EngineViolation("scale: set_capacity requires d >= u and d >= 1");
  }
  if (active_[node] != 0) {
    active_slots_ = active_slots_ - up_caps_[node] + up;
  }
  up_caps_[node] = up;
  if (down_caps_[node] != down) {
    down_caps_[node] = down;
    // Demote the all-unlimited fast path once any finite cap appears; never
    // re-promoted (a scan per change is not worth a perf-only flag).
    if (down != kUnlimited) down_caps_unlimited_ = false;
  }
  // arrivals() does not move: a "no viable target" verdict says no neighbor
  // lacks a block u holds, which is about possession, not slots.
}

void Engine::depart_due() {
  while (next_departure_ < departures_.size() &&
         departures_[next_departure_].first <= tick_) {
    deactivate(departures_[next_departure_].second);
    ++next_departure_;
  }
  if (cfg_.depart_on_complete) {
    for (const NodeId c : leaving_) deactivate(c);
    leaving_.clear();
  }
}

std::span<const Transfer> Engine::step(ThreadPool* pool) {
  lockstep_ = true;  // the stream driver owns the loop; run() is poisoned
  ++tick_;
  depart_due();
  accepted_.clear();
  plan_phases(tick_, accepted_, pool);
  apply_merged(tick_, accepted_, pool);
  return accepted_;
}

BlockId Engine::first_missing(NodeId node) const {
  const std::uint64_t* miss = summary_missing_row(node);
  for (std::uint32_t g = 0; g < sum_stride_; ++g) {
    if (miss[g] == 0) continue;
    const auto w = (g << 6) + static_cast<std::uint32_t>(std::countr_zero(miss[g]));
    const std::uint64_t gap = ~row(node)[w] & word_full_mask(w);
    return (w << 6) + static_cast<std::uint32_t>(std::countr_zero(gap));
  }
  return k_;  // complete
}

RunResult Engine::run(unsigned jobs) {
  if (lockstep_) {
    throw std::logic_error(
        "scale::Engine::run: engine is being driven in lockstep (plan/apply)");
  }
  // Per-call phase accounting: each run() window reports only its own
  // ticks. (When collection is off the fields simply stay zero — never
  // stale values from a previous instrumented call.)
  timings_ = PhaseTimings{};
  ThreadPool pool(jobs);

  // From here down the control flow replicates core's run_with_state line
  // for line (departure application, depart_on_complete timing, the stall
  // window arithmetic, final bookkeeping) so that a mirrored core run
  // produces a field-for-field identical RunResult. The tick counter, the
  // departure cursor and the leaving queue are members, so a capped call
  // resumes exactly where the previous one stopped — splitting a run into
  // windows changes no transfer and no completion tick.
  const Tick cap = cfg_.max_ticks != 0 ? cfg_.max_ticks
                                       : default_tick_cap(cfg_.num_nodes, cfg_.num_blocks);

  RunResult result;
  std::uint64_t window_sum = 0;
  std::uint64_t window_slots_sum = 0;

  Tick executed = 0;  // this call's ticks; tick_ numbers the global stream
  while (num_incomplete_ != 0 && executed < cap) {
    ++tick_;
    ++executed;
    depart_due();
    if (num_incomplete_ == 0) break;  // survivors may already all be done

    accepted_.clear();
    plan_phases(tick_, accepted_, &pool);
    apply_merged(tick_, accepted_, &pool);

    result.total_transfers += accepted_.size();
    result.uploads_per_tick.push_back(accepted_.size());
    result.active_slots_per_tick.push_back(active_slots_);
    if (cfg_.record_trace) result.trace.push_back(accepted_);

    if (cfg_.stall_window != 0) {
      window_sum += accepted_.size();
      window_slots_sum += active_slots_;
      if (executed > cfg_.stall_window) {
        window_sum -= result.uploads_per_tick[executed - cfg_.stall_window - 1];
        window_slots_sum -= result.active_slots_per_tick[executed - cfg_.stall_window - 1];
      }
      if (executed >= cfg_.stall_window &&
          static_cast<double>(window_sum) <
              cfg_.stall_utilization * static_cast<double>(window_slots_sum)) {
        result.stalled = true;
        break;
      }
    }
  }

  result.ticks_executed = executed;
  result.completed = num_incomplete_ == 0;
  result.departed = num_departed_;
  result.client_completion.assign(completion_.begin() + 1, completion_.end());
  if (result.completed) {
    result.completion_tick = *std::max_element(result.client_completion.begin(),
                                               result.client_completion.end());
  }
  result.uploads_per_node = uploads_per_node_;  // copy: the engine stays resumable
  return result;
}

std::uint64_t Engine::state_bytes() const {
  std::uint64_t bytes = bits_.size() * sizeof(std::uint64_t);
  bytes += (summary_has_.size() + summary_missing_.size()) * sizeof(std::uint64_t);
  bytes += count_.size() * sizeof(std::uint32_t);
  bytes += completion_.size() * sizeof(Tick);
  bytes += active_.size();
  bytes += freq_.size() * sizeof(std::uint32_t);
  bytes += up_caps_.size() * sizeof(std::uint32_t);
  bytes += down_caps_.size() * sizeof(std::uint32_t);
  bytes += uploads_per_node_.size() * sizeof(Count);
  bytes += down_used_.size() * sizeof(std::uint32_t);
  bytes += down_stamp_.size() * sizeof(Tick);
  bytes += full_row_.capacity() * sizeof(std::uint64_t);
  // Tick scratch: the per-shard intent vectors, the scheduler's scratch,
  // the admission tables, the merge buckets/flags/offsets,
  // apply scratch and the accepted stream all persist between ticks at
  // high-water capacity — at n = 10^6 they are a triple-digit-MiB chunk of
  // the real footprint the old accounting omitted (it reported 161 MiB
  // against a 503 MiB RSS).
  bytes += senders_.capacity() * sizeof(ShardSlot<SenderShard>);
  for (const auto& slot : senders_) {
    bytes += slot.value.intents.capacity() * sizeof(Transfer);
  }
  bytes += shard_view_.capacity() * sizeof(std::span<const Transfer>);
  bytes += sched_->memory_bytes();  // probe-walk scratch, riffle segments
  bytes += receivers_.capacity() * sizeof(ShardSlot<ReceiverShard>);
  for (const auto& slot : receivers_) {
    bytes += slot.value.delivered.memory_bytes() +
             slot.value.leaving.capacity() * sizeof(NodeId);
  }
  bytes += intent_offsets_.capacity() * sizeof(std::size_t);
  bytes += scatter_pos_.capacity() * sizeof(std::uint32_t);
  bytes += bucket_offsets_.capacity() * sizeof(std::uint32_t);
  bytes += bucket_.capacity() * sizeof(MergeItem);
  bytes += accept_.capacity();
  bytes += emit_offsets_.capacity() * sizeof(std::uint32_t);
  bytes += freq_scratch_.memory_bytes();
  bytes += leaving_.capacity() * sizeof(NodeId);
  bytes += accepted_.capacity() * sizeof(Transfer);
  bytes += departures_.capacity() * sizeof(std::pair<Tick, NodeId>);
  bytes += ledger_.memory_bytes();
  bytes += topo_->memory_bytes();
  return bytes;
}

}  // namespace pob::scale
