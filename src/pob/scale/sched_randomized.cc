#include "pob/scale/sched_randomized.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace pob::scale {

// --- DiffScan ------------------------------------------------------------

void RandomizedScheduler::DiffScan::configure(std::uint32_t stride) {
  // words first, so every array starts on its own element alignment.
  const std::size_t words_bytes = std::size_t{stride} * sizeof(std::uint64_t);
  const std::size_t index_bytes = std::size_t{stride} * sizeof(std::uint32_t);
  bytes_ = pad_to_cache_lines<std::byte>(words_bytes + 2 * index_bytes);
  storage_.reset(CacheLineAllocator<std::byte>().allocate(bytes_));
  std::byte* base = storage_.get();
  words = reinterpret_cast<std::uint64_t*>(base);
  widx = reinterpret_cast<std::uint32_t*>(base + words_bytes);
  pc = reinterpret_cast<std::uint32_t*>(base + words_bytes + index_bytes);
}

// --- RandomizedScheduler -------------------------------------------------

RandomizedScheduler::RandomizedScheduler(const Engine& engine, std::uint32_t num_shards)
    : engine_(engine),
      topo_(engine.topology()),
      opt_(engine.options()),
      k_(engine.config().num_blocks),
      stride_(engine.words_per_row()),
      sum_stride_(engine.summary_words_per_row()),
      scans_(num_shards),
      sated_ver_(engine.config().num_nodes, 0),
      seen_arrivals_(engine.arrivals()) {
  for (ShardSlot<DiffScan>& slot : scans_) slot.value.configure(stride_);
}

const std::vector<Transfer>* RandomizedScheduler::begin_tick(Tick /*tick*/) {
  // Arrivals since the last tick added fresh targets, so every "no viable
  // neighbor" stamp is suspect: wipe them all, once, serially. O(n) per
  // arrival-bearing tick — a flash crowd of m arrivals costs O(n + m), not
  // O(n * m), and tick streams without arrivals never pay it.
  if (engine_.arrivals() != seen_arrivals_) {
    std::fill(sated_ver_.begin(), sated_ver_.end(), 0u);
    seen_arrivals_ = engine_.arrivals();
  }
  return nullptr;
}

void RandomizedScheduler::generate(Tick tick, std::uint32_t shard, NodeId first,
                                   NodeId last, std::vector<Transfer>& out) {
  // Per-node streams derive from trial_seed(seed, tick); every shard
  // recomputes the same tick base, so the streams do not depend on sharding.
  generate_range(trial_seed(engine_.seed(), tick), first, last, out,
                 scans_[shard].value);
}

std::uint64_t RandomizedScheduler::memory_bytes() const {
  std::uint64_t bytes = scans_.capacity() * sizeof(ShardSlot<DiffScan>);
  for (const ShardSlot<DiffScan>& slot : scans_) bytes += slot.value.memory_bytes();
  bytes += sated_ver_.capacity() * sizeof(std::uint32_t);
  return bytes;
}

bool RandomizedScheduler::scan_pair(NodeId u, const std::uint64_t* su, NodeId v,
                                    DiffScan& scan, bool guided) const {
  std::uint32_t entries = 0;
  std::uint32_t total = 0;
  const auto record = [&](std::uint32_t w, std::uint64_t d) {
    scan.widx[entries] = w;
    scan.words[entries] = d;
    const auto c = static_cast<std::uint32_t>(std::popcount(d));
    scan.pc[entries] = c;
    ++entries;
    total += c;
  };

  const std::uint64_t* sv = engine_.possession_row(v);
  // Dense linear sweep, unrolled four words wide. Each quad is tested for
  // any useful bit at once; only quads that hit pay for per-word recording.
  const auto linear_sweep = [&] {
    std::uint32_t w = 0;
    for (; w + 4 <= stride_; w += 4) {
      const std::uint64_t d0 = su[w] & ~sv[w];
      const std::uint64_t d1 = su[w + 1] & ~sv[w + 1];
      const std::uint64_t d2 = su[w + 2] & ~sv[w + 2];
      const std::uint64_t d3 = su[w + 3] & ~sv[w + 3];
      if ((d0 | d1 | d2 | d3) == 0) continue;
      if (d0 != 0) record(w, d0);
      if (d1 != 0) record(w + 1, d1);
      if (d2 != 0) record(w + 2, d2);
      if (d3 != 0) record(w + 3, d3);
    }
    for (; w < stride_; ++w) {
      const std::uint64_t d = su[w] & ~sv[w];
      if (d != 0) record(w, d);
    }
  };

  if (opt_.scan_kernel == ScanKernel::kScalar) {
    // Reference kernel: the historical one-word-at-a-time sweep. Every
    // other path below must record the identical entry sequence.
    for (std::uint32_t w = 0; w < stride_; ++w) {
      const std::uint64_t d = su[w] & ~sv[w];
      if (d != 0) record(w, d);
    }
  } else if (guided) {
    // Chunk candidates are words where u holds something AND v still misses
    // something; none means the pair is useless without reading a row.
    // (Tail bits of both rows are 0, so a "full" sv word kills the whole
    // word even though ~sv has garbage above the tail mask.)
    std::uint32_t cand = 0;
    const std::uint64_t* hu = engine_.summary_has_row(u);
    const std::uint64_t* mv = engine_.summary_missing_row(v);
    for (std::uint32_t g = 0; g < sum_stride_; ++g) {
      cand += static_cast<std::uint32_t>(std::popcount(hu[g] & mv[g]));
    }
    if (cand == 0) {
      scan.entries = 0;
      scan.total = 0;
      return false;
    }
    if (cand * 4 <= stride_) {
      // Sparse guided walk: visit only candidate words, ascending — the
      // endgame shape, where one or two chunks are still in play. The
      // guided/linear choice is a pure function of possession state, and
      // both record the same entries, so it cannot perturb determinism.
      for (std::uint32_t g = 0; g < sum_stride_; ++g) {
        std::uint64_t m = hu[g] & mv[g];
        while (m != 0) {
          const std::uint32_t w =
              (g << 6) + static_cast<std::uint32_t>(std::countr_zero(m));
          m &= m - 1;
          const std::uint64_t d = su[w] & ~sv[w];
          if (d != 0) record(w, d);
        }
      }
    } else {
      linear_sweep();
    }
  } else {
    // Unguided: the caller's expected-diff gate said a rejection is
    // unlikely, so go straight at the rows without touching the summaries.
    linear_sweep();
  }
  scan.entries = entries;
  scan.total = total;
  return total != 0;
}

bool RandomizedScheduler::window_admits(NodeId v, const DiffScan& scan) const {
  // Sequential demand: viable only if the lowest deliverable block lies in
  // v's sliding window. Every diff bit is >= first_missing(v) — v holds its
  // whole prefix — so only the scan's first recorded bit matters.
  const std::uint32_t lowest =
      (scan.widx[0] << 6) + static_cast<std::uint32_t>(std::countr_zero(scan.words[0]));
  return lowest <
         static_cast<std::uint64_t>(engine_.first_missing(v)) + opt_.stream_window;
}

BlockId RandomizedScheduler::pick_from_scan(const DiffScan& scan, Rng& rng) const {
  if (opt_.stream_window != 0) {
    // In-order priority: always the lowest deliverable block, no RNG draw.
    // (The caller verified it is inside the receiver's window.)
    return static_cast<BlockId>(
        (scan.widx[0] << 6) + static_cast<std::uint32_t>(std::countr_zero(scan.words[0])));
  }
  if (opt_.policy == BlockPolicy::kRandom) {
    // Rank-select over the recorded per-word popcounts; one rng draw, as
    // BlockSet::pick_random_useful.
    assert(scan.total != 0);  // caller checked usefulness
    std::uint32_t r = rng.below(scan.total);
    for (std::uint32_t e = 0; e < scan.entries; ++e) {
      const std::uint32_t pc = scan.pc[e];
      if (r < pc) {
        std::uint64_t diff = scan.words[e];
        while (r-- > 0) diff &= diff - 1;
        return static_cast<BlockId>((scan.widx[e] << 6) +
                                    static_cast<std::uint32_t>(std::countr_zero(diff)));
      }
      r -= pc;
    }
    return kNoBlock;  // unreachable
  }
  // Rarest first over the live replica counts, with the same reservoir
  // tie-break idiom (and the same rng draw sequence) as
  // BlockSet::pick_rarest_useful. Entries are recorded in ascending word
  // order by every kernel, so the block visit order — and therefore the
  // reservoir draws — match the historical dense walk exactly.
  BlockId best = kNoBlock;
  std::uint32_t best_freq = 0;
  std::uint32_t ties = 0;
  for (std::uint32_t e = 0; e < scan.entries; ++e) {
    const std::uint32_t base = scan.widx[e] << 6;
    std::uint64_t diff = scan.words[e];
    while (diff != 0) {
      const auto b = static_cast<BlockId>(
          base + static_cast<std::uint32_t>(std::countr_zero(diff)));
      diff &= diff - 1;
      const std::uint32_t f = engine_.replicas(b);
      if (best == kNoBlock || f < best_freq) {
        best = b;
        best_freq = f;
        ties = 1;
      } else if (f == best_freq) {
        ++ties;
        if (rng.below(ties) == 0) best = b;
      }
    }
  }
  return best;
}

bool RandomizedScheduler::probe_viable(NodeId u, const std::uint64_t* su,
                                       std::uint32_t ver_u, NodeId v,
                                       std::uint32_t ver_v, DiffScan& scan) const {
  // The summary-guided scan only pays off when the diff could plausibly be
  // empty, so it is gated on the expected diff size |su| * (k - |sv|) / k
  // being small; the saturated midgame — where nearly every probe is
  // useful — sweeps the rows directly and never touches the summaries.
  // Both scans record the same diff, so the gate cannot change results.
  const bool maybe_useless =
      static_cast<std::uint64_t>(ver_u) * (k_ - ver_v) <
      (static_cast<std::uint64_t>(k_) << 3);
  return scan_pair(u, su, v, scan, /*guided=*/maybe_useless) &&
         (opt_.stream_window == 0 || window_admits(v, scan));
}

bool RandomizedScheduler::neighborhood_exhausted(NodeId u, const std::uint64_t* su,
                                                 DiffScan& scan) const {
  // Deterministic full sweep, no RNG: is ANY neighbor a viable target right
  // now? Every predicate below is monotone-in-failure while u's version is
  // frozen (see the header), so a true result stays true until u itself
  // receives a block.
  const std::uint32_t deg = topo_.degree(u);
  const bool credit = opt_.credit_limit != 0 && u != kServer;
  const std::uint32_t* versions = engine_.possession_versions();
  const std::uint8_t* active = engine_.active_flags();
  // Two prefetch waves, metadata first. versions/active alone decide most
  // neighbors — in the endgame, where sweeps actually stamp, nearly every
  // neighbor is complete and its summary/possession rows are never read.
  // The second wave only touches rows the scan will read.
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId v = topo_.neighbor(u, i);
    __builtin_prefetch(&versions[v], 0, 1);
    __builtin_prefetch(&active[v], 0, 1);
  }
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId v = topo_.neighbor(u, i);
    if (v == u || v == kServer) continue;
    if (active[v] == 0 || versions[v] >= k_) continue;
    __builtin_prefetch(engine_.summary_missing_row(v), 0, 1);
    __builtin_prefetch(engine_.possession_row(v), 0, 1);
  }
  for (std::uint32_t i = 0; i < deg; ++i) {
    const NodeId v = topo_.neighbor(u, i);
    if (v == u || v == kServer) continue;
    if (active[v] == 0 || versions[v] >= k_) continue;
    if (credit && engine_.ledger().net(u, v) + 1 >
                      static_cast<std::int64_t>(opt_.credit_limit)) {
      continue;
    }
    if (scan_pair(u, su, v, scan, /*guided=*/true)) return false;
  }
  return true;
}

void RandomizedScheduler::generate_node(NodeId u, Rng& rng, NodeId first_probe,
                                        std::vector<Transfer>& out, DiffScan& scan) {
  const std::uint32_t* versions = engine_.possession_versions();
  const std::uint8_t* active = engine_.active_flags();
  const std::uint32_t ver_u = versions[u];
  // A complete sender scans through the shared all-ones full row (one hot
  // line instead of a million identical ones); it equals the arena row word
  // for word, so scan recordings cannot differ.
  const std::uint64_t* su =
      ver_u >= k_ ? engine_.full_row() : engine_.possession_row(u);
  const std::uint32_t slots = engine_.upload_capacity(u);
  const std::uint32_t deg = topo_.degree(u);
  const std::size_t first_intent = out.size();
  const bool credit = opt_.credit_limit != 0 && u != kServer;

  for (std::uint32_t slot = 0; slot < slots; ++slot) {
    NodeId target = kNoNode;
    for (std::uint32_t probe = 0; probe < opt_.max_probes; ++probe) {
      // The caller consumed the very first below(deg) draw when it peeked
      // the target for prefetching; every later draw comes from the same
      // stream, so the sequence is exactly the historical one.
      const NodeId v = (slot == 0 && probe == 0)
                           ? first_probe
                           : topo_.neighbor(u, rng.below(deg));
      if (v == u || v == kServer) continue;  // nothing flows into the server
      const std::uint32_t ver_v = versions[v];
      if (active[v] == 0 || ver_v >= k_) continue;
      // At most one upload per (u, v) pair per tick. Together with the
      // pre-tick ledger check below this keeps every admitted stream inside
      // CreditLimited::check_tick: the tick's delta on an ordered pair is in
      // {-1, 0, +1}, and +1 was pre-checked against the limit.
      bool repeat = false;
      for (std::size_t i = first_intent; i < out.size(); ++i) {
        if (out[i].to == v) { repeat = true; break; }
      }
      if (repeat) continue;
      if (credit && engine_.ledger().net(u, v) + 1 >
                        static_cast<std::int64_t>(opt_.credit_limit)) {
        continue;
      }
      if (!probe_viable(u, su, ver_u, v, ver_v, scan)) continue;
      target = v;
      break;
    }
    if (target == kNoNode) {
      // Out of luck: idle for the rest of the tick. If no probe found a
      // target AND the whole neighborhood is provably non-viable, stamp the
      // node sated so future ticks skip it outright until it receives a
      // block (the stamp encodes ver+1 so any delivery invalidates it).
      // Sequential demand never stamps (see the header comment).
      if (out.size() == first_intent && opt_.stream_window == 0 &&
          neighborhood_exhausted(u, su, scan)) {
        sated_ver_[u] = ver_u + 1;
      }
      break;
    }
    out.push_back(Transfer{u, target, pick_from_scan(scan, rng)});
  }
}

void RandomizedScheduler::generate_range(std::uint64_t tick_base, NodeId first,
                                         NodeId last, std::vector<Transfer>& out,
                                         DiffScan& scan) {
  // Software-pipelined windows. The lead pass does everything that needs
  // no remote state — eligibility (all sequential arrays), RNG seeding,
  // the first neighbor draw — and prefetches the probe target's metadata
  // and possession row. The windows are double-buffered: window W+1's
  // lead pass runs BEFORE window W's emit pass, so every prefetch gets a
  // full window of emit work (microseconds) to complete instead of the
  // few dozen instructions a fused lead+emit would give the window's
  // first nodes. Nothing here consumes draws beyond what generate_node
  // historically consumed, and the emit order is still ascending node id.
  constexpr std::uint32_t kBatch = 16;
  struct Window {
    Rng rngs[kBatch];
    NodeId probe0[kBatch];
    bool eligible[kBatch];
    NodeId base = 0;
    std::uint32_t width = 0;
  };
  Window wins[2];
  const std::uint32_t* versions = engine_.possession_versions();
  const std::uint8_t* active = engine_.active_flags();

  const auto lead = [&](Window& w, NodeId base) {
    w.base = base;
    w.width = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(kBatch, static_cast<std::uint64_t>(last) - base));
    for (std::uint32_t i = 0; i < w.width; ++i) {
      const NodeId u = base + i;
      w.eligible[i] = false;
      if (active[u] == 0) continue;
      const std::uint32_t cu = versions[u];
      // A node proven exhausted at its current possession version emits
      // nothing and would emit nothing: skip it without touching its RNG
      // stream (the stream is derived per (tick, node) and consumed nowhere
      // else, so the emitted intent set — and every digest — is unchanged).
      if (cu == 0 || sated_ver_[u] == cu + 1) continue;
      if (engine_.upload_capacity(u) == 0) continue;
      const std::uint32_t deg = topo_.degree(u);
      if (deg == 0) continue;
      w.eligible[i] = true;
      // This node's RNG stream is a pure function of (seed, tick, node), so
      // the intents it emits do not depend on which shard/thread runs it.
      w.rngs[i] = Rng(trial_seed(tick_base, u));
      const NodeId v = topo_.neighbor(u, w.rngs[i].below(deg));
      w.probe0[i] = v;
      __builtin_prefetch(&active[v], 0, 1);
      __builtin_prefetch(&versions[v], 0, 1);
      const std::uint64_t* rv = engine_.possession_row(v);
      __builtin_prefetch(rv, 0, 1);
      if (stride_ > 8) __builtin_prefetch(rv + stride_ - 1, 0, 1);
      // Deliberately NOT peeking probe 1's target here: a speculative
      // RNG-copy peek plus three more prefetches per slot was measured
      // ~2% slower end-to-end at n = 10^6 — the extra neighbor lookup and
      // prefetch traffic outweigh the occasional saved miss.
    }
  };
  const auto emit = [&](Window& w) {
    for (std::uint32_t i = 0; i < w.width; ++i) {
      if (w.eligible[i]) generate_node(w.base + i, w.rngs[i], w.probe0[i], out, scan);
    }
  };

  if (first >= last) return;
  lead(wins[0], first);
  std::uint32_t cur = 0;
  for (;;) {
    const NodeId next = wins[cur].base + wins[cur].width;
    if (next < last) {
      lead(wins[cur ^ 1], next);
      emit(wins[cur]);
      cur ^= 1;
    } else {
      emit(wins[cur]);
      break;
    }
  }
}

}  // namespace pob::scale
