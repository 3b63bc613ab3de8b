#include "audit.h"

#include <stdexcept>
#include <utility>

namespace perfbench {

using pob::BlockId;
using pob::NodeId;
using pob::Transfer;

TransferAudit::TransferAudit(std::uint32_t num_nodes, std::uint32_t num_blocks,
                             std::vector<std::uint32_t> up_caps,
                             std::vector<std::uint32_t> down_caps)
    : n_(num_nodes),
      k_(num_blocks),
      stride_((num_blocks + 63) / 64),
      bits_(static_cast<std::size_t>(num_nodes) * stride_, 0),
      held_(num_nodes, 0),
      up_caps_(std::move(up_caps)),
      down_caps_(std::move(down_caps)),
      up_used_(num_nodes, 0),
      down_used_(num_nodes, 0),
      incomplete_(num_nodes - 1) {
  if (num_nodes < 2 || num_blocks < 1 || up_caps_.size() != num_nodes ||
      down_caps_.size() != num_nodes) {
    throw std::invalid_argument("TransferAudit: bad shape");
  }
  for (BlockId b = 0; b < k_; ++b) bits_[b >> 6] |= 1ULL << (b & 63);
  held_[pob::kServer] = k_;
}

void TransferAudit::set_capacity(NodeId node, std::uint32_t up, std::uint32_t down) {
  up_caps_.at(node) = up;
  down_caps_.at(node) = down;
}

void TransferAudit::flag(std::uint64_t tick, const Transfer& tr, const char* rule) {
  ++violations_;
  if (first_.empty()) {
    first_ = "tick " + std::to_string(tick) + ": " + std::to_string(tr.from) + " -> " +
             std::to_string(tr.to) + " block " + std::to_string(tr.block) + ": " + rule;
  }
}

void TransferAudit::check_tick(std::span<const Transfer> tick) {
  ++tick_;
  checked_ += tick.size();
  deliver_.assign(tick.size(), 0);

  // Pass 1: every rule against the pre-tick possession.
  for (std::size_t i = 0; i < tick.size(); ++i) {
    const Transfer& tr = tick[i];
    if (tr.from >= n_ || tr.to >= n_ || tr.block >= k_ || tr.from == tr.to ||
        tr.to == pob::kServer) {
      flag(tick_, tr, "invalid transfer");
      continue;
    }
    if (!holds(tr.from, tr.block)) flag(tick_, tr, "sender lacked the block");
    if (holds(tr.to, tr.block)) {
      flag(tick_, tr, "receiver already held the block");
    } else {
      deliver_[i] = 1;
    }
    if (++up_used_[tr.from] > up_caps_[tr.from]) flag(tick_, tr, "upload over capacity");
    if (++down_used_[tr.to] > down_caps_[tr.to]) flag(tick_, tr, "download over capacity");
  }

  // Pass 2: commit. A bit already set here was set earlier in this tick,
  // since pass 1 saw it clear: a repeated (receiver, block) pair.
  for (std::size_t i = 0; i < tick.size(); ++i) {
    const Transfer& tr = tick[i];
    if (tr.from >= n_ || tr.to >= n_) continue;
    up_used_[tr.from] = 0;
    down_used_[tr.to] = 0;
    if (deliver_[i] == 0) continue;
    std::uint64_t& word = bits_[tr.to * stride_ + (tr.block >> 6)];
    const std::uint64_t bit = 1ULL << (tr.block & 63);
    if (word & bit) {
      flag(tick_, tr, "(receiver, block) delivered twice in one tick");
      continue;
    }
    word |= bit;
    if (++held_[tr.to] == k_) --incomplete_;
  }
}

}  // namespace perfbench
