// An outside check of a tick-by-tick transfer stream. The audit keeps its own
// possession bitmap, seeded with the server holding every block, and reads
// nothing from the engine that produced the stream. Per tick it checks that
//
//   * every id is in range and no node sends to itself;
//   * the sender held the block before the tick;
//   * the receiver lacked it before the tick;
//   * no (receiver, block) pair repeats within the tick;
//   * no node uploads more than its upload capacity, and no client downloads
//     more than its download capacity (the server's download is never capped).
//
// Each broken rule on a transfer counts one violation; the first one found is
// kept as a message.

#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "pob/core/types.h"

namespace perfbench {

class TransferAudit {
 public:
  /// `up_caps` and `down_caps` hold one capacity per node (kUnlimited for no
  /// cap). Node 0 is the server and holds every block from the start.
  TransferAudit(std::uint32_t num_nodes, std::uint32_t num_blocks,
                std::vector<std::uint32_t> up_caps, std::vector<std::uint32_t> down_caps);

  /// Changes a node's caps from the next tick on (a mid-run rate change).
  void set_capacity(pob::NodeId node, std::uint32_t up, std::uint32_t down);

  /// Checks one tick's stream against the pre-tick possession, then commits
  /// its deliveries.
  void check_tick(std::span<const pob::Transfer> tick);

  std::uint64_t transfers_checked() const { return checked_; }
  std::uint64_t violations() const { return violations_; }
  /// The first violation found, or an empty string.
  const std::string& first_violation() const { return first_; }

  /// Nodes that do not yet hold every block.
  std::uint32_t incomplete_nodes() const { return incomplete_; }

 private:
  bool holds(pob::NodeId node, pob::BlockId block) const {
    return (bits_[node * stride_ + (block >> 6)] >> (block & 63)) & 1u;
  }
  void flag(std::uint64_t tick, const pob::Transfer& tr, const char* rule);

  std::uint32_t n_;
  std::uint32_t k_;
  std::size_t stride_;
  std::vector<std::uint64_t> bits_;
  std::vector<std::uint32_t> held_;
  std::vector<std::uint32_t> up_caps_;
  std::vector<std::uint32_t> down_caps_;
  std::vector<std::uint32_t> up_used_;
  std::vector<std::uint32_t> down_used_;
  std::vector<std::uint8_t> deliver_;  // per transfer of the tick: commit it
  std::uint64_t tick_ = 0;
  std::uint64_t checked_ = 0;
  std::uint64_t violations_ = 0;
  std::uint32_t incomplete_ = 0;
  std::string first_;
};

}  // namespace perfbench
