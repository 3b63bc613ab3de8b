// pob_perfbench_selftest: checks the benchmark's own instruments on hand-built
// inputs — the transfer audit catches each injected fault, and the order
// statistics and phase-delta helpers give the expected numbers. Exits 0 when
// every check passes.

#include <cmath>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "audit.h"
#include "stats.h"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

using perfbench::TransferAudit;
using pob::Transfer;

// Four nodes, four blocks; the server uploads 2 per tick, clients 1, and
// client downloads are capped at 2.
TransferAudit small_audit() {
  return TransferAudit(4, 4, {2, 1, 1, 1}, {pob::kUnlimited, 2, 2, 2});
}

void audit_accepts_a_legal_stream() {
  TransferAudit audit = small_audit();
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}, {0, 2, 1}});
  audit.check_tick(std::vector<Transfer>{{1, 2, 0}, {2, 1, 1}, {0, 3, 2}, {0, 1, 3}});
  expect(audit.violations() == 0, "legal stream flagged: " + audit.first_violation());
  expect(audit.transfers_checked() == 6, "legal stream: transfers_checked");
}

void audit_flags_duplicate_delivery() {
  TransferAudit audit = small_audit();
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}});
  // Node 2 gets block 0 twice in one tick, from different senders.
  audit.check_tick(std::vector<Transfer>{{0, 2, 0}, {1, 2, 0}});
  expect(audit.violations() == 1, "duplicate delivery: violations = " +
                                       std::to_string(audit.violations()));
}

void audit_flags_sender_without_block() {
  TransferAudit audit = small_audit();
  // Node 1 forwards block 0 in the same tick it receives it.
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}, {1, 2, 0}});
  expect(audit.violations() == 1, "sender without block: violations = " +
                                       std::to_string(audit.violations()));
}

void audit_flags_receiver_that_held_block() {
  TransferAudit audit = small_audit();
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}});
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}});
  expect(audit.violations() == 1, "redelivery across ticks: violations = " +
                                       std::to_string(audit.violations()));
}

void audit_flags_over_cap_uploader() {
  TransferAudit audit = small_audit();
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}, {0, 1, 1}});
  // Client 1 (upload cap 1) sends twice.
  audit.check_tick(std::vector<Transfer>{{1, 2, 0}, {1, 3, 0}});
  expect(audit.violations() == 1, "over-cap uploader: violations = " +
                                       std::to_string(audit.violations()));
  // The cap is per tick: one upload on the next tick is legal.
  audit.check_tick(std::vector<Transfer>{{1, 2, 1}});
  expect(audit.violations() == 1, "upload cap must reset every tick");
}

void audit_flags_over_cap_downloader_and_follows_rate_changes() {
  TransferAudit audit = small_audit();
  audit.set_capacity(0, 3, pob::kUnlimited);
  audit.check_tick(std::vector<Transfer>{{0, 1, 0}, {0, 1, 1}, {0, 1, 2}});
  expect(audit.violations() == 1, "over-cap downloader: violations = " +
                                       std::to_string(audit.violations()));
}

void audit_flags_invalid_ids_and_tracks_completion() {
  TransferAudit audit = small_audit();
  audit.check_tick(std::vector<Transfer>{{0, 7, 0}, {0, 1, 9}, {1, 1, 0}});
  expect(audit.violations() == 3, "invalid transfers: violations = " +
                                       std::to_string(audit.violations()));
  expect(audit.incomplete_nodes() == 3, "no client is complete yet");
}

void median_and_percentiles() {
  using perfbench::median;
  using perfbench::percentile;
  expect(near(median({3.0, 1.0, 2.0}), 2.0), "median of odd count");
  expect(near(median({4.0, 1.0, 3.0, 2.0}), 2.5), "median of even count");
  expect(near(median({7.0}), 7.0), "median of one sample");
  const std::vector<double> hundred = [] {
    std::vector<double> v;
    for (int i = 100; i >= 1; --i) v.push_back(i);
    return v;
  }();
  expect(near(percentile(hundred, 50), 50.0), "p50 of 1..100");
  expect(near(percentile(hundred, 99), 99.0), "p99 of 1..100");
  expect(near(percentile(hundred, 100), 100.0), "p100 of 1..100");
  expect(near(percentile({5.0, 1.0, 3.0}, 50), 3.0), "p50 of three");
  expect(near(percentile({5.0, 1.0, 3.0}, 1), 1.0), "p1 of three");
  bool threw = false;
  try {
    (void)median({});
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  expect(threw, "median of nothing throws");
}

void phase_deltas() {
  const pob::scale::PhaseTimings before{1.0, 2.0, 3.0};
  const pob::scale::PhaseTimings after{1.5, 2.25, 4.0};
  const pob::scale::PhaseTimings d = perfbench::phase_delta(before, after);
  expect(near(d.generate_seconds, 0.5) && near(d.merge_seconds, 0.25) &&
             near(d.apply_seconds, 1.0),
         "phase delta");
  expect(near(perfbench::driver_self_seconds(2.0, d), 0.25), "driver self time");
}

}  // namespace

int main() {
  audit_accepts_a_legal_stream();
  audit_flags_duplicate_delivery();
  audit_flags_sender_without_block();
  audit_flags_receiver_that_held_block();
  audit_flags_over_cap_uploader();
  audit_flags_over_cap_downloader_and_follows_rate_changes();
  audit_flags_invalid_ids_and_tracks_completion();
  median_and_percentiles();
  phase_deltas();
  if (failures != 0) {
    std::cerr << failures << " self-test check(s) failed\n";
    return 1;
  }
  std::cerr << "perfbench self-test: all checks passed\n";
  return 0;
}
