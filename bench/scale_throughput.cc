// E22/E23: mega-swarm engine throughput — the "production scale" claim,
// measured, as a multi-core trajectory.
//
// Runs scale::Engine swarms at million-node size (defaults: n = 10^6,
// k = 512, random 16-regular overlay) and reports the numbers the roadmap
// cares about: node-ticks/second, transfers/second, per-phase wall-clock
// (generate / merge / apply), peak RSS, and bytes of engine state. With
// --sweep the identical configuration is re-run once per job count and the
// speedup column records the scaling curve (every run is bit-identical to
// every other — only the wall-clock may differ). Results land in
// BENCH_scale.json (override with --json=<path>) so CI can archive the
// trajectory.
//
//   scale_throughput                         # the full 10^6 x 512 run
//   scale_throughput --sweep=1,2,4,8,16      # the E23 jobs trajectory
//   scale_throughput --n=100000 --k=128      # quicker smoke (CI uses this)
//   scale_throughput --credit=2 --policy=rarest --jobs=4
//   scale_throughput --scheduler=riffle      # deterministic Theorem 2/3 run
//
// --scheduler selects the intent generator: randomized (default; the
// probing protocol over the random-regular overlay), or the deterministic
// closed-form schedules — binomial (Theorem 1), riffle (strict barter,
// Theorems 2/3), triangular (§3.3; binomial schedule under credit 1).
// Deterministic runs use the complete topology, unit upload capacity and a
// power-of-two n (the engine enforces all three), and the JSON gains the
// price-of-barter fields E24 tabulates: completion time against the
// Theorem 1 cooperative lower bound.
//
// The run itself is deterministic for a given (seed, config) at any --jobs.

#include <algorithm>
#include <chrono>
#include <iostream>
#include <stdexcept>
#include <vector>

#include "bench_util.h"
#include "pob/analysis/bounds.h"
#include "pob/flow/certify.h"
#include "pob/scale/engine.h"

#if __has_include(<sys/resource.h>)
#include <sys/resource.h>
#define POB_HAVE_RUSAGE 1
#endif

namespace pob {
namespace {

std::uint64_t peak_rss_kb() {
#ifdef POB_HAVE_RUSAGE
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) == 0) {
    // ru_maxrss is KiB on Linux (bytes on macOS; close enough for a trend
    // line, and this repo's CI is Linux).
    return static_cast<std::uint64_t>(usage.ru_maxrss);
  }
#endif
  return 0;
}

struct SweepPoint {
  unsigned jobs = 1;
  RunResult result;
  double run_seconds = 0.0;
  double node_ticks_per_sec = 0.0;
  double transfers_per_sec = 0.0;
  scale::PhaseTimings phases;
  std::uint64_t state_bytes = 0;
  double build_seconds = 0.0;
};

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);
  const auto n = args.get_uint("n", 1000000);
  const auto k = args.get_uint("k", 512);
  const auto degree = args.get_uint("degree", 16);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));

  // --sweep=1,2,4,8 runs the same swarm once per job count; without it the
  // single --jobs run keeps the historical E22 behavior. jobs_from_flag
  // clamps oversized requests to 4x the core count, so on small hosts
  // several requested values can collapse to the same effective job count —
  // dedupe to keep one run (and one JSON field group) per effective value.
  std::vector<unsigned> sweep;
  for (const std::int64_t j : args.get_int_list("sweep", {})) {
    const unsigned jobs = jobs_from_flag(j);
    if (std::find(sweep.begin(), sweep.end(), jobs) == sweep.end()) {
      sweep.push_back(jobs);
    }
  }
  if (sweep.empty()) sweep.push_back(jobs_from_flag(args.get_int("jobs", 0)));

  const std::string sched_name = args.get_string("scheduler", "randomized");
  scale::SchedKind sched = scale::SchedKind::kRandomized;
  if (sched_name == "binomial" || sched_name == "binomial-pipeline") {
    sched = scale::SchedKind::kBinomialPipeline;
  } else if (sched_name == "riffle" || sched_name == "riffle-pipeline") {
    sched = scale::SchedKind::kRifflePipeline;
  } else if (sched_name == "triangular" || sched_name == "triangular-barter") {
    sched = scale::SchedKind::kTriangularBarter;
  } else if (sched_name != "randomized") {
    throw std::invalid_argument("unknown --scheduler=" + sched_name +
                                " (randomized | binomial | riffle | triangular)");
  }
  const bool deterministic = sched != scale::SchedKind::kRandomized;

  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.max_ticks = args.get_uint("cap", 0);
  if (sched == scale::SchedKind::kRifflePipeline) {
    cfg.download_capacity = 2;  // Theorem 3's d = 2u regime
  }

  scale::ScaleOptions opt;
  opt.scheduler = sched;
  opt.policy = args.get_string("policy", "random") == "random"
                   ? BlockPolicy::kRandom
                   : BlockPolicy::kRarestFirst;
  opt.credit_limit = args.get_uint("credit", 0);
  if (sched == scale::SchedKind::kTriangularBarter && opt.credit_limit == 0) {
    opt.credit_limit = 1;  // §3.3's credit 1; the schedule never consults a ledger
  }
  opt.max_probes = args.get_uint("probes", 16);
  opt.collect_phase_timings = true;
  // --simd=off forces the scalar reference scan kernel; CI runs the digest
  // pin both ways to prove the unrolled path changes nothing but seconds.
  opt.scan_kernel = args.get_string("simd", "auto") == "off"
                        ? scale::ScanKernel::kScalar
                        : scale::ScanKernel::kAuto;

  // Deterministic schedules are derived for the complete overlay (the
  // binomial pipeline only ever uses the hypercube edges inside it); the
  // arithmetic complete Topology costs nothing to "build".
  const auto t0 = std::chrono::steady_clock::now();
  std::shared_ptr<scale::Topology> topo;
  if (deterministic) {
    topo = std::make_shared<scale::Topology>(scale::Topology::complete(n));
  } else {
    Rng topo_rng = Rng(seed).split(0);
    topo = std::make_shared<scale::Topology>(
        scale::Topology::from_graph(make_random_regular(n, degree, topo_rng)));
  }
  const double topo_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  std::vector<SweepPoint> points;
  for (const unsigned jobs : sweep) {
    // Engine construction (arena + summary allocation, scheduler setup) is
    // timed apart from the run: it is a fixed cost the throughput number
    // should not absorb, and — like the topology hoist above — the JSON
    // records it separately so regressions in either are attributable.
    const auto tb = std::chrono::steady_clock::now();
    scale::Engine engine(cfg, topo, opt, seed);
    SweepPoint p;
    p.build_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - tb).count();
    p.jobs = jobs == 0 ? default_jobs() : jobs;
    p.state_bytes = engine.state_bytes();
    const auto t1 = std::chrono::steady_clock::now();
    p.result = engine.run(jobs);
    p.run_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t1).count();
    p.phases = engine.phase_timings();
    const std::uint64_t node_ticks =
        static_cast<std::uint64_t>(n) * p.result.ticks_executed;
    if (p.run_seconds > 0.0) {
      p.node_ticks_per_sec = static_cast<double>(node_ticks) / p.run_seconds;
      p.transfers_per_sec =
          static_cast<double>(p.result.total_transfers) / p.run_seconds;
    }
    points.push_back(std::move(p));
  }
  const std::uint64_t rss_kb = peak_rss_kb();
  const SweepPoint& head = points.front();
  // Speedups normalize against the real serial run when the sweep has one;
  // a clamped/deduped list without jobs=1 falls back to its first point
  // (and the speedup fields then read "vs jobs=<baseline.jobs>", never a
  // division against a point that was not run).
  const SweepPoint& baseline = points[bench::sweep_baseline_index(sweep)];

  bench::emit(args, [&] {
    Table table({"n", "k", "degree", "jobs", "ticks", "T", "transfers",
                 "node-ticks/s", "xfers/s", "speedup", "gen-s", "merge-s",
                 "apply-s"});
    for (const SweepPoint& p : points) {
      const double speedup = baseline.run_seconds > 0.0 && p.run_seconds > 0.0
                                 ? baseline.run_seconds / p.run_seconds
                                 : 0.0;
      table.add_row({std::to_string(n), std::to_string(k),
                     deterministic ? std::string("-") : std::to_string(degree),
                     std::to_string(p.jobs), std::to_string(p.result.ticks_executed),
                     p.result.completed ? std::to_string(p.result.completion_tick)
                                        : (p.result.stalled ? "stall" : "cap"),
                     std::to_string(p.result.total_transfers),
                     fmt(p.node_ticks_per_sec / 1e6, 1) + "M",
                     fmt(p.transfers_per_sec / 1e6, 1) + "M", fmt(speedup, 2) + "x",
                     fmt(p.phases.generate_seconds, 2),
                     fmt(p.phases.merge_seconds, 2), fmt(p.phases.apply_seconds, 2)});
    }
    return table;
  }());
  std::cout << "# graph build " << fmt(topo_seconds, 2) << " s, state "
            << head.state_bytes / (1024 * 1024) << " MiB, peak rss "
            << rss_kb / 1024 << " MiB\n";

  // The E24 comparison row: completion against the Theorem 1 cooperative
  // optimum (price of barter = T / coop bound). Reported for every
  // scheduler so the randomized/credit rows line up in the same table.
  const Tick coop_bound = cooperative_lower_bound(n, k);
  const Tick strict_bound = strict_barter_lower_bound_equal_bw(n, k);
  const double price = head.result.completed
                           ? static_cast<double>(head.result.completion_tick) /
                                 static_cast<double>(coop_bound)
                           : 0.0;
  std::cout << "# scheduler " << scale::sched_kind_name(sched) << ", coop bound "
            << coop_bound << ", strict-barter bound " << strict_bound
            << ", price of barter " << fmt(price, 3) << "\n";

  // The pob/flow certificate on the exact topology this run used: riffle is
  // the only scheduler here bound by strict barter's same-tick coupling.
  const flow::CompletionCertificate cert = flow::certify_completion_bound(
      cfg, *topo,
      sched == scale::SchedKind::kRifflePipeline ? flow::BarterModel::kStrictBarter
                                                 : flow::BarterModel::kCooperative);
  const double certified = head.result.completed
                               ? flow::certified_price(head.result.completion_tick,
                                                       cert.lower_bound)
                               : 0.0;
  std::cout << "# certificate: T*=" << cert.lower_bound << ", certified price "
            << fmt(certified, 3) << "\n";

  bench::JsonReport json;
  json.str("bench", "scale_throughput")
      .count("n", n)
      .count("k", k)
      .count("degree", degree)
      .count("jobs", head.jobs)
      .str("scheduler", scale::sched_kind_name(sched))
      .count("coop_lower_bound", coop_bound)
      .count("strict_barter_bound", strict_bound)
      .num("price_of_barter", price)
      .certified(cert.lower_bound, certified)
      .count("credit_limit", opt.credit_limit)
      .str("policy", opt.policy == BlockPolicy::kRandom ? "random" : "rarest")
      .str("scan_kernel", scale::scan_kernel_name(opt.scan_kernel))
      .flag("completed", head.result.completed)
      .count("ticks_executed", head.result.ticks_executed)
      .count("completion_tick", head.result.completion_tick)
      .count("total_transfers", head.result.total_transfers)
      .count("node_ticks",
             static_cast<std::uint64_t>(n) * head.result.ticks_executed)
      .num("run_seconds", head.run_seconds)
      .num("topology_seconds", topo_seconds)
      .num("engine_build_seconds", head.build_seconds)
      .num("node_ticks_per_sec", head.node_ticks_per_sec)
      .num("transfers_per_sec", head.transfers_per_sec)
      .num("phase_generate_seconds", head.phases.generate_seconds)
      .num("phase_merge_seconds", head.phases.merge_seconds)
      .num("phase_apply_seconds", head.phases.apply_seconds)
      .count("state_bytes", head.state_bytes)
      .count("peak_rss_kb", rss_kb);
  bench::add_host_fields(json);
  if (points.size() > 1) {
    // The scaling trajectory, one flat field group per job count so the
    // JSON scraper stays trivial: *_j<jobs> suffixes, speedup vs the serial
    // sweep entry (or the first one when jobs=1 was clamped/deduped away —
    // speedup_baseline_jobs records which).
    std::string jobs_list;
    for (const SweepPoint& p : points) {
      if (!jobs_list.empty()) jobs_list += ',';
      jobs_list += std::to_string(p.jobs);
    }
    json.str("jobs_sweep", jobs_list);
    json.count("speedup_baseline_jobs", baseline.jobs);
    for (const SweepPoint& p : points) {
      const std::string suffix = "_j" + std::to_string(p.jobs);
      json.num("run_seconds" + suffix, p.run_seconds)
          .num("node_ticks_per_sec" + suffix, p.node_ticks_per_sec)
          .num("transfers_per_sec" + suffix, p.transfers_per_sec)
          .num("speedup" + suffix, baseline.run_seconds > 0.0 && p.run_seconds > 0.0
                                       ? baseline.run_seconds / p.run_seconds
                                       : 0.0)
          .num("phase_generate_seconds" + suffix, p.phases.generate_seconds)
          .num("phase_merge_seconds" + suffix, p.phases.merge_seconds)
          .num("phase_apply_seconds" + suffix, p.phases.apply_seconds);
    }
  }
  if (!json.write(args, "BENCH_scale.json")) return 1;
  return head.result.completed || cfg.max_ticks != 0 ? 0 : 1;
}

}  // namespace
}  // namespace pob

int main(int argc, char** argv) {
  try {
    return pob::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "scale_throughput: " << e.what() << "\n";
    return 2;
  }
}
