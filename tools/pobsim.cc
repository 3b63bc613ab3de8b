// pobsim — run any algorithm / overlay / mechanism combination from the
// command line.
//
//   pobsim --algo=binomial-pipeline --n=64 --k=32
//   pobsim --algo=randomized --overlay=regular --degree=20 --n=1000 --k=1000
//          --policy=rarest --runs=5
//   pobsim --algo=credit-randomized --overlay=regular --degree=80 --credit=1
//          --n=1000 --k=1000
//   pobsim --algo=riffle --mechanism=strict --n=100 --k=99 --download=2
//
// Flags:
//   --engine     core (default) | scale | stream. The scale engine is the
//                SoA mega-swarm path (src/pob/scale): randomized / credit-
//                randomized protocol plus the deterministic mechanisms
//                (--algo=binomial-pipeline | riffle | triangular), sized for
//                n up to 10^6+. --jobs then parallelizes ticks *within* one
//                run (bit-identical at any value); --probes tunes its
//                per-slot neighbor probing; --simd=off forces the scalar
//                scan kernel (same results).
//                    pobsim --engine=scale --n=1000000 --k=512
//                           --overlay=regular --degree=16 --jobs=0
//                    pobsim --engine=scale --algo=riffle --n=1048576 --k=512
//                The stream engine layers event-driven arrivals, rate churn
//                and streaming demand over the scale engine (randomized
//                protocol only):
//                  --arrivals=batch|poisson|flash|burst  arrival process
//                  --gap16 (poisson, 1/16-tick mean gap)  --flash-start
//                  --flash-width --flash-pct  --burst-size --burst-period
//                  --classes=N (heterogeneous rate classes) --churn=N
//                  --horizon (churn window)  --window=W (sequential demand)
//                  --startup (blocks buffered before playback) --interval
//                  --deadlines --slack (hard per-block deadlines)
//                    pobsim --engine=stream --n=200000 --k=64
//                           --overlay=regular --arrivals=flash --deadlines
//   --jobs       worker threads for repeated runs (0 = all cores; results
//                are identical at any value)
//   --algo       pipeline | tree | binomial-tree | binomial-pipeline |
//                multi-server | riffle | randomized | credit-randomized |
//                rotating | tit-for-tat | striped-trees
//   --overlay    complete | regular | hypercube | ring | karytree  (randomized only)
//   --mechanism  none | strict | credit | triangular | cyclic
//   --n --k --degree --arity --credit --cycle-len --policy --upload --download
//   --servers (multi-server m) --period (rotation) --stripes --runs --seed --cap
//   --leave-pct (random client departures in the first half, lossy mode)
//   --certify (print the pob/flow lower-bound certificate T* for the exact
//              scenario simulated, the run's T, and the certified price T/T*)
//   --fairness (print per-client upload-load stats)
//   --save-trace=<file> (record run 0) --replay=<file> (validate a saved trace)
//   --trace --csv

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <memory>

#include "pob/analysis/bounds.h"
#include "pob/core/engine.h"
#include "pob/core/metrics.h"
#include "pob/exp/cli.h"
#include "pob/exp/parallel.h"
#include "pob/exp/sweep.h"
#include "pob/exp/table.h"
#include "pob/exp/trace_io.h"
#include "pob/flow/certify.h"
#include "pob/mech/barter.h"
#include "pob/overlay/builders.h"
#include "pob/overlay/overlay.h"
#include "pob/rand/randomized.h"
#include "pob/rand/rotation.h"
#include "pob/rand/tit_for_tat.h"
#include "pob/sched/binomial_pipeline.h"
#include "pob/sched/binomial_tree.h"
#include "pob/sched/multi_server.h"
#include "pob/sched/multicast_tree.h"
#include "pob/sched/pipeline.h"
#include "pob/sched/riffle_pipeline.h"
#include "pob/sched/striped_trees.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"

namespace pob {
namespace {

std::shared_ptr<const Overlay> make_overlay(const Args& args, std::uint32_t n,
                                            Rng& rng) {
  const std::string kind = args.get_string("overlay", "complete");
  if (kind == "complete") return std::make_shared<CompleteOverlay>(n);
  if (kind == "regular") {
    const auto d = args.get_uint("degree", 20);
    return std::make_shared<GraphOverlay>(make_random_regular(n, d, rng));
  }
  if (kind == "hypercube") {
    return std::make_shared<GraphOverlay>(make_hypercube_overlay(n));
  }
  if (kind == "ring") return std::make_shared<GraphOverlay>(make_ring(n));
  if (kind == "karytree") {
    const auto a = static_cast<std::uint32_t>(args.get_int("arity", 2));
    return std::make_shared<GraphOverlay>(make_kary_tree(n, a));
  }
  throw std::invalid_argument("unknown overlay: " + kind);
}

std::unique_ptr<Mechanism> make_mechanism(const Args& args) {
  const std::string kind = args.get_string("mechanism", "none");
  const auto credit = args.get_uint("credit", 1);
  if (kind == "none") return nullptr;
  if (kind == "strict") return std::make_unique<StrictBarter>();
  if (kind == "credit") return std::make_unique<CreditLimited>(credit);
  if (kind == "triangular") return std::make_unique<CyclicBarter>(3, credit);
  if (kind == "cyclic") {
    const auto len = static_cast<std::uint32_t>(args.get_int("cycle-len", 4));
    return std::make_unique<CyclicBarter>(len, credit);
  }
  throw std::invalid_argument("unknown mechanism: " + kind);
}

BlockPolicy parse_policy(const Args& args) {
  const std::string p = args.get_string("policy", "random");
  if (p == "random") return BlockPolicy::kRandom;
  if (p == "rarest" || p == "rarest-first") return BlockPolicy::kRarestFirst;
  throw std::invalid_argument("unknown policy: " + p);
}

std::shared_ptr<const scale::Topology> make_scale_topology(const Args& args,
                                                           std::uint32_t n, Rng& rng) {
  const std::string kind = args.get_string("overlay", "complete");
  if (kind == "complete") {
    return std::make_shared<scale::Topology>(scale::Topology::complete(n));
  }
  if (kind == "regular") {
    const auto d = args.get_uint("degree", 20);
    return std::make_shared<scale::Topology>(
        scale::Topology::from_graph(make_random_regular(n, d, rng)));
  }
  if (kind == "hypercube") {
    return std::make_shared<scale::Topology>(
        scale::Topology::from_graph(make_hypercube_overlay(n)));
  }
  if (kind == "ring") {
    return std::make_shared<scale::Topology>(scale::Topology::from_graph(make_ring(n)));
  }
  if (kind == "karytree") {
    const auto a = static_cast<std::uint32_t>(args.get_int("arity", 2));
    return std::make_shared<scale::Topology>(
        scale::Topology::from_graph(make_kary_tree(n, a)));
  }
  throw std::invalid_argument("unknown overlay: " + kind);
}

/// The --certify report: the pob/flow lower-bound oracle evaluated on the
/// exact scenario just simulated. T* is sound for every legal schedule of
/// the scenario, so simulated-T / T* is a certified price — 1.00 means the
/// run is provably optimal on its topology.
void print_certificate(const EngineConfig& cfg, const scale::Topology& topo,
                       flow::BarterModel model, bool completed, Tick simulated) {
  const flow::CompletionCertificate cert =
      flow::certify_completion_bound(cfg, topo, model);
  std::cout << "# certificate: T*=" << cert.lower_bound << " simulated-T=";
  if (completed) {
    std::cout << simulated << " certified-price="
              << fmt(flow::certified_price(simulated, cert.lower_bound), 3);
  } else {
    std::cout << "DNF";
  }
  std::cout << " (last-block " << cert.last_block_bound << ", ramp "
            << cert.ramp_bound << ", pipe " << cert.pipe_bound;
  if (cert.flow_evaluated) std::cout << ", flow " << cert.flow_bound;
  if (model == flow::BarterModel::kStrictBarter) {
    std::cout << ", seed " << cert.seed_bound << ", strict-ramp "
              << cert.strict_ramp_bound;
  }
  std::cout << "; demand " << cert.demand_clients << ")\n";
}

/// The --engine=scale path: trials run serially, each tick parallelized
/// inside the engine, so --jobs speeds up one giant run instead of
/// oversubscribing cores with concurrent mega-swarms.
int run_scale(const Args& args, const EngineConfig& cfg, std::uint32_t n,
              std::uint32_t k, std::uint32_t runs, std::uint64_t seed, unsigned jobs) {
  scale::ScaleOptions opt;
  opt.policy = parse_policy(args);
  opt.max_probes = args.get_uint("probes", 16);
  // --simd=off forces the scalar reference scan kernel (results identical,
  // only seconds differ) — the same flag scale_throughput takes.
  opt.scan_kernel = args.get_string("simd", "auto") == "off"
                        ? scale::ScanKernel::kScalar
                        : scale::ScanKernel::kAuto;
  const std::string algo = args.get_string("algo", "randomized");
  if (algo == "binomial-pipeline" || algo == "binomial") {
    opt.scheduler = scale::SchedKind::kBinomialPipeline;
  } else if (algo == "riffle") {
    opt.scheduler = scale::SchedKind::kRifflePipeline;
  } else if (algo == "triangular" || algo == "triangular-barter") {
    opt.scheduler = scale::SchedKind::kTriangularBarter;
    opt.credit_limit = args.get_uint("credit", 1);
  } else if (algo != "randomized" && algo != "credit-randomized") {
    throw std::invalid_argument(
        "scale engine supports --algo=randomized|credit-randomized|"
        "binomial-pipeline|riffle|triangular, not " + algo);
  }
  const std::string mech = args.get_string("mechanism", "none");
  if (opt.scheduler != scale::SchedKind::kRandomized) {
    if (mech != "none") {
      throw std::invalid_argument(
          "deterministic scale schedulers enforce their mechanism natively; "
          "drop --mechanism");
    }
  } else if (mech == "credit" || algo == "credit-randomized") {
    opt.credit_limit = args.get_uint("credit", 1);
  } else if (mech != "none") {
    throw std::invalid_argument("scale engine supports --mechanism=none|credit, not " +
                                mech);
  }

  const auto sweep_start = std::chrono::steady_clock::now();
  std::uint64_t state_bytes = 0;
  std::shared_ptr<const scale::Topology> first_topo;
  bool first_completed = false;
  Tick first_tick = 0;
  const TrialStats stats = repeat_trials_parallel(runs, 1, [&](std::uint32_t i) {
    const std::uint64_t run_seed = trial_seed(seed, i);
    Rng topo_rng = Rng(run_seed).split(0);
    std::shared_ptr<const scale::Topology> topo = make_scale_topology(args, n, topo_rng);
    if (i == 0) first_topo = topo;
    scale::Engine engine(cfg, topo, opt, run_seed);
    if (i == 0) state_bytes = engine.state_bytes();
    const RunResult r = engine.run(jobs);
    if (i == 0) {
      first_completed = r.completed;
      first_tick = r.completion_tick;
    }
    if (args.has("save-trace") && i == 0) {
      std::ofstream out(args.get_string("save-trace", ""));
      if (!out) throw std::invalid_argument("cannot open trace output file");
      write_trace(out, cfg, r);
    }
    if (args.has("fairness") && i == 0) {
      const FairnessSummary f = upload_fairness(r);
      std::cout << "fairness (clients): mean=" << fmt(f.mean, 1) << " min=" << fmt(f.min, 0)
                << " max=" << fmt(f.max, 0) << " gini=" << fmt(f.gini, 3) << "\n";
    }
    TrialOutcome out;
    out.completed = r.completed;
    if (r.completed) {
      out.completion = static_cast<double>(r.completion_tick);
      out.mean_completion = r.mean_client_completion();
    }
    return out;
  });

  const std::string algo_label =
      std::string("scale:") +
      (opt.scheduler != scale::SchedKind::kRandomized
           ? sched_kind_name(opt.scheduler)
           : (opt.credit_limit != 0 ? "credit-randomized" : "randomized"));
  Table table({"algo", "n", "k", "runs", "T", "mean-finish", "coop-bound"});
  const double cap = cfg.max_ticks != 0 ? static_cast<double>(cfg.max_ticks)
                                        : static_cast<double>(default_tick_cap(n, k));
  table.add_row({algo_label, std::to_string(n), std::to_string(k), std::to_string(runs),
                 completion_cell(stats, cap),
                 stats.all_censored() ? "-" : fmt(stats.mean_completion.mean),
                 std::to_string(cooperative_lower_bound(n, k))});
  if (args.has("csv")) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();
  std::cout << "# scale engine: " << runs << " run(s) in " << fmt(sweep_seconds, 2)
            << " s, state " << state_bytes / (1024 * 1024) << " MiB, jobs="
            << (jobs == 0 ? default_jobs() : jobs) << "\n";
  if (args.has("certify")) {
    // Certify run 0's exact scenario: same topology draw, same config. Riffle
    // is the only scale scheduler bound by strict barter's coupling.
    const flow::BarterModel model = opt.scheduler == scale::SchedKind::kRifflePipeline
                                        ? flow::BarterModel::kStrictBarter
                                        : flow::BarterModel::kCooperative;
    print_certificate(cfg, *first_topo, model, first_completed, first_tick);
  }
  return 0;
}

/// The --engine=stream path: one StreamEngine run (randomized protocol with
/// event-driven arrivals, optional rate classes / churn / sequential demand /
/// deadlines), reporting the streaming metrics alongside the usual table.
int run_stream(const Args& args, const EngineConfig& cfg, std::uint32_t n,
               std::uint32_t k, std::uint64_t seed, unsigned jobs) {
  scale::stream::StreamSpec spec;
  spec.config = cfg;
  spec.seed = seed;
  Rng topo_rng = Rng(seed).split(0);
  spec.topology = make_scale_topology(args, n, topo_rng);
  spec.options.policy = parse_policy(args);
  spec.options.max_probes = args.get_uint("probes", 16);
  spec.options.scan_kernel = args.get_string("simd", "auto") == "off"
                                 ? scale::ScanKernel::kScalar
                                 : scale::ScanKernel::kAuto;

  const std::string arrivals = args.get_string("arrivals", "batch");
  if (arrivals == "poisson") {
    spec.workload.arrivals = scale::stream::ArrivalPattern::kPoisson;
    spec.workload.mean_gap16 = args.get_uint("gap16", 16);
  } else if (arrivals == "flash" || arrivals == "flash-crowd") {
    spec.workload.arrivals = scale::stream::ArrivalPattern::kFlashCrowd;
    spec.workload.flash_start = args.get_uint("flash-start", 8);
    spec.workload.flash_width = args.get_uint("flash-width", 4);
    spec.workload.flash_pct = args.get_uint("flash-pct", 90);
  } else if (arrivals == "burst") {
    spec.workload.arrivals = scale::stream::ArrivalPattern::kBurst;
    spec.workload.burst_size = args.get_uint("burst-size", 64);
    spec.workload.burst_period = args.get_uint("burst-period", 4);
  } else if (arrivals != "batch") {
    throw std::invalid_argument("unknown --arrivals=" + arrivals +
                                " (batch | poisson | flash | burst)");
  }
  const auto classes = args.get_uint("classes", 0);
  for (std::uint32_t i = 0; i < classes; ++i) {
    spec.workload.rate_classes.push_back(
        {classes - i, 1 + i, i == 0 ? kUnlimited : 2 * (1 + i)});
  }
  spec.workload.rate_changes = args.get_uint("churn", 0);
  spec.workload.rate_change_horizon = args.get_uint("horizon", 64);
  spec.demand.window = args.get_uint("window", 0);
  spec.demand.startup_blocks = args.get_uint("startup", 4);
  spec.demand.interval = args.get_uint("interval", 1);
  spec.demand.deadlines = args.has("deadlines");
  spec.demand.deadline_slack = args.get_uint("slack", 2);
  spec.config.record_trace = args.has("trace") || args.has("save-trace");

  const auto t0 = std::chrono::steady_clock::now();
  scale::stream::StreamEngine engine(spec);
  const std::uint64_t state_bytes = engine.state_bytes();
  const RunResult r = engine.run(jobs);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();

  if (args.has("save-trace")) {
    std::ofstream out(args.get_string("save-trace", ""));
    if (!out) throw std::invalid_argument("cannot open trace output file");
    TraceEvents events;
    const std::vector<Tick>& arrival = engine.arrivals();
    for (NodeId c = 1; c < n; ++c) {
      if (arrival[c] >= 1) events.arrivals.emplace_back(arrival[c], c);
    }
    for (const scale::stream::StreamEvent& ev : engine.plan().events) {
      if (ev.kind == scale::stream::EventKind::kRate) {
        events.rate_changes.push_back({ev.time, ev.node, ev.up, ev.down});
      }
    }
    write_trace(out, spec.config, r, events);
  }

  Table table({"algo", "n", "k", "arrivals", "T", "mean-finish", "coop-bound"});
  const double cap = cfg.max_ticks != 0 ? static_cast<double>(cfg.max_ticks)
                                        : static_cast<double>(default_tick_cap(n, k));
  table.add_row({"stream:randomized", std::to_string(n), std::to_string(k), arrivals,
                 r.completed ? fmt(static_cast<double>(r.completion_tick), 0)
                             : (r.stalled ? "stall" : ">" + fmt(cap, 0)),
                 r.completed ? fmt(r.mean_client_completion()) : "-",
                 std::to_string(cooperative_lower_bound(n, k))});
  if (args.has("csv")) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }

  // The streaming metrics the stream layer adds on top of RunResult.
  std::uint64_t started = 0;
  double latency_sum = 0.0;
  for (const double lat : r.startup_latency) {
    if (!std::isnan(lat)) {
      ++started;
      latency_sum += lat;
    }
  }
  std::cout << "# startup: " << started << " started / " << r.never_started
            << " censored, mean latency "
            << fmt(started != 0 ? latency_sum / static_cast<double>(started) : 0.0, 2)
            << "; rebuffer " << r.total_rebuffer_ticks() << " ticks over "
            << r.rebuffered_clients << " clients; deadline misses "
            << r.deadline_misses << "/" << r.deadline_checks << " ("
            << fmt(r.deadline_miss_fraction(), 4) << ")\n";
  std::cout << "# stream engine: 1 run in " << fmt(seconds, 2) << " s, state "
            << state_bytes / (1024 * 1024) << " MiB, jobs="
            << (jobs == 0 ? default_jobs() : jobs) << "\n";
  if (args.has("certify")) {
    if (classes != 0) {
      // Rate classes raise per-node capacities above the config scalars the
      // certifier sees, so a bound computed here would not be sound.
      std::cout << "# certificate: skipped (--classes overrides capacities)\n";
    } else {
      print_certificate(spec.config, *spec.topology, flow::BarterModel::kCooperative,
                        r.completed, r.completion_tick);
    }
  }
  return 0;
}

int main_impl(int argc, char** argv) {
  const Args args(argc, argv);

  if (args.has("replay")) {
    std::ifstream in(args.get_string("replay", ""));
    if (!in) throw std::invalid_argument("cannot open trace file");
    const LoadedTrace trace = read_trace(in);
    std::unique_ptr<Mechanism> mech = make_mechanism(args);
    const RunResult r = replay_trace(trace, mech.get());
    std::cout << "replayed " << trace.ticks.size() << " ticks: "
              << (r.completed ? "completed at tick " + std::to_string(r.completion_tick)
                              : "incomplete")
              << " under mechanism '" << args.get_string("mechanism", "none") << "'\n";
    return r.completed ? 0 : 1;
  }

  const std::string algo = args.get_string("algo", "binomial-pipeline");
  const auto n = args.get_uint("n", 64);
  const auto k = args.get_uint("k", 32);
  const auto runs = args.get_uint("runs", 1);
  const auto seed = static_cast<std::uint64_t>(args.get_int("seed", 1));
  const unsigned jobs = jobs_from_flag(args.get_int("jobs", 0));

  EngineConfig cfg;
  cfg.num_nodes = n;
  cfg.num_blocks = k;
  cfg.upload_capacity = args.get_uint("upload", 1);
  cfg.download_capacity =
      args.has("download") ? args.get_uint("download", 1) : kUnlimited;
  cfg.max_ticks = args.get_uint("cap", 0);
  cfg.record_trace = args.has("trace") || args.has("save-trace");
  if (args.has("stall-window")) {
    cfg.stall_window = static_cast<Tick>(args.get_int("stall-window", 250));
  }
  if (args.has("leave-pct")) {
    // Random departures in the first half of the nominal schedule.
    const double fraction = args.get_double("leave-pct", 0.0) / 100.0;
    Rng churn_rng(seed ^ 0xC4A0);
    std::vector<NodeId> clients(n - 1);
    for (NodeId c = 1; c < n; ++c) clients[c - 1] = c;
    churn_rng.shuffle(clients);
    const Tick horizon = (k + ceil_log2(n)) / 2 + 1;
    const auto leavers = static_cast<std::uint32_t>(fraction * (n - 1));
    for (std::uint32_t i = 0; i < leavers; ++i) {
      cfg.departures.push_back({1 + churn_rng.below(horizon), clients[i]});
    }
    cfg.drop_transfers_involving_inactive = true;
  }
  if (algo == "multi-server") {
    cfg.server_upload_capacity =
        static_cast<std::uint32_t>(args.get_int("servers", 2));
  }

  const std::string engine = args.get_string("engine", "core");
  if (engine == "scale") return run_scale(args, cfg, n, k, runs, seed, jobs);
  if (engine == "stream") return run_stream(args, cfg, n, k, seed, jobs);
  if (engine != "core") throw std::invalid_argument("unknown engine: " + engine);

  RandomizedOptions opt;
  opt.policy = parse_policy(args);
  opt.upload_capacity = cfg.upload_capacity;
  opt.download_capacity = cfg.download_capacity;

  const auto sweep_start = std::chrono::steady_clock::now();
  bool first_completed = false;
  Tick first_tick = 0;
  const TrialStats stats = repeat_trials_parallel(runs, jobs, [&](std::uint32_t i) -> TrialOutcome {
    Rng run_rng(trial_seed(seed, i));
    std::unique_ptr<Mechanism> mech = make_mechanism(args);
    std::unique_ptr<Scheduler> sched;
    if (algo == "pipeline") {
      sched = std::make_unique<PipelineScheduler>(n, k);
    } else if (algo == "tree") {
      const auto a = static_cast<std::uint32_t>(args.get_int("arity", 2));
      sched = std::make_unique<MulticastTreeScheduler>(n, k, a);
    } else if (algo == "binomial-tree") {
      sched = std::make_unique<BinomialTreeScheduler>(n, k);
    } else if (algo == "binomial-pipeline") {
      sched = std::make_unique<BinomialPipelineScheduler>(n, k);
    } else if (algo == "multi-server") {
      sched = std::make_unique<MultiServerScheduler>(
          n, k, static_cast<std::uint32_t>(args.get_int("servers", 2)));
    } else if (algo == "riffle") {
      const std::uint32_t d = cfg.download_capacity == kUnlimited
                                  ? 2u
                                  : cfg.download_capacity;
      sched = std::make_unique<RifflePipelineScheduler>(n, k, cfg.upload_capacity, d);
    } else if (algo == "randomized") {
      sched = std::make_unique<RandomizedScheduler>(make_overlay(args, n, run_rng),
                                                    opt, run_rng.split(1));
    } else if (algo == "credit-randomized") {
      auto credit = std::make_unique<CreditLimited>(args.get_uint("credit", 1));
      sched = std::make_unique<RandomizedScheduler>(make_overlay(args, n, run_rng),
                                                    opt, run_rng.split(1),
                                                    credit.get());
      mech = std::move(credit);
    } else if (algo == "tit-for-tat") {
      TitForTatOptions tft;
      tft.policy = opt.policy;
      tft.upload_capacity = opt.upload_capacity;
      tft.download_capacity = opt.download_capacity;
      sched = std::make_unique<TitForTatScheduler>(make_overlay(args, n, run_rng), tft,
                                                   run_rng.split(1));
    } else if (algo == "striped-trees") {
      sched = std::make_unique<StripedTreesScheduler>(
          n, k, static_cast<std::uint32_t>(args.get_int("stripes", 4)));
    } else if (algo == "rotating") {
      auto credit = std::make_unique<CreditLimited>(args.get_uint("credit", 1));
      sched = std::make_unique<RotatingRandomizedScheduler>(
          n, args.get_uint("degree", 8),
          static_cast<Tick>(args.get_int("period", 16)), opt, run_rng.split(1),
          credit.get());
      mech = std::move(credit);
    } else {
      throw std::invalid_argument("unknown algo: " + algo);
    }

    const RunResult r = run(cfg, *sched, mech.get());
    if (i == 0) {
      first_completed = r.completed;
      first_tick = r.completion_tick;
    }
    if (args.has("save-trace") && i == 0) {
      std::ofstream out(args.get_string("save-trace", ""));
      if (!out) throw std::invalid_argument("cannot open trace output file");
      write_trace(out, cfg, r);
    }
    if (args.has("fairness") && i == 0) {
      const FairnessSummary f = upload_fairness(r);
      std::cout << "fairness (clients): mean=" << fmt(f.mean, 1) << " min=" << fmt(f.min, 0)
                << " max=" << fmt(f.max, 0) << " gini=" << fmt(f.gini, 3) << "\n";
    }
    if (args.has("trace") && i == 0) {
      for (Tick t = 1; t <= r.trace.size(); ++t) {
        std::cout << "tick " << t << ":";
        for (const Transfer& tr : r.trace[t - 1]) {
          std::cout << "  " << tr.from << "->" << tr.to << " b" << tr.block;
        }
        std::cout << "\n";
      }
    }
    TrialOutcome out;
    out.completed = r.completed;
    if (r.completed) {
      out.completion = static_cast<double>(r.completion_tick);
      out.mean_completion = r.mean_client_completion();
    }
    return out;
  });

  Table table({"algo", "n", "k", "runs", "T", "mean-finish", "coop-bound"});
  const double cap = cfg.max_ticks != 0
                         ? static_cast<double>(cfg.max_ticks)
                         : static_cast<double>(default_tick_cap(n, k));
  table.add_row({algo, std::to_string(n), std::to_string(k), std::to_string(runs),
                 completion_cell(stats, cap),
                 stats.all_censored() ? "-" : fmt(stats.mean_completion.mean),
                 std::to_string(cooperative_lower_bound(n, k))});
  if (args.has("csv")) {
    table.write_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  const double sweep_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - sweep_start)
          .count();
  std::cout << "# sweep: " << runs << " trials in " << fmt(sweep_seconds, 2) << " s ("
            << fmt(sweep_seconds > 0.0 ? runs / sweep_seconds : 0.0, 1)
            << " trials/s, jobs=" << (jobs == 0 ? default_jobs() : jobs) << ")\n";
  if (args.has("certify")) {
    // Only the overlay-sampling schedulers are bound by --overlay; everything
    // else may pair any two nodes, so the complete graph is the sound base.
    const bool overlay_bound =
        algo == "randomized" || algo == "credit-randomized" || algo == "tit-for-tat";
    Rng cert_rng(trial_seed(seed, 0));  // run 0's overlay draw, re-derived
    const std::shared_ptr<const scale::Topology> cert_topo =
        overlay_bound ? make_scale_topology(args, n, cert_rng)
                      : std::make_shared<scale::Topology>(scale::Topology::complete(n));
    const flow::BarterModel model =
        (algo == "riffle" || args.get_string("mechanism", "none") == "strict")
            ? flow::BarterModel::kStrictBarter
            : flow::BarterModel::kCooperative;
    print_certificate(cfg, *cert_topo, model, first_completed, first_tick);
  }
  return 0;
}

}  // namespace
}  // namespace pob

int main(int argc, char** argv) {
  try {
    return pob::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "pobsim: " << e.what() << "\n";
    return 2;
  }
}
