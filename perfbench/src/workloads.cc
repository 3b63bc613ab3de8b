#include "workloads.h"

#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <memory>
#include <span>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "audit.h"
#include "bench_util.h"
#include "host.h"
#include "pob/check/oracle.h"
#include "pob/core/rng.h"
#include "pob/exp/parallel.h"
#include "pob/flow/certify.h"
#include "pob/overlay/builders.h"
#include "pob/scale/engine.h"
#include "pob/scale/stream/stream_engine.h"
#include "stats.h"

namespace perfbench {
namespace {

using pob::Count;
using pob::EngineConfig;
using pob::NodeId;
using pob::RunResult;
using pob::Tick;
using pob::Transfer;
using pob::scale::SchedKind;
namespace scale = pob::scale;
namespace stream = pob::scale::stream;
using Clock = std::chrono::steady_clock;

/// Every workload runs on two workers.
constexpr unsigned kJobs = 2;
/// Untraced runs made at least, however short --seconds is.
constexpr int kMinRuns = 3;
/// setup_s is the median of at least kMinSetups set-ups; set-ups alone are
/// added until kSetupOnlySeconds were spent on them, up to kMaxSetups.
constexpr std::size_t kMinSetups = 9;
constexpr double kSetupOnlySeconds = 0.5;
constexpr std::size_t kMaxSetups = 200;
/// The stream workload's server upload, as in E25.
constexpr std::uint32_t kStreamServerUp = 8;
constexpr double kMiB = 1024.0 * 1024.0;
/// The seed of each workload's reference swarm, the inputs its pins are
/// taken on.
constexpr std::uint64_t kReferenceSeed = 1;
/// Where the traced run writes its spans, relative to the working directory.
constexpr const char* kTraceDir = ".bench_out";

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

enum class Family { kScale, kStream };

/// Outputs pinned on the reference swarm. The viewer metrics apply to the
/// stream workload only.
struct Pins {
  Tick completion_tick = 0;
  std::uint64_t digest = 0;
  double startup_p50 = 0.0;
  double startup_p95 = 0.0;
  double startup_max = 0.0;
  Count rebuffer_ticks = 0;
  Count deadline_misses = 0;
};

struct Workload {
  const char* name;
  Family family;
  std::uint32_t n;
  std::uint32_t k;
  std::uint32_t degree;  // 0 = complete topology
  SchedKind sched;
  std::uint32_t credit_limit;
  std::uint32_t download_capacity;
  Pins pins;
};

// Scaled-down versions of the three headline runs (E22 randomized, E24 price
// table, E25 flash crowd); each keeps the layer that dominates it at full
// scale. BENCHMARK.json says why each exists.
const Workload kWorkloads[] = {
    {"coop_random", Family::kScale, 1u << 16, 256, 16, SchedKind::kRandomized, 0,
     pob::kUnlimited, {368, 3207577736814128023ULL}},
    {"barter_triangular", Family::kScale, 1u << 17, 256, 0,
     SchedKind::kTriangularBarter, 1, pob::kUnlimited, {272, 9909634293859716148ULL}},
    {"barter_riffle", Family::kScale, 1u << 18, 64, 0, SchedKind::kRifflePipeline, 0,
     2, {262206, 5207001643371034221ULL}},
    {"stream_flash", Family::kStream, 1u << 15, 256, 16, SchedKind::kRandomized, 0,
     pob::kUnlimited, {214, 632753034192246791ULL, 92, 131, 187, 1916180, 2111027}},
};

const Workload* find_workload(std::string_view name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

EngineConfig engine_config(const Workload& w) {
  EngineConfig cfg;
  cfg.num_nodes = w.n;
  cfg.num_blocks = w.k;
  cfg.download_capacity = w.download_capacity;
  if (w.family == Family::kStream) cfg.server_upload_capacity = kStreamServerUp;
  return cfg;
}

scale::ScaleOptions scale_options(const Workload& w, bool phase_timings) {
  scale::ScaleOptions opt;
  opt.scheduler = w.sched;
  opt.credit_limit = w.credit_limit;
  opt.collect_phase_timings = phase_timings;
  return opt;
}

/// E25's flash crowd: 90% of the clients arrive in ticks [8, 24), three rate
/// classes (weights 3/2/1, up 1/2/3, down unlimited/4/6) with 1024 mid-run
/// rate changes, a 4-block startup buffer and hard deadlines with slack 2.
stream::StreamSpec stream_spec(const Workload& w, std::uint64_t seed,
                               std::shared_ptr<const scale::Topology> topology,
                               bool phase_timings) {
  stream::StreamSpec spec;
  spec.seed = seed;
  spec.config = engine_config(w);
  spec.topology = std::move(topology);
  spec.options = scale_options(w, phase_timings);
  spec.workload.arrivals = stream::ArrivalPattern::kFlashCrowd;
  spec.workload.flash_start = 8;
  spec.workload.flash_width = 16;
  spec.workload.rate_classes = {{3, 1, pob::kUnlimited}, {2, 2, 4}, {1, 3, 6}};
  spec.workload.rate_changes = 1024;
  spec.workload.rate_change_horizon = 64;
  spec.demand.startup_blocks = 4;
  spec.demand.deadlines = true;
  spec.demand.deadline_slack = 2;
  return spec;
}

// --- Spans -------------------------------------------------------------

struct Span {
  const char* name;
  Clock::time_point start;
  Clock::time_point end;
};

/// Set-up spans, one per call into a layer.
struct SetupSpans {
  std::vector<Span> spans;

  template <class F>
  auto timed(const char* name, F&& body) {
    const auto start = Clock::now();
    auto value = body();
    spans.push_back({name, start, Clock::now()});
    return value;
  }

  /// Seconds spent in spans whose name starts with `prefix`.
  double seconds(std::string_view prefix) const {
    double total = 0.0;
    for (const Span& s : spans) {
      if (std::string_view(s.name).starts_with(prefix)) {
        total += seconds_between(s.start, s.end);
      }
    }
    return total;
  }
  double total() const { return seconds(""); }
};

/// One tick of the traced run: its step() span with the engine phases inside
/// it, and the stream-layer and audit work around it.
struct TickSpan {
  Clock::time_point start;
  Clock::time_point end;
  scale::PhaseTimings phases;
  double stream_seconds = 0.0;
  double audit_seconds = 0.0;
  double step_seconds() const { return seconds_between(start, end); }
};

std::shared_ptr<const scale::Topology> build_topology(const Workload& w,
                                                      std::uint64_t seed,
                                                      SetupSpans& setup) {
  if (w.degree == 0) {
    return setup.timed("topology", [&] {
      return std::make_shared<const scale::Topology>(scale::Topology::complete(w.n));
    });
  }
  pob::Rng rng = pob::Rng(seed).split(0);
  const pob::Graph graph =
      setup.timed("overlay", [&] { return pob::make_random_regular(w.n, w.degree, rng); });
  return setup.timed("topology", [&] {
    return std::make_shared<const scale::Topology>(scale::Topology::from_graph(graph));
  });
}

// --- Result checks -----------------------------------------------------

struct Viewer {
  double startup_p50 = 0.0;
  double startup_p95 = 0.0;
  double startup_max = 0.0;
};

Viewer viewer_metrics(const RunResult& r) {
  std::vector<double> started;
  for (const double latency : r.startup_latency) {
    if (!std::isnan(latency)) started.push_back(latency);
  }
  if (started.empty()) return {};
  return {percentile(started, 50), percentile(started, 95), percentile(started, 100)};
}

/// A sound lower bound T* on the workload's completion time. The stream
/// workload is certified as a batch swarm in which every client has the
/// largest class's upload: more capacity and earlier arrivals can only
/// lower the bound.
Tick certified_bound(const Workload& w, const scale::Topology& topology) {
  EngineConfig cfg = engine_config(w);
  if (w.family == Family::kStream) {
    cfg.upload_capacities.assign(w.n, 3);
    cfg.upload_capacities[pob::kServer] = kStreamServerUp;
    cfg.download_capacities.assign(w.n, pob::kUnlimited);
  }
  const auto model = w.sched == SchedKind::kRifflePipeline
                         ? pob::flow::BarterModel::kStrictBarter
                         : pob::flow::BarterModel::kCooperative;
  return pob::flow::certify_completion_bound(cfg, topology, model).lower_bound;
}

/// Empty when `r` is right; otherwise what is wrong with it.
std::string check_result(const Workload& w, std::uint64_t seed, const RunResult& r,
                         std::uint64_t digest, Tick lower_bound) {
  std::ostringstream why;
  const Count expected = static_cast<Count>(w.n - 1) * w.k;
  const Tick t = r.completion_tick;
  if (!r.completed) {
    why << "the run did not complete; ";
  } else {
    if (r.total_transfers != expected) {
      why << "transfers " << r.total_transfers << " != (n-1)k = " << expected << "; ";
    }
    const Tick log2n = static_cast<Tick>(std::bit_width(w.n - 1));
    if (w.sched == SchedKind::kTriangularBarter && t != w.k - 1 + log2n) {
      why << "T " << t << " != k-1+log2 n = " << w.k - 1 + log2n << "; ";
    }
    if (w.sched == SchedKind::kRifflePipeline && t != w.n + w.k - 2) {
      why << "T " << t << " != n+k-2 = " << w.n + w.k - 2 << "; ";
    }
    if (t < lower_bound) why << "T " << t << " < certified T* " << lower_bound << "; ";
  }
  if (seed == kReferenceSeed) {
    const Pins& p = w.pins;
    if (t != p.completion_tick) {
      why << "T " << t << " != pinned " << p.completion_tick << "; ";
    }
    if (digest != p.digest) why << "digest " << digest << " != pinned " << p.digest << "; ";
    if (w.family == Family::kStream) {
      const Viewer v = viewer_metrics(r);
      if (v.startup_p50 != p.startup_p50 || v.startup_p95 != p.startup_p95 ||
          v.startup_max != p.startup_max) {
        why << "startup p50/p95/max " << v.startup_p50 << "/" << v.startup_p95 << "/"
            << v.startup_max << " != pinned " << p.startup_p50 << "/" << p.startup_p95
            << "/" << p.startup_max << "; ";
      }
      if (r.total_rebuffer_ticks() != p.rebuffer_ticks) {
        why << "rebuffer ticks " << r.total_rebuffer_ticks() << " != pinned "
            << p.rebuffer_ticks << "; ";
      }
      if (r.deadline_misses != p.deadline_misses) {
        why << "deadline misses " << r.deadline_misses << " != pinned "
            << p.deadline_misses << "; ";
      }
    }
  }
  return why.str();
}

/// One line describing a result, for the log.
std::string describe(const Workload& w, const RunResult& r, std::uint64_t digest) {
  std::ostringstream out;
  out << "T=" << r.completion_tick << " transfers=" << r.total_transfers
      << " digest=" << digest;
  if (w.family == Family::kStream) {
    const Viewer v = viewer_metrics(r);
    out << " startup p50/p95/max=" << v.startup_p50 << "/" << v.startup_p95 << "/"
        << v.startup_max << " rebuffer=" << r.total_rebuffer_ticks()
        << " deadline_misses=" << r.deadline_misses;
  }
  return out.str();
}

// --- Untraced runs -------------------------------------------------------

struct UntracedRun {
  SetupSpans setup;
  std::shared_ptr<const scale::Topology> topology;
  double run_seconds = 0.0;
  double cpu_seconds = 0.0;
  RunResult result;
  std::uint64_t digest = 0;
  std::uint32_t batch_window = 0;
  std::uint32_t compact_threshold = 0;
};

/// Sets the workload's swarm up and, if `run` is set, runs it to completion
/// through Engine::run / StreamEngine::run with phase timing off.
UntracedRun untraced_run(const Workload& w, std::uint64_t seed, bool run) {
  UntracedRun out;
  out.topology = build_topology(w, seed, out.setup);
  const auto finish = [&](auto& engine, const scale::Engine& core) {
    out.batch_window = core.batch_window();
    out.compact_threshold = core.compact_threshold();
    if (!run) return;
    const double cpu0 = process_cpu_seconds();
    const auto t0 = Clock::now();
    out.result = engine.run(kJobs);
    out.run_seconds = seconds_between(t0, Clock::now());
    out.cpu_seconds = process_cpu_seconds() - cpu0;
    out.digest = pob::check::run_result_digest(out.result);
  };
  if (w.family == Family::kScale) {
    auto engine = out.setup.timed("engine", [&] {
      return std::make_unique<scale::Engine>(engine_config(w), out.topology,
                                             scale_options(w, false), seed);
    });
    finish(*engine, *engine);
  } else {
    auto engine = out.setup.timed("stream", [&] {
      return std::make_unique<stream::StreamEngine>(
          stream_spec(w, seed, out.topology, false));
    });
    finish(*engine, engine->engine());
  }
  return out;
}

// --- The traced run --------------------------------------------------------

struct TracedRun {
  SetupSpans setup;
  std::vector<TickSpan> ticks;
  Clock::time_point loop_start;
  Clock::time_point loop_end;
  double finalize_seconds = 0.0;  // DemandTracker::finalize (stream only)
  RunResult result;
  std::uint64_t digest = 0;
  double state_mb = 0.0;
  double released_mb = 0.0;
  std::uint64_t audit_checked = 0;
  std::uint64_t audit_violations = 0;
  std::uint32_t audit_incomplete = 0;
  std::string audit_first;

  double loop_seconds() const { return seconds_between(loop_start, loop_end); }
};

/// Records one step() as a tick span and folds its stream into `result`
/// exactly as Engine::run does.
std::span<const Transfer> traced_step(scale::Engine& engine, pob::ThreadPool& pool,
                                      TracedRun& run) {
  TickSpan tick;
  const scale::PhaseTimings before = engine.phase_timings();
  tick.start = Clock::now();
  const std::span<const Transfer> accepted = engine.step(&pool);
  tick.end = Clock::now();
  tick.phases = phase_delta(before, engine.phase_timings());
  run.ticks.push_back(tick);
  RunResult& r = run.result;
  r.total_transfers += accepted.size();
  r.uploads_per_tick.push_back(accepted.size());
  r.active_slots_per_tick.push_back(engine.active_upload_slots());
  return accepted;
}

void audit_step(TransferAudit& audit, std::span<const Transfer> accepted, TracedRun& run) {
  const auto t0 = Clock::now();
  audit.check_tick(accepted);
  run.ticks.back().audit_seconds = seconds_between(t0, Clock::now());
}

/// The end-of-run fields Engine::run and StreamEngine::run fill in.
void finish_result(const scale::Engine& engine, RunResult& r) {
  const std::uint32_t n = engine.config().num_nodes;
  r.ticks_executed = static_cast<Tick>(r.uploads_per_tick.size());
  r.departed = engine.num_departed();
  r.client_completion.resize(n - 1);
  r.uploads_per_node.resize(n);
  for (NodeId u = 0; u < n; ++u) {
    if (u != pob::kServer) r.client_completion[u - 1] = engine.node_completion(u);
    r.uploads_per_node[u] = engine.node_uploads(u);
  }
  if (r.completed) {
    r.completion_tick =
        *std::max_element(r.client_completion.begin(), r.client_completion.end());
  }
}

void finish_traced(const scale::Engine& engine, const TransferAudit& audit,
                   TracedRun& run) {
  finish_result(engine, run.result);
  run.digest = pob::check::run_result_digest(run.result);
  run.state_mb = static_cast<double>(engine.state_bytes()) / kMiB;
  run.released_mb = static_cast<double>(engine.arena_released_bytes()) / kMiB;
  run.audit_checked = audit.transfers_checked();
  run.audit_violations = audit.violations();
  run.audit_incomplete = audit.incomplete_nodes();
  run.audit_first = audit.first_violation();
}

TracedRun traced_scale_run(const Workload& w, std::uint64_t seed) {
  TracedRun run;
  const EngineConfig cfg = engine_config(w);
  const auto topology = build_topology(w, seed, run.setup);
  auto engine = run.setup.timed("engine", [&] {
    return std::make_unique<scale::Engine>(cfg, topology, scale_options(w, true), seed);
  });
  std::vector<std::uint32_t> up(w.n, cfg.upload_capacity);
  up[pob::kServer] =
      cfg.server_upload_capacity != 0 ? cfg.server_upload_capacity : cfg.upload_capacity;
  std::vector<std::uint32_t> down(w.n, cfg.download_capacity);
  down[pob::kServer] = pob::kUnlimited;
  TransferAudit audit(w.n, w.k, std::move(up), std::move(down));
  pob::ThreadPool pool(kJobs);

  const Tick cap = pob::default_tick_cap(w.n, w.k);
  run.loop_start = Clock::now();
  while (!engine->all_complete() && run.ticks.size() < cap) {
    audit_step(audit, traced_step(*engine, pool, run), run);
  }
  run.loop_end = Clock::now();
  run.result.completed = engine->all_complete();
  finish_traced(*engine, audit, run);
  return run;
}

/// StreamEngine's construction and run loop, rebuilt from the stream layer's
/// public parts so that each call gets its own span.
TracedRun traced_stream_run(const Workload& w, std::uint64_t seed) {
  TracedRun run;
  stream::StreamSpec spec = stream_spec(w, seed, nullptr, true);
  spec.topology = build_topology(w, seed, run.setup);
  spec.options.stream_window = spec.demand.window;
  const std::uint32_t n = w.n;
  const stream::WorkloadPlan plan = run.setup.timed(
      "stream.plan", [&] { return stream::build_workload(spec.workload, spec.config, seed); });
  auto tracker = run.setup.timed("stream.tracker", [&] {
    return std::make_unique<stream::DemandTracker>(spec.demand, n, w.k, plan.arrival);
  });
  auto engine = run.setup.timed("engine", [&] {
    return std::make_unique<scale::Engine>(spec.config, spec.topology, spec.options, seed);
  });
  stream::CalendarQueue calendar;
  run.setup.timed("stream.load", [&] {
    for (NodeId u = 0; u < n; ++u) {
      engine->set_capacity(u, plan.initial_up[u], plan.initial_down[u]);
    }
    for (NodeId c = 1; c < n; ++c) {
      if (plan.arrival[c] >= 1) engine->deactivate(c);
    }
    for (const stream::StreamEvent& ev : plan.events) calendar.push(ev);
    return 0;
  });
  std::vector<std::uint32_t> down = plan.initial_down;
  down[pob::kServer] = pob::kUnlimited;
  TransferAudit audit(n, w.k, plan.initial_up, std::move(down));
  pob::ThreadPool pool(kJobs);

  const Tick cap = pob::default_tick_cap(n, w.k) + plan.last_arrival;
  std::uint32_t pending = plan.pending_arrivals;
  run.loop_start = Clock::now();
  while ((pending != 0 || !engine->all_complete()) && run.ticks.size() < cap) {
    const Tick t = engine->current_tick() + 1;
    const auto e0 = Clock::now();
    if (!calendar.empty()) {
      for (const stream::StreamEvent& ev : calendar.collect(t)) {
        if (ev.kind == stream::EventKind::kArrive) {
          engine->activate(ev.node);
          --pending;
        } else if (ev.kind == stream::EventKind::kRate) {
          engine->set_capacity(ev.node, ev.up, ev.down);
          audit.set_capacity(ev.node, ev.up, ev.down);
        }
      }
    }
    const double events_seconds = seconds_between(e0, Clock::now());
    const std::span<const Transfer> accepted = traced_step(*engine, pool, run);
    const auto d0 = Clock::now();
    for (const Transfer& tr : accepted) tracker->on_delivery(tr.to, tr.block, t);
    tracker->end_tick(t);
    run.ticks.back().stream_seconds = events_seconds + seconds_between(d0, Clock::now());
    audit_step(audit, accepted, run);
  }
  run.result.completed = pending == 0 && engine->all_complete();
  finish_result(*engine, run.result);
  const auto f0 = Clock::now();
  tracker->finalize(engine->current_tick(), run.result);
  run.loop_end = Clock::now();
  run.finalize_seconds = seconds_between(f0, run.loop_end);
  finish_traced(*engine, audit, run);
  return run;
}

/// Writes the traced run's spans as CSV, times in nanoseconds from the first
/// span's start: one row per set-up call, then one row per tick with its
/// engine phases, stream-layer and audit time.
void write_spans(const TracedRun& run, const std::string& path) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) throw std::runtime_error("cannot write " + path);
  const Clock::time_point origin =
      run.setup.spans.empty() ? run.loop_start : run.setup.spans[0].start;
  const auto ns = [](auto duration) {
    return static_cast<long long>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(duration).count());
  };
  const auto sec_ns = [](double seconds) { return std::llround(seconds * 1e9); };
  std::fprintf(out, "span,tick,start_ns,end_ns,generate_ns,merge_ns,apply_ns,stream_ns,audit_ns\n");
  for (const Span& sp : run.setup.spans) {
    std::fprintf(out, "%s,,%lld,%lld,,,,,\n", sp.name, ns(sp.start - origin),
                 ns(sp.end - origin));
  }
  for (std::size_t i = 0; i < run.ticks.size(); ++i) {
    const TickSpan& t = run.ticks[i];
    std::fprintf(out, "step,%zu,%lld,%lld,%lld,%lld,%lld,%lld,%lld\n", i + 1,
                 ns(t.start - origin), ns(t.end - origin), sec_ns(t.phases.generate_seconds),
                 sec_ns(t.phases.merge_seconds), sec_ns(t.phases.apply_seconds),
                 sec_ns(t.stream_seconds), sec_ns(t.audit_seconds));
  }
  if (run.finalize_seconds > 0.0) {
    std::fprintf(out, "stream.finalize,,%lld,%lld,,,,,\n",
                 ns(run.loop_end - origin) - sec_ns(run.finalize_seconds),
                 ns(run.loop_end - origin));
  }
  if (std::fclose(out) != 0) throw std::runtime_error("cannot write " + path);
}

// --- Reporting -------------------------------------------------------------

class Metrics {
 public:
  Metrics& add(const char* name, double value, const char* unit) {
    std::ostringstream out;
    out.precision(17);
    out << '"' << name << "\": {\"value\": " << value << ", \"unit\": \"" << unit << "\"}";
    items_.push_back(out.str());
    return *this;
  }
  std::string json() const {
    std::string s = "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i != 0) s += ", ";
      s += items_[i];
    }
    return s + "}";
  }

 private:
  std::vector<std::string> items_;
};

/// Prints the result line and returns the exit code. A wrong output is never
/// a figure: when any run failed, the line carries no metrics and the exit
/// code is 1.
int print_result(int attempted, int failed, const Metrics& metrics) {
  std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
            << ", \"attempted\": " << attempted << ", \"failed\": " << failed
            << ", \"metrics\": " << (failed == 0 ? metrics.json() : "{}") << "}"
            << std::endl;
  return failed == 0 ? 0 : 1;
}

void print_host(const Workload& w, const RunSettings& s, std::uint32_t batch_window,
                std::uint32_t compact_threshold) {
  std::cout << "{\"host\": {\"workload\": \"" << w.name << "\", \"seed\": " << s.seed
            << ", \"n\": " << w.n << ", \"k\": " << w.k << ", \"build_type\": \""
            << build_type() << "\", \"scan_kernel\": \""
            << scale::scan_kernel_name(scale::ScanKernel::kAuto)
            << "\", \"batch_window\": " << batch_window
            << ", \"compact_threshold\": " << compact_threshold << ", \"jobs\": " << kJobs
            << ", \"hw_threads\": " << pob::bench::hw_threads()
            << ", \"cpu_quota_cores\": " << pob::bench::cpu_quota_cores()
            << ", \"llc_bytes\": " << llc_bytes() << "}}" << std::endl;
}

/// Checks one result and logs it; returns true when it is right.
bool checked(const Workload& w, std::uint64_t seed, const char* label, const RunResult& r,
             std::uint64_t digest, Tick lower_bound, const std::string& extra = {}) {
  const std::string why = check_result(w, seed, r, digest, lower_bound) + extra;
  std::cerr << "# " << label << ": " << describe(w, r, digest) << " T*=" << lower_bound
            << (why.empty() ? " ok" : " WRONG: " + why) << "\n";
  return why.empty();
}

/// What one set-up (and run) in its own process reports back.
struct RunReport {
  double setup_seconds = 0.0;
  double transfers_per_second = 0.0;
  double peak_rss_mb = 0.0;
  std::uint32_t batch_window = 0;
  std::uint32_t compact_threshold = 0;
  bool correct = false;
};

/// Sets up and, if `run` is set, runs and checks the workload's swarm in a
/// child process, so that every sample starts from a fresh address space and
/// its peak RSS is its own.
RunReport isolated_run(const Workload& w, std::uint64_t seed, bool run, const std::string& label) {
  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    throw std::runtime_error("fork failed");
  }
  if (pid == 0) {
    prctl(PR_SET_PDEATHSIG, SIGKILL);
    close(fds[0]);
    int code = 1;
    try {
      const UntracedRun r = untraced_run(w, seed, run);
      RunReport report;
      report.setup_seconds = r.setup.total();
      report.peak_rss_mb = peak_rss_mb();
      report.batch_window = r.batch_window;
      report.compact_threshold = r.compact_threshold;
      report.correct = true;
      if (run) {
        report.transfers_per_second =
            static_cast<double>(r.result.total_transfers) / r.run_seconds;
        const std::string what = label + " (seed " + std::to_string(seed) + ", " +
                                 std::to_string(r.run_seconds) + " s, cpu " +
                                 std::to_string(r.cpu_seconds) + " s)";
        report.correct = checked(w, seed, what.c_str(), r.result, r.digest,
                                 certified_bound(w, *r.topology));
      }
      if (write(fds[1], &report, sizeof report) == static_cast<ssize_t>(sizeof report)) {
        code = 0;
      }
    } catch (const std::exception& e) {
      std::cerr << "pob_perfbench: " << label << ": " << e.what() << "\n";
    }
    _exit(code);
  }
  close(fds[1]);
  RunReport report;
  std::size_t got = 0;
  auto* bytes = reinterpret_cast<char*>(&report);
  while (got < sizeof report) {
    const ssize_t n = read(fds[0], bytes + got, sizeof report - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (got != sizeof report || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error(label + " failed in its process");
  }
  return report;
}

/// The input seed of a run. The first run of every invocation is the
/// reference swarm, so that the pins are checked and peak_rss_mb is measured
/// on the same inputs every time: the stream layer's memory depends strongly
/// on the input draw. Later runs take seeds derived from --seed, so that one
/// invocation measures several swarms of the workload.
std::uint64_t run_seed(std::uint64_t seed, int index) {
  return index == 0 ? kReferenceSeed
                    : pob::trial_seed(seed, static_cast<std::uint32_t>(index));
}

int run_end_to_end(const Workload& w, const RunSettings& s) {
  std::vector<double> throughput;
  std::vector<double> setup;
  double reference_rss = 0.0;
  int attempted = 0;
  int failed = 0;
  const auto start = Clock::now();
  while (attempted < kMinRuns || seconds_between(start, Clock::now()) < s.seconds) {
    const RunReport r = isolated_run(w, run_seed(s.seed, attempted), true,
                                     "run " + std::to_string(attempted + 1));
    if (attempted == 0) {
      print_host(w, s, r.batch_window, r.compact_threshold);
      reference_rss = r.peak_rss_mb;
    }
    ++attempted;
    if (!r.correct) {
      ++failed;
      continue;
    }
    throughput.push_back(r.transfers_per_second);
    setup.push_back(r.setup_seconds);
  }
  if (failed != 0) return print_result(attempted, failed, Metrics());
  // Set-ups alone until the median rests on enough samples; cheap set-ups
  // (the complete-topology workloads take milliseconds) get many more.
  double setup_only_seconds = 0.0;
  while (setup.size() < kMinSetups ||
         (setup_only_seconds < kSetupOnlySeconds && setup.size() < kMaxSetups)) {
    const int index = static_cast<int>(setup.size());
    setup.push_back(isolated_run(w, run_seed(s.seed, index), false, "set-up").setup_seconds);
    setup_only_seconds += setup.back();
  }
  std::cerr << "# " << attempted << " runs; " << setup.size() << " set-ups, p10/p50/p90 "
            << percentile(setup, 10) << "/" << percentile(setup, 50) << "/"
            << percentile(setup, 90) << " s\n";

  Metrics m;
  m.add("transfers_per_s", median(throughput), "1/s")
      .add("setup_s", median(setup), "s")
      .add("peak_rss_mb", reference_rss, "MiB");
  return print_result(attempted, failed, m);
}

int run_traced(const Workload& w, const RunSettings& s) {
  const UntracedRun base = untraced_run(w, s.seed, true);
  const Tick lower_bound = certified_bound(w, *base.topology);
  print_host(w, s, base.batch_window, base.compact_threshold);
  const int attempted = 2;  // the untraced run and the traced run
  int failed = checked(w, s.seed, "untraced run", base.result, base.digest, lower_bound) ? 0 : 1;

  const TracedRun run = w.family == Family::kScale ? traced_scale_run(w, s.seed)
                                                   : traced_stream_run(w, s.seed);
  std::ostringstream extra;
  if (run.result.completion_tick != base.result.completion_tick ||
      run.result.total_transfers != base.result.total_transfers ||
      run.digest != base.digest) {
    extra << "traced run differs from the untraced run; ";
  }
  if (run.audit_violations != 0) {
    extra << "audit: " << run.audit_violations << " violations, first: " << run.audit_first
          << "; ";
  }
  if (run.audit_incomplete != 0) {
    extra << "audit: " << run.audit_incomplete << " nodes incomplete; ";
  }
  if (!checked(w, s.seed, "traced run", run.result, run.digest, lower_bound, extra.str())) {
    ++failed;
  }

  std::filesystem::create_directories(kTraceDir);
  write_spans(run, std::string(kTraceDir) + "/" + w.name + ".spans.csv");

  scale::PhaseTimings phases;
  double driver = 0.0;
  double stream_self = run.finalize_seconds;
  double audit_self = 0.0;
  double steps = 0.0;
  std::vector<double> tick_ms;
  tick_ms.reserve(run.ticks.size());
  for (const TickSpan& t : run.ticks) {
    phases.generate_seconds += t.phases.generate_seconds;
    phases.merge_seconds += t.phases.merge_seconds;
    phases.apply_seconds += t.phases.apply_seconds;
    driver += driver_self_seconds(t.step_seconds(), t.phases);
    stream_self += t.stream_seconds;
    audit_self += t.audit_seconds;
    steps += t.step_seconds();
    tick_ms.push_back(t.step_seconds() * 1e3);
  }
  const double loop = run.loop_seconds();
  Count slots = 0;
  for (const Count c : run.result.active_slots_per_tick) slots += c;

  Metrics m;
  m.add("generate.self_s", phases.generate_seconds, "s")
      .add("merge.self_s", phases.merge_seconds, "s")
      .add("apply.self_s", phases.apply_seconds, "s")
      .add("driver.self_s", driver, "s")
      .add("stream.self_s", stream_self, "s")
      .add("tick.p50_ms", percentile(tick_ms, 50), "ms")
      .add("tick.p99_ms", percentile(tick_ms, 99), "ms")
      .add("tick.max_ms", percentile(tick_ms, 100), "ms")
      .add("overlay.build_s", run.setup.seconds("overlay"), "s")
      .add("topology.build_s", run.setup.seconds("topology"), "s")
      .add("engine.build_s", run.setup.seconds("engine"), "s")
      .add("stream.build_s", run.setup.seconds("stream"), "s")
      .add("engine.state_mb", run.state_mb, "MiB")
      .add("compact.arena_released_mb", run.released_mb, "MiB")
      .add("process.cpu_s", base.cpu_seconds, "s")
      .add("sim.ticks", static_cast<double>(run.result.ticks_executed), "count")
      .add("sim.transfers", static_cast<double>(run.result.total_transfers), "count")
      .add("sim.slot_utilization",
           slots == 0 ? 0.0
                      : static_cast<double>(run.result.total_transfers) /
                            static_cast<double>(slots),
           "ratio")
      .add("trace.wall_s", loop, "s")
      .add("trace.unaccounted_s", loop - steps - stream_self - audit_self, "s")
      .add("trace.overhead_ratio", (loop - audit_self) / base.run_seconds - 1.0, "ratio")
      .add("audit.self_s", audit_self, "s")
      .add("audit.transfers_checked", static_cast<double>(run.audit_checked), "count")
      .add("audit.violations", static_cast<double>(run.audit_violations), "count")
      .add("wrong_result_ratio", failed / static_cast<double>(attempted), "ratio");
  return print_result(attempted, failed, m);
}

}  // namespace

std::string workload_names() {
  std::string names;
  for (const Workload& w : kWorkloads) {
    if (!names.empty()) names += ' ';
    names += w.name;
  }
  return names;
}

int run_benchmark(const RunSettings& settings) {
  if (!is_release_build()) {
    std::cerr << "pob_perfbench: refusing to measure a " << build_type()
              << " build; build Release\n";
    return 2;
  }
  const Workload* w = find_workload(settings.workload);
  if (w == nullptr) {
    std::cerr << "pob_perfbench: unknown workload '" << settings.workload
              << "' (one of: " << workload_names() << ")\n";
    return 2;
  }
  return settings.trace ? run_traced(*w, settings) : run_end_to_end(*w, settings);
}

}  // namespace perfbench
