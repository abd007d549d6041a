// Service throughput: what the SweepPlan/SweepSession split and the
// batched SweepService buy on a many-solve stream (the multi-source /
// multi-RHS workload: same mesh and materials, many driving terms).
//
// Three modes over an identical request stream on the structured 16³
// Kobayashi problem, fixed sweep count per request so every mode does the
// same transport work:
//
//   rebuild   — the pre-plan lifecycle: build the full task system anew
//               for every request (what SweepSolver-per-solve costs);
//   sessions  — build ONE immutable plan, run a fresh SweepSession per
//               request (plan reuse, serial requests);
//   service   — the same plan behind a SweepService fusing max_batch
//               requests into shared engine runs (plan reuse + batching).
//
// A fourth mode re-runs the service with a live metrics::Registry
// installed (ServiceConfig::metrics): the service/session/engine layers
// publish their counters while solving, and the on-vs-off throughput ratio
// is the regression gate for metrics cost (CI requires >= 0.98, measured
// as the median over alternating back-to-back off/on pairs so host drift
// cancels out of the ratio).
//
//   build/bench/bench_service_throughput [--json [<path>]]
//                                        [--metrics=<path>]
//
// --metrics writes the registry snapshot after the metrics-on runs:
// Prometheus text, or the jsweep-metrics-v1 JSON document when the path
// ends in .json (what CI validates and archives).
//
// Every sample records `task_data_after_build`: SweepTaskData instances
// created after the mode's first plan build. CI gates plan reuse on that
// deterministic count — zero for the sessions and service modes — and
// keeps the throughput ratio vs rebuild-per-solve as a >= 1.5x tripwire
// (the ratio shrinks whenever building a plan gets cheaper).

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "metrics/export.hpp"
#include "metrics/metrics.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/patch_set.hpp"
#include "sn/source_iteration.hpp"
#include "support/timer.hpp"
#include "sweep/service.hpp"

namespace {

using namespace jsweep;

constexpr int kRequests = 8;
constexpr int kIterationsPerRequest = 2;  // fixed work: tolerance 0 below
constexpr int kWorkers = 4;

struct Fixture {
  mesh::StructuredMesh m;
  partition::StructuredBlockLayout layout;
  partition::CsrGraph cg;
  partition::PatchSet patches;
  sn::CellXs xs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
  std::vector<sn::CellXs> request_xs;  // per-request external sources

  Fixture()
      : m(mesh::make_kobayashi_mesh(16)),
        layout(m.dims(), {4, 4, 4}),
        cg(partition::cell_graph(m)),
        patches(partition::block_partition(layout), layout.num_patches(),
                &cg),
        xs(expand(sn::MaterialTable::kobayashi(), m.materials(),
                  m.num_cells())),
        disc(m, xs),
        quad(sn::Quadrature::level_symmetric(4)) {
    for (int k = 0; k < kRequests; ++k) {
      request_xs.push_back(xs);
      for (auto& s : request_xs.back().source)
        s *= 1.0 + 0.125 * static_cast<double>(k);
    }
  }
};

// Tolerance 0 never converges, so every request runs exactly
// kIterationsPerRequest sweeps — all three modes do identical work.
const sn::SourceIterationOptions kOptions{0.0, kIterationsPerRequest, false};

/// One timed mode: wall time plus the SweepTaskData instances created
/// after its first plan build (0 = the plan was reused, never rebuilt).
struct ModeRun {
  double seconds = 0.0;
  std::int64_t task_data_after_build = 0;
};

/// Counts SweepTaskData creations from mark() on.
struct TaskDataCounter {
  std::int64_t start = 0;
  void mark() { start = sweep::SweepTaskData::total_created(); }
  [[nodiscard]] std::int64_t since() const {
    return sweep::SweepTaskData::total_created() - start;
  }
};

/// The pre-plan lifecycle: full task-system build per request.
ModeRun run_rebuild(const Fixture& fx) {
  WallTimer timer;
  TaskDataCounter built;
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(fx.patches.num_patches(), 1);
    for (int k = 0; k < kRequests; ++k) {
      const auto plan = sweep::SweepPlan::build(ctx, fx.m, fx.patches,
                                                owner, fx.disc, fx.quad);
      if (k == 0) built.mark();
      sweep::SolveConfig sc;
      sc.num_workers = kWorkers;
      sweep::SweepSession session(ctx, plan, sc);
      (void)sn::source_iteration(
          fx.request_xs[static_cast<std::size_t>(k)], session.as_operator(),
          kOptions);
    }
  });
  return {timer.seconds(), built.since()};
}

/// Plan reuse: one build, a lightweight session per request.
ModeRun run_sessions(const Fixture& fx) {
  WallTimer timer;
  TaskDataCounter built;
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(fx.patches.num_patches(), 1);
    const auto plan = sweep::SweepPlan::build(ctx, fx.m, fx.patches, owner,
                                              fx.disc, fx.quad);
    built.mark();
    for (int k = 0; k < kRequests; ++k) {
      sweep::SolveConfig sc;
      sc.num_workers = kWorkers;
      sweep::SweepSession session(ctx, plan, sc);
      (void)sn::source_iteration(
          fx.request_xs[static_cast<std::size_t>(k)], session.as_operator(),
          kOptions);
    }
  });
  return {timer.seconds(), built.since()};
}

/// Plan reuse + request batching over one shared engine. `registry`, when
/// non-null, turns on live metrics for the whole stack (the metrics-on
/// mode of the overhead gate).
ModeRun run_service(const Fixture& fx, sweep::ServiceStats* stats,
                    metrics::Registry* registry = nullptr) {
  WallTimer timer;
  TaskDataCounter built;
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    const auto owner =
        partition::assign_contiguous(fx.patches.num_patches(), 1);
    const auto plan = sweep::SweepPlan::build(ctx, fx.m, fx.patches, owner,
                                              fx.disc, fx.quad);
    built.mark();
    sweep::ServiceConfig sc;
    sc.num_workers = kWorkers;
    sc.max_batch = 4;
    sc.metrics = registry;
    sweep::SweepService service(ctx, sc);
    for (int k = 0; k < kRequests; ++k) {
      sweep::SolveRequest request;
      request.plan = plan;
      request.xs = &fx.request_xs[static_cast<std::size_t>(k)];
      request.options = kOptions;
      service.enqueue(request);
    }
    (void)service.drain();
    if (stats != nullptr) *stats = service.stats();
  });
  return {timer.seconds(), built.since()};
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReport report(argc, argv, "service_throughput");
  std::string metrics_path;
  for (int i = 1; i < argc; ++i)
    if (std::strncmp(argv[i], "--metrics=", 10) == 0)
      metrics_path = std::string(argv[i] + 10);
  const Fixture fx;
  const std::int64_t problem =
      fx.m.num_cells() * fx.quad.num_angles();

  bench::print_header(
      "Service throughput", "plan reuse + request batching vs rebuild",
      "Kobayashi 16^3, S4, 64 patches, 8 requests x 2 sweeps each, "
      "1 rank x 4 workers");

  // Warm once (thread pools, allocator arenas) so mode order doesn't bias.
  (void)run_sessions(fx);

  const ModeRun rebuild = run_rebuild(fx);
  const ModeRun sessions = run_sessions(fx);
  const double t_rebuild = rebuild.seconds;
  const double t_sessions = sessions.seconds;

  // Service mode twice — metrics off and on — as interleaved back-to-back
  // pairs whose within-pair order alternates. The <= 2% overhead gate uses
  // the median of the per-pair off/on ratios: slow scheduler drift hits
  // both halves of a pair alike, alternating the order cancels any
  // position-in-pair bias, and the median discards the odd rep that lost
  // its timeslice — none of which best-of-N over two independent series
  // gives you.
  metrics::Registry registry;
  sweep::ServiceStats service_stats;
  double t_service = 0.0;
  double t_service_metrics = 0.0;
  std::int64_t service_rebuilt = 0;  // max over every service run
  std::vector<double> pair_ratios;
  for (int rep = 0; rep < 9; ++rep) {
    ModeRun off;
    ModeRun on;
    if (rep % 2 == 0) {
      off = run_service(fx, rep == 0 ? &service_stats : nullptr);
      on = run_service(fx, nullptr, &registry);
    } else {
      on = run_service(fx, nullptr, &registry);
      off = run_service(fx, nullptr);
    }
    t_service = rep == 0 ? off.seconds : std::min(t_service, off.seconds);
    t_service_metrics =
        rep == 0 ? on.seconds : std::min(t_service_metrics, on.seconds);
    service_rebuilt = std::max({service_rebuilt, off.task_data_after_build,
                                on.task_data_after_build});
    pair_ratios.push_back(off.seconds / on.seconds);
  }
  std::sort(pair_ratios.begin(), pair_ratios.end());
  const double metrics_ratio = pair_ratios[pair_ratios.size() / 2];

  const auto rate = [](double seconds) {
    return static_cast<double>(kRequests) / seconds;
  };
  Table table({"mode", "time(s)", "solves/s", "speedup"});
  table.add_row({"rebuild-per-solve", Table::num(t_rebuild, 3),
                 Table::num(rate(t_rebuild), 2), "1.00"});
  table.add_row({"plan-reuse sessions", Table::num(t_sessions, 3),
                 Table::num(rate(t_sessions), 2),
                 Table::num(t_rebuild / t_sessions, 2)});
  table.add_row({"plan-reuse service", Table::num(t_service, 3),
                 Table::num(rate(t_service), 2),
                 Table::num(t_rebuild / t_service, 2)});
  table.add_row({"service + live metrics", Table::num(t_service_metrics, 3),
                 Table::num(rate(t_service_metrics), 2),
                 Table::num(t_rebuild / t_service_metrics, 2)});
  std::printf("%s", table.str().c_str());
  std::printf("metrics-on/off throughput ratio: %.3f (gate: >= 0.98)\n",
              metrics_ratio);
  std::printf(
      "task data created after the first plan build: rebuild %lld, "
      "sessions %lld, service %lld (gate: 0 on the reuse paths)\n",
      static_cast<long long>(rebuild.task_data_after_build),
      static_cast<long long>(sessions.task_data_after_build),
      static_cast<long long>(service_rebuilt));
  std::printf(
      "service: %lld requests in %lld batch(es), %lld engine runs for %lld "
      "sweeps\n",
      static_cast<long long>(service_stats.requests),
      static_cast<long long>(service_stats.batches),
      static_cast<long long>(service_stats.engine_runs),
      static_cast<long long>(service_stats.sweeps));

  const auto record = [&](const char* name, double seconds, double speedup,
                          std::int64_t task_data_after_build) {
    bench::Sample s;
    s.name = std::string("service_throughput/") + name;
    s.wall_seconds = seconds;
    s.threads = kWorkers;
    s.problem_size = problem;
    s.params.emplace_back("requests", kRequests);
    s.params.emplace_back("iterations_per_request", kIterationsPerRequest);
    s.params.emplace_back("solves_per_sec", rate(seconds));
    s.params.emplace_back("speedup_vs_rebuild", speedup);
    s.params.emplace_back("task_data_after_build",
                          static_cast<double>(task_data_after_build));
    report.record(std::move(s));
  };
  record("rebuild_per_solve", t_rebuild, 1.0, rebuild.task_data_after_build);
  record("plan_reuse_sessions", t_sessions, t_rebuild / t_sessions,
         sessions.task_data_after_build);
  record("plan_reuse_service", t_service, t_rebuild / t_service,
         service_rebuilt);

  // The metrics-on sample carries the gate ratio plus the full registry
  // snapshot (bench::append_metrics), so BENCH_service_throughput.json
  // alone is enough to audit what the run did.
  {
    bench::Sample s;
    s.name = "service_throughput/plan_reuse_service_metrics";
    s.wall_seconds = t_service_metrics;
    s.threads = kWorkers;
    s.problem_size = problem;
    s.params.emplace_back("requests", kRequests);
    s.params.emplace_back("iterations_per_request", kIterationsPerRequest);
    s.params.emplace_back("solves_per_sec", rate(t_service_metrics));
    s.params.emplace_back("speedup_vs_rebuild", t_rebuild / t_service_metrics);
    s.params.emplace_back("throughput_vs_metrics_off", metrics_ratio);
    s.params.emplace_back("task_data_after_build",
                          static_cast<double>(service_rebuilt));
    bench::append_metrics(s, registry);
    report.record(std::move(s));
  }

  if (!metrics_path.empty()) {
    metrics::write_snapshot(registry, metrics_path);
    std::printf("wrote %s\n", metrics_path.c_str());
  }
  return 0;
}
