// End-to-end benchmark: four fixed-work reference solves, each rep timed
// as set-up (mesh + partition + cross sections + SweepPlan::build) and
// solve. run.py drives this binary and runs each mode in its own process:
//
//   bench_e2e --workload W --seed N --out DIR --mode reference
//       Untimed serial solves of the same inputs -> DIR/reference.bin.
//   bench_e2e --workload W --seed N --out DIR --mode timed
//             [--reps R] [--seconds S]
//       One warm-up rep, then at least R timed reps and at least S seconds
//       of them, metrics and tracing off -> DIR/timed.json.
//   bench_e2e --workload W --seed N --out DIR --mode traced
//       Timed serial sweeps (the sn kernel alone), a sizing rep, an
//       untraced rep, then one rep with the metrics registry and a trace
//       recorder on -> DIR/traced.json, the per-layer numbers.
//
// The seed is the only input to the generator: it draws a ±5 % per-cell
// perturbation of the external source (of νΣ_f for the k-eigenvalue
// workload, whose external source the power iteration overwrites) and the
// per-request source scales of service_burst. Every rep is checked against
// the reference, bitwise against the process's first rep, and for its
// fixed sweep count. Per-layer numbers are taken from outside the library:
// wall time around calls to its public functions, plus the counters its
// public stats, metrics and trace APIs already expose.

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "comm/cluster.hpp"
#include "mesh/generators.hpp"
#include "metrics/metrics.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/discretization.hpp"
#include "sn/fission.hpp"
#include "sn/multigroup.hpp"
#include "sn/quadrature.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "sn/xs.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"
#include "support/timer.hpp"
#include "sweep/eigen.hpp"
#include "sweep/plan.hpp"
#include "sweep/service.hpp"
#include "sweep/session.hpp"
#include "trace/critical_path.hpp"
#include "trace/trace.hpp"

namespace {

using namespace jsweep;

/// A tolerance no iterate can meet, so every solve does its full fixed
/// work (every convergence test in the library is `error < tol` or
/// `error <= tol`).
constexpr double kNever = -1.0;
/// Largest accepted relative L∞ distance of φ (and of k) from the serial
/// reference.
constexpr double kMaxRelError = 1e-12;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

/// The solution one solve produced.
struct Outcome {
  std::vector<std::vector<double>> phi;  ///< per group, or per request
  double k = 0.0;                        ///< k-eigenvalue workload only
  std::int64_t sweeps = 0;  ///< transport sweeps (group and lane sweeps)
};

/// Traced-rep instruments; null in the reference, sizing and timed reps.
struct Instruments {
  trace::Recorder* recorder = nullptr;
  metrics::Registry* registry = nullptr;
};

/// What one rank measured inside the cluster. Phases end at a barrier, so
/// every rank reports the same boundaries; run_rep() keeps rank 0's.
struct RankResult {
  Outcome out;
  double plan_s = 0.0;
  double solve_s = 0.0;
  std::int64_t programs = 0;        ///< plan programs over all ranks
  double session_create_s = 0.0;    ///< probe: median SweepSession ctor
  double allreduce_s = 0.0;         ///< probe: median φ-sized allreduce
  double sweep_overhead_s = kNaN;   ///< Σ (sweep wall − engine elapsed)
  std::int64_t service_engine_runs = 0;
};

/// One rep: host-side set-up phases plus rank 0's result.
struct Rep {
  double mesh_s = 0.0;
  double partition_s = 0.0;
  double xs_s = 0.0;
  RankResult rank;

  [[nodiscard]] double setup_s() const {
    return mesh_s + partition_s + xs_s + rank.plan_s;
  }
};

/// Adds the wall time of `f()` to `acc` and returns f's result (which is
/// constructed in place: no copy or move).
template <class F>
auto timed(double& acc, F&& f) {
  struct Charge {
    double& acc;
    WallTimer timer;
    ~Charge() { acc += timer.seconds(); }
  } charge{acc, {}};
  return f();
}

/// Wall time of `f()` between two barriers.
template <class F>
double phase(comm::Context& ctx, F&& f) {
  ctx.barrier();
  const WallTimer timer;
  f();
  ctx.barrier();
  return timer.seconds();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// `v` with all its digits; non-finite values (not measured) as JSON null.
std::string num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

/// ±5 % per-cell perturbation drawn from `rng`.
double jitter(Rng& rng) { return 1.0 + rng.uniform(-0.05, 0.05); }

sweep::SolveConfig solve_config(int workers, const Instruments& inst) {
  sweep::SolveConfig sc;
  sc.num_workers = workers;
  sc.trace.recorder = inst.recorder;
  sc.metrics.registry = inst.registry;
  return sc;
}

/// Traced-rep probes around public calls on the workload's own plan: the
/// median cost of constructing a SweepSession, and of allreduce_sum on a
/// vector of `phi_len` doubles (one pass's scalar flux).
void run_probes(comm::Context& ctx,
                const std::shared_ptr<const sweep::SweepPlan>& plan,
                int workers, std::size_t phi_len, RankResult& r) {
  constexpr int kSessions = 5;
  constexpr int kAllreduces = 20;
  std::vector<double> t;
  for (int i = 0; i < kSessions; ++i)
    t.push_back(phase(ctx, [&] {
      const sweep::SweepSession session(ctx, plan, solve_config(workers, {}));
    }));
  r.session_create_s = median(t);
  t.clear();
  std::vector<double> v(phi_len, 1.0);
  for (int i = 0; i < kAllreduces; ++i)
    t.push_back(phase(ctx, [&] { ctx.allreduce_sum(v); }));
  r.allreduce_s = median(t);
  r.programs =
      ctx.allreduce_sum(static_cast<std::int64_t>(plan->programs().size()));
}

/// One benchmark workload. Constructing it is the host-side set-up (mesh,
/// partition, cross sections), charged to the Rep; solve() builds the plan
/// and runs the fixed-work solve on one rank of the in-process cluster.
class Workload {
 public:
  virtual ~Workload() = default;

  /// Ranks of the parallel solve; ranks × (workers + 1) ≤ 4 threads.
  [[nodiscard]] virtual int ranks() const = 0;
  /// Transport sweeps of the fixed work (group and lane sweeps counted).
  [[nodiscard]] virtual std::int64_t sweeps() const = 0;
  /// Cells × angles of one sweep; × sweeps() is the work grind_ns divides.
  [[nodiscard]] virtual std::int64_t cell_angles() const = 0;

  /// The serial reference solve of the same inputs.
  virtual Outcome reference() = 0;
  /// Wall time of one serial_sweep over all angles (the sn kernel alone).
  virtual double serial_sweep_seconds() = 0;
  /// Plan build + solve on this rank. Collective.
  virtual RankResult solve(comm::Context& ctx, const Instruments& inst,
                           bool probes) = 0;
};

/// Kobayashi 32³, 8³-cell patches, S8, one group, 8 source iterations on
/// 2 ranks × 1 worker: the paper's structured problem.
class KobayashiS8 final : public Workload {
 public:
  static constexpr int kRanks = 2;
  static constexpr int kWorkers = 1;
  static constexpr int kSweeps = 8;

  KobayashiS8(std::uint64_t seed, Rep& rep)
      : m_(timed(rep.mesh_s, [] { return mesh::make_kobayashi_mesh(32); })),
        cg_(timed(rep.partition_s, [&] { return partition::cell_graph(m_); })),
        patches_(timed(rep.partition_s,
                       [&] {
                         const partition::StructuredBlockLayout layout(
                             m_.dims(), {8, 8, 8});
                         return partition::PatchSet(
                             partition::block_partition(layout),
                             layout.num_patches(), &cg_);
                       })),
        xs_(timed(rep.xs_s,
                  [&] {
                    sn::CellXs xs = expand(sn::MaterialTable::kobayashi(),
                                           m_.materials(), m_.num_cells());
                    Rng rng(seed);
                    for (double& s : xs.source) s *= jitter(rng);
                    return xs;
                  })),
        disc_(timed(rep.xs_s, [&] { return sn::StructuredDD(m_, xs_); })),
        quad_(sn::Quadrature::level_symmetric(8)) {}

  int ranks() const override { return kRanks; }
  std::int64_t sweeps() const override { return kSweeps; }
  std::int64_t cell_angles() const override {
    return m_.num_cells() * quad_.num_angles();
  }

  Outcome reference() override {
    const auto res = sn::source_iteration(
        xs_,
        [&](const std::vector<double>& q) {
          return sn::serial_sweep(disc_, quad_, q);
        },
        {kNever, kSweeps, false});
    return {{res.phi}, 0.0, res.iterations};
  }

  double serial_sweep_seconds() override {
    const auto q = sn::emission_density(
        xs_, std::vector<double>(static_cast<std::size_t>(m_.num_cells())));
    const WallTimer timer;
    (void)sn::serial_sweep(disc_, quad_, q);
    return timer.seconds();
  }

  RankResult solve(comm::Context& ctx, const Instruments& inst,
                   bool probes) override {
    RankResult r;
    std::shared_ptr<const sweep::SweepPlan> plan;
    r.plan_s = phase(ctx, [&] {
      plan = sweep::SweepPlan::build(
          ctx, m_, patches_,
          partition::assign_contiguous(patches_.num_patches(), ctx.size()),
          disc_, quad_);
    });
    sn::SourceIterationResult res;
    r.sweep_overhead_s = 0.0;
    r.solve_s = phase(ctx, [&] {
      sweep::SweepSession session(ctx, plan, solve_config(kWorkers, inst));
      res = sn::source_iteration(
          xs_,
          [&](const std::vector<double>& q) {
            const WallTimer timer;
            std::vector<double> phi = session.sweep(q);
            r.sweep_overhead_s +=
                timer.seconds() - session.stats().engine.elapsed_seconds;
            return phi;
          },
          {kNever, kSweeps, false});
      r.out.sweeps = session.stats().sweeps;
    });
    r.out.phi = {std::move(res.phi)};
    if (probes)
      run_probes(ctx, plan, kWorkers,
                 static_cast<std::size_t>(m_.num_cells()), r);
    return r;
  }

 private:
  mesh::StructuredMesh m_;
  partition::CsrGraph cg_;
  partition::PatchSet patches_;
  sn::CellXs xs_;
  sn::StructuredDD disc_;
  sn::Quadrature quad_;
};

/// Tet ball (13,056 tets, 26 graph-partitioned patches), S4, 4-group
/// downscatter cascade, pipelined, 1 outer × 10 passes on 1 rank × 3
/// workers: engine scheduling, stealing and pipeline gates.
class BallMg4 final : public Workload {
 public:
  static constexpr int kWorkers = 3;
  static constexpr int kGroups = 4;
  static constexpr int kPasses = 10;

  BallMg4(std::uint64_t seed, Rep& rep)
      : m_(timed(rep.mesh_s, [] { return mesh::make_ball_mesh(16, 50.0); })),
        cg_(timed(rep.partition_s, [&] { return partition::cell_graph(m_); })),
        patches_(timed(rep.partition_s,
                       [&] {
                         const int parts =
                             static_cast<int>(m_.num_cells() / 500);
                         return partition::PatchSet(
                             partition::partition_graph(cg_, parts), parts,
                             &cg_);
                       })),
        xs_(timed(rep.xs_s,
                  [&] {
                    auto xs = sn::MultigroupXs::cascade(
                        sn::MaterialTable::ball(), m_.materials(),
                        m_.num_cells(), kGroups);
                    Rng rng(seed);
                    for (std::int64_t c = 0; c < m_.num_cells(); ++c)
                      for (int g = 0; g < kGroups; ++g)
                        xs.source(g, c) *= jitter(rng);
                    return xs;
                  })),
        disc_(timed(rep.xs_s,
                    [&] { return sn::TetStep(m_, xs_.group_view(0)); })),
        quad_(sn::Quadrature::level_symmetric(4)) {}

  int ranks() const override { return 1; }
  std::int64_t sweeps() const override { return kGroups * kPasses; }
  std::int64_t cell_angles() const override {
    return m_.num_cells() * quad_.num_angles();
  }

  Outcome reference() override {
    const auto res = sn::solve_multigroup_sweeps(
        xs_,
        sn::sequential_sweep_pass(
            xs_,
            [&](int g) -> sn::SweepOperator {
              auto gd = std::make_shared<sn::TetStep>(m_, xs_.group_view(g));
              return [gd, this](const std::vector<double>& q) {
                return sn::serial_sweep(*gd, quad_, q);
              };
            },
            1),
        options());
    return {res.phi, 0.0, res.total_sweeps};
  }

  double serial_sweep_seconds() override {
    const auto q = sn::emission_density(
        xs_.group_view(0),
        std::vector<double>(static_cast<std::size_t>(m_.num_cells())));
    const WallTimer timer;
    (void)sn::serial_sweep(disc_, quad_, q);
    return timer.seconds();
  }

  RankResult solve(comm::Context& ctx, const Instruments& inst,
                   bool probes) override {
    RankResult r;
    std::shared_ptr<const sweep::SweepPlan> plan;
    r.plan_s = phase(ctx, [&] {
      sweep::PlanConfig pc;
      pc.multigroup = &xs_;
      plan = sweep::SweepPlan::build(
          ctx, m_, patches_,
          partition::assign_contiguous(patches_.num_patches(), ctx.size()),
          disc_, quad_, pc);
    });
    r.solve_s = phase(ctx, [&] {
      sweep::SweepSession session(ctx, plan, solve_config(kWorkers, inst));
      r.out.phi = session.solve_multigroup(options()).phi;
      r.out.sweeps = session.stats().sweeps;
    });
    if (probes)
      run_probes(ctx, plan, kWorkers,
                 static_cast<std::size_t>(m_.num_cells() * kGroups), r);
    return r;
  }

 private:
  static sn::MultigroupOptions options() {
    sn::MultigroupOptions mg;
    mg.inner = {kNever, kPasses, false};
    mg.max_outer_iterations = 1;
    return mg;
  }

  mesh::TetMesh m_;
  partition::CsrGraph cg_;
  partition::PatchSet patches_;
  sn::MultigroupXs xs_;
  sn::TetStep disc_;
  sn::Quadrature quad_;
};

/// Two-group reactor k-eigenvalue (2,496 tets, 4 patches), S4, 20 outers
/// × 10 passes on 2 ranks × 1 worker: hundreds of short engine runs, a
/// fresh session per outer and one φ allreduce per pass.
class ReactorKeff final : public Workload {
 public:
  static constexpr int kRanks = 2;
  static constexpr int kWorkers = 1;
  static constexpr int kGroups = 2;
  static constexpr int kOuters = 20;
  static constexpr int kPasses = 10;

  ReactorKeff(std::uint64_t seed, Rep& rep)
      : m_(timed(rep.mesh_s,
                 [] { return mesh::make_reactor_mesh(8, 50.0, 100.0); })),
        cg_(timed(rep.partition_s, [&] { return partition::cell_graph(m_); })),
        patches_(timed(rep.partition_s,
                       [&] {
                         const int parts = std::max(
                             2, static_cast<int>(m_.num_cells() / 500));
                         return partition::PatchSet(
                             partition::partition_graph(cg_, parts), parts,
                             &cg_);
                       })),
        xs_(kGroups, m_.num_cells()),
        fission_(kGroups, m_.num_cells()),
        quad_(sn::Quadrature::level_symmetric(4)) {
    // The two-group physics of examples/reactor.cpp: a fast group that
    // downscatters into a thermal group, fission in the core, a scattering
    // reflector, fission neutrons born fast.
    const WallTimer timer;
    Rng rng(seed);
    fission_.chi(0) = 1.0;
    for (std::int64_t c = 0; c < m_.num_cells(); ++c) {
      const bool core = m_.material(CellId{c}) == mesh::kMatCore;
      xs_.sigma_t(0, c) = core ? 0.6 : 0.5;
      xs_.sigma_t(1, c) = core ? 1.0 : 1.2;
      xs_.sigma_s(0, 0, c) = core ? 0.2 : 0.22;
      xs_.sigma_s(0, 1, c) = 0.25;
      xs_.sigma_s(1, 1, c) = core ? 0.6 : 0.9;
      if (core) {
        fission_.nu_sigma_f(0, c) = 0.08 * jitter(rng);
        fission_.nu_sigma_f(1, c) = 0.5 * jitter(rng);
      }
    }
    rep.xs_s += timer.seconds();
  }

  int ranks() const override { return kRanks; }
  std::int64_t sweeps() const override {
    return kOuters * kPasses * kGroups;
  }
  std::int64_t cell_angles() const override {
    return m_.num_cells() * quad_.num_angles();
  }

  Outcome reference() override {
    sn::MultigroupXs xs = xs_;  // the power iteration rewrites the sources
    const auto res = sweep::solve_k_eigenvalue_serial(
        xs, fission_, sn::TetStep(m_, xs.group_view(0)),
        [&] {
          return sn::sequential_sweep_pass(
              xs,
              [&](int g) -> sn::SweepOperator {
                auto gd = std::make_shared<sn::TetStep>(m_, xs.group_view(g));
                return [gd, this](const std::vector<double>& q) {
                  return sn::serial_sweep(*gd, quad_, q);
                };
              },
              1);
        },
        options());
    return {res.phi, res.k, res.stats.transport_sweeps};
  }

  double serial_sweep_seconds() override {
    const sn::TetStep disc(m_, xs_.group_view(0));
    const std::vector<double> q(static_cast<std::size_t>(m_.num_cells()),
                                1.0);
    const WallTimer timer;
    (void)sn::serial_sweep(disc, quad_, q);
    return timer.seconds();
  }

  RankResult solve(comm::Context& ctx, const Instruments& inst,
                   bool probes) override {
    RankResult r;
    // Each rank thread rewrites its own copy of the sources between
    // outers; the plan is built against that copy.
    std::optional<sn::MultigroupXs> xs;
    std::optional<sn::TetStep> disc;
    std::shared_ptr<const sweep::SweepPlan> plan;
    r.plan_s = phase(ctx, [&] {
      xs.emplace(xs_);
      disc.emplace(m_, xs->group_view(0));
      sweep::PlanConfig pc;
      pc.multigroup = &*xs;
      plan = sweep::SweepPlan::build(
          ctx, m_, patches_,
          partition::assign_contiguous(patches_.num_patches(), ctx.size()),
          *disc, quad_, pc);
    });
    sweep::EigenResult res;
    r.solve_s = phase(ctx, [&] {
      res = sweep::solve_k_eigenvalue(ctx, plan, *xs, fission_, options(),
                                      solve_config(kWorkers, inst));
    });
    r.out = {std::move(res.phi), res.k, res.stats.transport_sweeps};
    if (probes)
      run_probes(ctx, plan, kWorkers,
                 static_cast<std::size_t>(m_.num_cells() * kGroups), r);
    return r;
  }

 private:
  static sweep::EigenOptions options() {
    sweep::EigenOptions eo;
    eo.max_outer_iterations = kOuters;
    eo.k_tolerance = kNever;
    eo.fission_tolerance = kNever;
    eo.multigroup.inner = {kNever, kPasses, false};
    return eo;
  }

  mesh::TetMesh m_;
  partition::CsrGraph cg_;
  partition::PatchSet patches_;
  sn::MultigroupXs xs_;
  sn::FissionXs fission_;
  sn::Quadrature quad_;
};

/// Kobayashi 16³, 4³-cell patches, S4: a burst of 32 requests × 4 sweeps
/// through one SweepService (max_batch 4) on 1 rank × 3 workers — the
/// engine driven as batched request lanes.
class ServiceBurst final : public Workload {
 public:
  static constexpr int kWorkers = 3;
  static constexpr int kRequests = 32;
  static constexpr int kSweepsPerRequest = 4;
  static constexpr int kMaxBatch = 4;

  ServiceBurst(std::uint64_t seed, Rep& rep)
      : m_(timed(rep.mesh_s, [] { return mesh::make_kobayashi_mesh(16); })),
        cg_(timed(rep.partition_s, [&] { return partition::cell_graph(m_); })),
        patches_(timed(rep.partition_s,
                       [&] {
                         const partition::StructuredBlockLayout layout(
                             m_.dims(), {4, 4, 4});
                         return partition::PatchSet(
                             partition::block_partition(layout),
                             layout.num_patches(), &cg_);
                       })),
        requests_(timed(rep.xs_s,
                        [&] {
                          sn::CellXs base =
                              expand(sn::MaterialTable::kobayashi(),
                                     m_.materials(), m_.num_cells());
                          Rng rng(seed);
                          for (double& s : base.source) s *= jitter(rng);
                          std::vector<sn::CellXs> requests(kRequests, base);
                          for (auto& request : requests) {
                            const double scale = rng.uniform(0.5, 1.5);
                            for (double& s : request.source) s *= scale;
                          }
                          return requests;
                        })),
        disc_(timed(rep.xs_s,
                    [&] { return sn::StructuredDD(m_, requests_.front()); })),
        quad_(sn::Quadrature::level_symmetric(4)) {}

  int ranks() const override { return 1; }
  std::int64_t sweeps() const override {
    return kRequests * kSweepsPerRequest;
  }
  std::int64_t cell_angles() const override {
    return m_.num_cells() * quad_.num_angles();
  }

  Outcome reference() override {
    Outcome out;
    for (const auto& xs : requests_) {
      auto res = sn::source_iteration(
          xs,
          [&](const std::vector<double>& q) {
            return sn::serial_sweep(disc_, quad_, q);
          },
          {kNever, kSweepsPerRequest, false});
      out.phi.push_back(std::move(res.phi));
      out.sweeps += res.iterations;
    }
    return out;
  }

  double serial_sweep_seconds() override {
    const auto q = sn::emission_density(
        requests_.front(),
        std::vector<double>(static_cast<std::size_t>(m_.num_cells())));
    const WallTimer timer;
    (void)sn::serial_sweep(disc_, quad_, q);
    return timer.seconds();
  }

  RankResult solve(comm::Context& ctx, const Instruments& inst,
                   bool probes) override {
    RankResult r;
    std::shared_ptr<const sweep::SweepPlan> plan;
    r.plan_s = phase(ctx, [&] {
      plan = sweep::SweepPlan::build(
          ctx, m_, patches_,
          partition::assign_contiguous(patches_.num_patches(), ctx.size()),
          disc_, quad_);
    });
    r.solve_s = phase(ctx, [&] {
      sweep::ServiceConfig cfg;
      cfg.num_workers = kWorkers;
      cfg.max_batch = kMaxBatch;
      cfg.metrics = inst.registry;  // the service API takes no recorder
      sweep::SweepService service(ctx, cfg);
      for (const auto& xs : requests_)
        service.enqueue({plan, &xs, {kNever, kSweepsPerRequest, false}});
      for (auto& response : service.drain())
        r.out.phi.push_back(std::move(response.result.phi));
      r.out.sweeps = service.stats().sweeps;
      r.service_engine_runs = service.stats().engine_runs;
    });
    if (probes)
      run_probes(ctx, plan, kWorkers,
                 static_cast<std::size_t>(m_.num_cells()), r);
    return r;
  }

 private:
  mesh::StructuredMesh m_;
  partition::CsrGraph cg_;
  partition::PatchSet patches_;
  std::vector<sn::CellXs> requests_;
  sn::StructuredDD disc_;
  sn::Quadrature quad_;
};

const char* const kWorkloads[] = {"kobayashi_s8", "ball_mg4", "reactor_keff",
                                  "service_burst"};

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Rep& rep) {
  if (name == "kobayashi_s8") return std::make_unique<KobayashiS8>(seed, rep);
  if (name == "ball_mg4") return std::make_unique<BallMg4>(seed, rep);
  if (name == "reactor_keff") return std::make_unique<ReactorKeff>(seed, rep);
  if (name == "service_burst")
    return std::make_unique<ServiceBurst>(seed, rep);
  return nullptr;
}

/// One full rep: fresh set-up from the seed, then plan build and solve.
Rep run_rep(const std::string& name, std::uint64_t seed,
            const Instruments& inst = {}, bool probes = false) {
  Rep rep;
  const auto w = make_workload(name, seed, rep);
  comm::Cluster::run(w->ranks(), [&](comm::Context& ctx) {
    RankResult r = w->solve(ctx, inst, probes);
    if (ctx.rank().value() == 0) rep.rank = std::move(r);
  });
  return rep;
}

// --- files ------------------------------------------------------------------

struct FileCloser {
  void operator()(std::FILE* f) const { std::fclose(f); }
};
using File = std::unique_ptr<std::FILE, FileCloser>;

File open_file(const std::string& path, const char* mode) {
  File f(std::fopen(path.c_str(), mode));
  JSWEEP_CHECK_MSG(f != nullptr, "cannot open " << path);
  return f;
}

/// Flush and close, reporting a failed final write.
void close_file(File f, const std::string& path) {
  JSWEEP_CHECK_MSG(std::fclose(f.release()) == 0, "cannot write " << path);
}

void write_outcome(const std::string& path, const Outcome& o) {
  File f = open_file(path, "wb");
  const auto put = [&](const void* p, std::size_t bytes) {
    JSWEEP_CHECK_MSG(std::fwrite(p, 1, bytes, f.get()) == bytes,
                     "short write to " << path);
  };
  const auto blocks = static_cast<std::int64_t>(o.phi.size());
  put(&blocks, sizeof blocks);
  for (const auto& b : o.phi) {
    const auto n = static_cast<std::int64_t>(b.size());
    put(&n, sizeof n);
    put(b.data(), b.size() * sizeof(double));
  }
  put(&o.k, sizeof o.k);
  put(&o.sweeps, sizeof o.sweeps);
  close_file(std::move(f), path);
}

Outcome read_outcome(const std::string& path) {
  const File f = open_file(path, "rb");
  const auto get = [&](void* p, std::size_t bytes) {
    JSWEEP_CHECK_MSG(std::fread(p, 1, bytes, f.get()) == bytes,
                     "truncated reference " << path);
  };
  constexpr std::int64_t kMaxLen = std::int64_t{1} << 28;
  Outcome o;
  std::int64_t blocks = 0;
  get(&blocks, sizeof blocks);
  JSWEEP_CHECK_MSG(blocks >= 0 && blocks <= 1024, "bad reference " << path);
  o.phi.resize(static_cast<std::size_t>(blocks));
  for (auto& b : o.phi) {
    std::int64_t n = 0;
    get(&n, sizeof n);
    JSWEEP_CHECK_MSG(n >= 0 && n <= kMaxLen, "bad reference " << path);
    b.resize(static_cast<std::size_t>(n));
    get(b.data(), b.size() * sizeof(double));
  }
  get(&o.k, sizeof o.k);
  get(&o.sweeps, sizeof o.sweeps);
  return o;
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Empty when `got` passes every check; otherwise the first failure.
std::string check(const Outcome& got, const Outcome& ref,
                  const Outcome* first, std::int64_t fixed_sweeps) {
  if (got.sweeps != fixed_sweeps)
    return "ran " + std::to_string(got.sweeps) + " sweeps, fixed work is " +
           std::to_string(fixed_sweeps);
  if (got.phi.size() != ref.phi.size()) return "phi block count differs";
  for (std::size_t b = 0; b < ref.phi.size(); ++b) {
    if (got.phi[b].size() != ref.phi[b].size())
      return "phi block " + std::to_string(b) + " length differs";
    const double err = sn::relative_linf(ref.phi[b], got.phi[b]);
    if (!(err <= kMaxRelError))
      return "phi block " + std::to_string(b) + " relative error " + num(err);
  }
  if (ref.k != 0.0 && !(std::abs(got.k - ref.k) <= kMaxRelError *
                                                      std::abs(ref.k)))
    return "k differs from the reference";
  if (first != nullptr) {
    for (std::size_t b = 0; b < got.phi.size(); ++b)
      if (!bitwise_equal(got.phi[b], first->phi[b]))
        return "phi not bitwise equal to the first rep";
    if (std::memcmp(&got.k, &first->k, sizeof got.k) != 0)
      return "k not bitwise equal to the first rep";
  }
  return {};
}

/// Checks every rep of one process against the reference and against the
/// process's first rep, counting attempts and failures.
class RepChecker {
 public:
  RepChecker(const std::string& out, std::int64_t fixed_sweeps)
      : ref_(read_outcome(out + "/reference.bin")),
        fixed_sweeps_(fixed_sweeps) {}

  void operator()(const Rep& rep) {
    ++attempted_;
    const std::string why =
        check(rep.rank.out, ref_, first_ ? &*first_ : nullptr, fixed_sweeps_);
    if (!why.empty()) {
      ++failed_;
      std::fprintf(stderr, "rep %d FAILED: %s\n", attempted_, why.c_str());
    }
    if (!first_) first_ = rep.rank.out;
  }

  /// The attempted and failed counts as JSON members.
  [[nodiscard]] std::string json() const {
    return "\"attempted\": " + std::to_string(attempted_) +
           ",\n  \"failed\": " + std::to_string(failed_);
  }

 private:
  Outcome ref_;
  std::int64_t fixed_sweeps_;
  std::optional<Outcome> first_;
  int attempted_ = 0;
  int failed_ = 0;
};

// --- JSON output -----------------------------------------------------------

/// A named number with its unit; NaN means not measured.
struct Metric {
  std::string name;
  std::string unit;
  double value;
};

std::string metrics_json(const std::vector<Metric>& ms) {
  std::string out = "{";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    out += i == 0 ? "\n    " : ",\n    ";
    out += "\"" + ms[i].name + "\": {\"value\": " + num(ms[i].value) +
           ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  return out + "\n  }";
}

void write_file(const std::string& path, const std::string& text) {
  File f = open_file(path, "w");
  JSWEEP_CHECK_MSG(std::fputs(text.c_str(), f.get()) >= 0,
                   "cannot write " << path);
  close_file(std::move(f), path);
}

// --- modes -----------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  std::string out;
  std::string mode;
  int reps = 5;
  double seconds = 0.0;
};

int mode_reference(const Args& a) {
  Rep setup;
  const auto w = make_workload(a.workload, a.seed, setup);
  const Outcome ref = w->reference();
  JSWEEP_CHECK_MSG(ref.sweeps == w->sweeps(),
                   "serial reference ran " << ref.sweeps << " sweeps");
  write_outcome(a.out + "/reference.bin", ref);
  return 0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

int mode_timed(const Args& a) {
  Rep probe;
  const auto w = make_workload(a.workload, a.seed, probe);
  const std::int64_t units = w->cell_angles() * w->sweeps();
  RepChecker checked(a.out, w->sweeps());

  checked(run_rep(a.workload, a.seed));  // warm-up, untimed
  std::string reps;
  const WallTimer measuring;
  for (int i = 0; i < a.reps || measuring.seconds() < a.seconds; ++i) {
    const Rep rep = run_rep(a.workload, a.seed);
    checked(rep);
    reps += std::string(i == 0 ? "\n    " : ",\n    ") +
            "{\"setup_s\": " + num(rep.setup_s()) +
            ", \"solve_s\": " + num(rep.rank.solve_s) +
            ", \"mesh_s\": " + num(rep.mesh_s) +
            ", \"partition_s\": " + num(rep.partition_s) +
            ", \"xs_s\": " + num(rep.xs_s) +
            ", \"plan_s\": " + num(rep.rank.plan_s) + "}";
  }
  write_file(a.out + "/timed.json",
             "{\n  \"work_units\": " + std::to_string(units) + ",\n  " +
                 checked.json() +
                 ",\n  \"peak_rss_mb\": " + num(peak_rss_mb()) +
                 ",\n  \"reps\": [" + reps + "\n  ]\n}\n");
  return 0;
}

/// Totals over every series of metric `name` whose labels include all of
/// `match`: counter or gauge values, or histogram sums and counts.
struct SeriesTotal {
  double value = 0.0;
  std::int64_t count = 0;
};

SeriesTotal total(const std::vector<metrics::FamilySnapshot>& snap,
                  const std::string& name, const metrics::Labels& match = {}) {
  SeriesTotal t;
  for (const auto& fam : snap) {
    if (fam.name != name) continue;
    for (const auto& s : fam.series) {
      const bool selected = std::all_of(
          match.begin(), match.end(), [&](const auto& kv) {
            return std::find(s.labels.begin(), s.labels.end(), kv) !=
                   s.labels.end();
          });
      if (!selected) continue;
      switch (fam.kind) {
        case metrics::Kind::kCounter:
          t.value += static_cast<double>(s.counter_value);
          break;
        case metrics::Kind::kGauge:
          t.value += s.gauge_value;
          break;
        case metrics::Kind::kHistogram:
          t.value += s.histogram.sum;
          t.count += s.histogram.count;
          break;
      }
    }
  }
  return t;
}

double ratio(double x, double y) { return y > 0.0 ? x / y : 0.0; }

int mode_traced(const Args& a) {
  Rep probe;
  const auto w = make_workload(a.workload, a.seed, probe);
  const auto units = static_cast<double>(w->cell_angles() * w->sweeps());

  // The sn kernel alone, first, on a fresh heap: median of at least 3
  // serial sweeps and 0.2 s.
  std::vector<double> serial;
  const WallTimer serial_total;
  while (serial.size() < 3 || serial_total.seconds() < 0.2)
    serial.push_back(w->serial_sweep_seconds());

  RepChecker checked(a.out, w->sweeps());

  // Sizing rep (also the warm-up), traced into small rings: a ring keeps
  // counting the events it drops, so size + dropped is the exact number of
  // events each track recorded. The traced rep's rings hold that many plus
  // a margin for run-to-run scheduling differences.
  trace::RecorderOptions ro;
  ro.events_per_track = 1024;
  trace::Recorder sizing(ro);
  checked(run_rep(a.workload, a.seed, {&sizing, nullptr}));
  std::int64_t most = 0;
  for (const trace::Track* t : sizing.tracks())
    most = std::max(most, static_cast<std::int64_t>(t->ring().size()) +
                              t->ring().dropped());
  ro.events_per_track = static_cast<std::size_t>(most + most / 4 + 4096);

  const Rep untraced = run_rep(a.workload, a.seed);
  checked(untraced);

  metrics::Registry registry;
  trace::Recorder recorder(ro);
  const Rep rep = run_rep(a.workload, a.seed, {&recorder, &registry}, true);
  checked(rep);

  const auto snap = registry.snapshot();
  const auto sum = [&](const char* name, const metrics::Labels& match = {}) {
    return total(snap, name, match).value;
  };
  const double executions = sum("jsweep_engine_executions_total");
  const double busy = sum("jsweep_engine_worker_busy_seconds");
  const double idle = sum("jsweep_engine_worker_idle_seconds");
  const double steal_hits =
      sum("jsweep_engine_steals_total", {{"result", "hit"}});
  const double steal_misses =
      sum("jsweep_engine_steals_total", {{"result", "miss"}});
  const double messages = sum("jsweep_engine_messages_total");
  const double stream_bytes = sum("jsweep_engine_stream_bytes_total");
  const SeriesTotal activation =
      total(snap, "jsweep_pipeline_activation_latency_seconds");
  const bool pipelined = activation.count > 0;
  const RankResult& rr = rep.rank;
  const bool service = rr.service_engine_runs > 0;

  // Trace breakdown. The service API takes no recorder, so its trace is
  // empty and the trace-only numbers are not measured there.
  const trace::ProfileReport profile = trace::analyze(recorder);
  const bool traced = profile.events > 0;
  double route = 0.0;
  double pack = 0.0;
  double collective = 0.0;
  for (const auto& rb : profile.ranks) {
    route += rb.route_seconds;
    pack += rb.pack_seconds;
    collective += rb.collective_seconds;
  }
  const double na = kNaN;

  const std::vector<Metric> ms = {
      {"mesh.gen_s", "s", rep.mesh_s},
      {"partition.s", "s", rep.partition_s},
      {"sweep.plan_build_s", "s", rr.plan_s},
      {"sweep.programs", "count", static_cast<double>(rr.programs)},
      {"sn.serial_grind_ns", "ns",
       median(serial) / static_cast<double>(w->cell_angles()) * 1e9},
      {"core.executions", "count", executions},
      {"core.busy_s", "s", busy},
      {"core.busy_us_per_exec", "us", ratio(busy, executions) * 1e6},
      {"core.busy_ns_per_unit", "ns", busy / units * 1e9},
      {"core.idle_fraction", "ratio", ratio(idle, busy + idle)},
      {"core.master_idle_s", "s", sum("jsweep_engine_master_idle_seconds")},
      {"core.route_s", "s", traced ? route : na},
      {"core.pack_s", "s", traced && w->ranks() > 1 ? pack : na},
      {"core.steals", "count", steal_hits},
      {"core.steal_hit_rate", "ratio",
       ratio(steal_hits, steal_hits + steal_misses)},
      {"core.critical_path_share", "ratio",
       traced ? ratio(profile.critical_path_seconds, profile.span_seconds)
              : na},
      {"comm.streams_remote", "count",
       sum("jsweep_engine_streams_total", {{"path", "remote"}})},
      {"comm.messages", "count", messages},
      {"comm.stream_bytes", "bytes", stream_bytes},
      {"comm.bytes_per_message", "bytes", ratio(stream_bytes, messages)},
      {"comm.collective_s", "s", traced ? collective : na},
      {"comm.allreduce_us", "us", rr.allreduce_s * 1e6},
      {"sweep.session_create_ms", "ms", rr.session_create_s * 1e3},
      {"sweep.sweep_overhead_ms", "ms",
       rr.sweep_overhead_s / static_cast<double>(w->sweeps()) * 1e3},
      {"sweep.sweeps", "count", static_cast<double>(rr.out.sweeps)},
      {"sweep.pipeline_fill_s", "s",
       pipelined ? sum("jsweep_pipeline_fill_seconds") /
                       static_cast<double>(w->ranks())
                 : na},
      {"sweep.activation_latency_us", "us",
       pipelined ? activation.value / static_cast<double>(activation.count) *
                       1e6
                 : na},
      {"sweep.service_engine_runs", "count",
       static_cast<double>(rr.service_engine_runs)},
      {"sweep.service_lane_occupancy", "ratio",
       service ? static_cast<double>(rr.out.sweeps) /
                     static_cast<double>(rr.service_engine_runs *
                                         ServiceBurst::kMaxBatch)
               : 0.0},
      {"trace.dropped_events", "count",
       static_cast<double>(recorder.dropped_events())},
      {"trace.overhead_ratio", "ratio",
       rr.solve_s / untraced.rank.solve_s - 1.0},
  };
  write_file(a.out + "/traced.json",
             "{\n  " + checked.json() + ",\n  \"trace_events\": " +
                 std::to_string(recorder.total_events()) +
                 ",\n  \"events_per_track\": " +
                 std::to_string(ro.events_per_track) +
                 ",\n  \"metrics\": " + metrics_json(ms) + "\n}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: bench_e2e --workload NAME --mode "
               "reference|timed|traced --out DIR [--seed N] [--reps R] "
               "[--seconds S]\nworkloads:");
  for (const char* w : kWorkloads) std::fprintf(stderr, " %s", w);
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--mode") {
      a.mode = value;
    } else if (key == "--out") {
      a.out = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value.c_str(), &end, 10);
    } else if (key == "--reps") {
      a.reps = static_cast<int>(std::strtol(value.c_str(), &end, 10));
    } else if (key == "--seconds") {
      a.seconds = std::strtod(value.c_str(), &end);
    } else {
      return usage();
    }
    if (end != nullptr && (end == value.c_str() || *end != '\0'))
      return usage();
  }
  if (argc % 2 == 0 || a.out.empty() || a.reps < 1 || a.seconds < 0.0)
    return usage();
  if (std::find(std::begin(kWorkloads), std::end(kWorkloads), a.workload) ==
      std::end(kWorkloads))
    return usage();
  try {
    if (a.mode == "reference") return mode_reference(a);
    if (a.mode == "timed") return mode_timed(a);
    if (a.mode == "traced") return mode_traced(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bench_e2e: %s\n", e.what());
    return 1;
  }
  return usage();
}
