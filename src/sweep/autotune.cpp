#include "sweep/autotune.hpp"

#include <algorithm>
#include <limits>

#include "sn/face_flux.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"
#include "sweep/session.hpp"

namespace jsweep::sweep {
namespace {

/// One timed grind of `passes` multigroup passes on `plan`. Session
/// construction (program install) is excluded — the tuner scores
/// steady-state execution, which is what repeated solves pay.
double grind_once(comm::Context& ctx, std::shared_ptr<const SweepPlan> plan,
                  const SolveConfig& sc, int passes) {
  SweepSession session(ctx, plan, sc);
  sn::MultigroupOptions mg;
  // Exactly `passes` passes: zero tolerances defeat early convergence, one
  // outer keeps upscatter problems from multiplying the work.
  mg.inner.max_iterations = passes;
  mg.inner.tolerance = 0.0;
  mg.max_outer_iterations = 1;
  mg.outer_tolerance = 0.0;
  WallTimer timer;
  (void)session.solve_multigroup(mg);
  return timer.seconds();
}

}  // namespace

AutoTuneResult auto_tune(comm::Context& ctx, const PlanConfig& base,
                         const TunePlanBuilder& build,
                         const AutoTuneOptions& options) {
  JSWEEP_CHECK_MSG(build != nullptr, "auto_tune needs a plan builder");
  JSWEEP_CHECK_MSG(base.multigroup != nullptr && base.group_pipelining,
                   "auto_tune scans group-set widths; it needs a "
                   "group-pipelined multigroup PlanConfig");

  const int wmax = std::min(base.multigroup->groups(), sn::kMaxGroupSetWidth);
  std::vector<int> widths = options.group_set_widths;
  if (widths.empty()) widths = {1, 2, 4, 8};
  std::vector<int> ws;
  for (int w : widths)
    if (w >= 1 && w <= wmax &&
        std::find(ws.begin(), ws.end(), w) == ws.end())
      ws.push_back(w);
  if (ws.empty()) ws.push_back(1);
  std::sort(ws.begin(), ws.end());

  const int passes = std::max(1, options.grind_passes);
  const int repeats = std::max(1, options.repeats);
  SolveConfig sc;
  sc.num_workers = options.num_workers;

  AutoTuneResult result;
  result.best_seconds = std::numeric_limits<double>::infinity();
  for (int w : ws) {
    PlanConfig pc = base;
    pc.group_set_width = w;
    std::shared_ptr<const SweepPlan> plan = build(pc);
    JSWEEP_CHECK_MSG(plan != nullptr, "plan builder returned null");

    double secs = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < repeats; ++rep)
      secs = std::min(secs, grind_once(ctx, plan, sc, passes));
    // Cluster max: the slowest rank gates a collective solve, and the
    // shared score keeps every rank picking the same winner.
    secs = ctx.allreduce_max(secs);
    result.samples.push_back(AutoTuneSample{w, secs});
    // Strict < : ties keep the smallest (scan-order-deterministic) width.
    if (secs < result.best_seconds) {
      result.best_seconds = secs;
      result.group_set_width = w;
      result.plan = std::move(plan);
    }
  }
  return result;
}

}  // namespace jsweep::sweep
