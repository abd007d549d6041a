#pragma once

/// \file autotune.hpp
/// Calibration auto-tuner: pick the group-set width by *measuring* short
/// grinds on the actual plan instead of trusting the default.
///
/// Aggregation is the sweep-efficiency lever worth tuning (Adams et al.,
/// "Provably Optimal Parallel Transport Sweeps"): the best group-set width
/// depends on the machine, the mesh and the partition — exactly the things
/// a static default cannot see. auto_tune() builds one candidate plan per
/// width (the width is structural, so the caller supplies a builder), runs
/// a short timed multigroup grind on each, and returns the fastest
/// candidate plan as built.
///
/// Collective: every rank must call with identical inputs; candidate
/// timings are allreduce_max'd so all ranks agree on the winner and the
/// tuned plan stays identical cluster-wide. Deterministic given identical
/// timings; the measured winner may of course vary run to run — that is
/// the point.

#include <functional>
#include <memory>
#include <vector>

#include "comm/cluster.hpp"
#include "sweep/plan.hpp"

namespace jsweep::sweep {

/// Builds the candidate plan for one group-set width. Called collectively
/// (all ranks, same width sequence); the config passed in is the caller's
/// base PlanConfig with `group_set_width` set by the tuner.
using TunePlanBuilder = std::function<std::shared_ptr<const SweepPlan>(
    const PlanConfig& config)>;

/// Scan range and grind length of one auto_tune() call.
struct AutoTuneOptions {
  /// Candidate group-set widths; empty = {1, 2, 4, 8}. Clamped to
  /// [1, min(G, sn::kMaxGroupSetWidth)] and scanned ascending.
  std::vector<int> group_set_widths;
  int num_workers = 2;  ///< engine workers of the grind sessions
  int grind_passes = 3;  ///< multigroup passes per timed grind
  /// Timed repetitions per candidate; the minimum is scored (absorbs
  /// first-run allocation noise).
  int repeats = 2;
};

/// One scored width of the scan (diagnostics / bench output).
struct AutoTuneSample {
  int group_set_width = 1;  ///< the candidate width
  double seconds = 0.0;     ///< best-of-repeats grind time (cluster max)
};

/// The tuner's verdict: the winning width, its candidate plan and the
/// full scan for reporting.
struct AutoTuneResult {
  int group_set_width = 1;  ///< fastest width (ties keep the smallest)
  std::shared_ptr<const SweepPlan> plan;  ///< the winning candidate plan
  double best_seconds = 0.0;              ///< winning grind time
  std::vector<AutoTuneSample> samples;    ///< one per width, ascending
};

/// Run the calibration scan (see the file doc). `base` must be a
/// group-pipelined multigroup PlanConfig; its `group_set_width` is
/// overwritten per candidate. Collective across `ctx`'s cluster.
[[nodiscard]] AutoTuneResult auto_tune(comm::Context& ctx,
                                       const PlanConfig& base,
                                       const TunePlanBuilder& build,
                                       const AutoTuneOptions& options = {});

}  // namespace jsweep::sweep
