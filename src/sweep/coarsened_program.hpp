#pragma once

/// \file coarsened_program.hpp
/// Coarsened-graph sweep replay (Sec. V-E). After one recorded DAG sweep,
/// each (patch, angle, group) program's compute() batches become the
/// clusters of a coarsened graph CG; later iterations run one cluster per
/// task execution, skipping per-vertex scheduling and per-fine-edge counter
/// updates.
///
/// Deadlock-freedom across patches: clusters are compute() batches, streams
/// are emitted at batch end and consumed between batches, so every coarse
/// edge (local or remote) points from a cluster that finished earlier to
/// one that started later — the global coarse graph is acyclic (the
/// distributed extension of the paper's Theorem 1).

#include <queue>
#include <vector>

#include "core/patch_program.hpp"
#include "sweep/sweep_program.hpp"

namespace jsweep::sweep {

/// Immutable cluster-level structure derived from a recorded execution.
class CoarsenedSweepData {
 public:
  /// `cluster_of[v]` = recorded cluster of each fine vertex (all >= 0),
  /// with cluster ids in batch-creation order.
  CoarsenedSweepData(const SweepTaskData& fine,
                     std::vector<std::int32_t> cluster_of,
                     std::int32_t num_clusters);

  /// The fine (per-vertex) task data the clusters refer to.
  [[nodiscard]] const SweepTaskData& fine() const { return fine_; }
  /// Clusters in the coarsened graph.
  [[nodiscard]] std::int32_t num_clusters() const { return num_clusters_; }
  /// Fine vertices of cluster c, in recorded execution order.
  [[nodiscard]] const std::vector<std::int32_t>& members(
      std::int32_t c) const {
    return members_[static_cast<std::size_t>(c)];
  }
  /// Cluster id per fine vertex.
  [[nodiscard]] const std::vector<std::int32_t>& cluster_of() const {
    return cluster_of_;
  }
  /// Per-cluster initial dependency counts.
  [[nodiscard]] const std::vector<std::int32_t>& initial_counts() const {
    return initial_counts_;
  }

  /// Coarse local successors of cluster c (deduplicated).
  template <class Fn>
  void for_succ(std::int32_t c, Fn&& fn) const {
    for (auto e = succ_off_[static_cast<std::size_t>(c)];
         e < succ_off_[static_cast<std::size_t>(c) + 1]; ++e)
      fn(succ_[static_cast<std::size_t>(e)]);
  }

 private:
  const SweepTaskData& fine_;
  std::vector<std::int32_t> cluster_of_;
  std::int32_t num_clusters_;
  std::vector<std::vector<std::int32_t>> members_;  ///< execution order
  std::vector<std::int64_t> succ_off_;
  std::vector<std::int32_t> succ_;
  /// #coarse local predecessors + #remote-in fine edges, per cluster.
  std::vector<std::int32_t> initial_counts_;
};

/// Patch-program that replays the sweep cluster-by-cluster on CG. Carries
/// the same (angle, group) task axis as the fine program it replaces —
/// including the multigroup gate/activation protocol — so a coarsened
/// multigroup pass stays bitwise-identical to the fine one.
class CoarsenedSweepProgram final : public core::PatchProgram {
 public:
  /// `angle` is the sweep direction of the fine program this replays
  /// (the fine task data may be shared by a whole structure class).
  CoarsenedSweepProgram(const CoarsenedSweepData& data,
                        const SweepShared& shared, AngleId angle,
                        GroupId group = GroupId{0});

  /// Reset local context (counters, ready clusters, φ, gate) for a run.
  void init() override;
  /// Consume one face-flux stream (or a group-activation marker).
  void input(const core::Stream& s) override;
  /// Replay one ready cluster; buffer boundary outputs.
  void compute() override;
  /// Drain one pending outgoing stream (null when empty).
  std::optional<core::Stream> output() override;
  /// True when nothing is runnable (empty ready queue or closed gate).
  bool vote_to_halt() override;
  /// Unswept fine vertices (drives known-workload termination).
  [[nodiscard]] std::int64_t remaining_work() const override {
    return fine_vertices_ - computed_;
  }
  /// Total fine vertices this program retires per run.
  [[nodiscard]] std::int64_t total_work() const override {
    return fine_vertices_;
  }

  /// Per-local-vertex w_a·ψ contribution, valid after a run completes.
  /// Group-set programs (set width W > 1) store W lanes per vertex,
  /// `[v * W + lane]`, one per group of the set.
  [[nodiscard]] const std::vector<double>& phi_local() const { return phi_; }

 private:
  /// See SweepPatchProgram::lag_group(): lagged-flux stride selection
  /// (base energy group of this program's set when pipelined).
  [[nodiscard]] GroupId lag_group() const {
    return shared_.pipeline != nullptr ? GroupId{group_base_}
                                       : shared_.current_group;
  }

  const CoarsenedSweepData& data_;
  const SweepShared& shared_;
  AngleId angle_;  ///< sweep direction (ordinate id)
  GroupId group_;  ///< group *set* id when pipelined (see SweepProgramOptions)
  std::int64_t fine_vertices_;
  /// Lanes this program sweeps at once (pipeline set width; 1 otherwise).
  int set_width_ = 1;
  /// First energy group of this program's set (0 without a pipeline).
  int group_base_ = 0;

  std::vector<std::int32_t> counts_;  ///< per cluster
  /// Ready clusters in creation order (min-heap on cluster id — creation
  /// order is a topological order of CG).
  std::priority_queue<std::int32_t, std::vector<std::int32_t>,
                      std::greater<>>
      ready_;
  WorkspaceLease lease_;
  std::vector<std::vector<StreamItem>> out_items_;  ///< by destination slot
  /// Group-set out buffers (set_width_ > 1), mirroring SweepPatchProgram.
  std::vector<std::vector<SetStreamRecord>> out_records_;
  std::vector<std::vector<double>> out_lanes_;
  std::vector<core::Stream> pending_;
  std::vector<double> phi_;
  std::int64_t computed_ = 0;
  bool gate_open_ = true;  ///< see SweepPatchProgram's group gate
  bool completion_reported_ = false;
};

}  // namespace jsweep::sweep
