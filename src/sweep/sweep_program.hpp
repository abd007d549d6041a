#pragma once

/// \file sweep_program.hpp
/// The data-driven Sn sweep patch-program — a faithful implementation of
/// the paper's Listing 1. One instance handles one (patch, angle, group)
/// task; its local context is the per-vertex dependency counters, the
/// rank-ordered ready set, the dense face-flux workspace and the
/// per-destination out-stream buffers. compute() retires up to
/// `cluster_grain` ready vertices per execution (vertex clustering,
/// Sec. V-C) and can record the resulting clusters. After a recorded run,
/// replay_recorded_clusters() turns the same program into a replay of the
/// coarsened graph (Sec. V-E): one recorded cluster per compute(), with
/// dependencies counted per cluster instead of per vertex.
///
/// Deadlock-freedom of the replay across patches: clusters are compute()
/// batches, streams are emitted at batch end and consumed between batches,
/// so every coarse edge (local or remote) points from a cluster that
/// finished earlier to one that started later — the global coarse graph is
/// acyclic (the distributed extension of the paper's Theorem 1).
///
/// Steady-state allocation budget: zero. The face-flux workspace comes
/// from a shared FaceFluxPool (borrowed at init(), returned when the last
/// vertex retires), stream payloads come from the engine's BufferPool, and
/// the per-destination item buffers are reserved to their static maximum —
/// the kernel grind performs no hash-map operation and no heap allocation.

#include <memory>
#include <mutex>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/patch_program.hpp"
#include "graph/coarsen.hpp"
#include "partition/patch_set.hpp"
#include "sn/discretization.hpp"
#include "sn/face_flux.hpp"
#include "sn/quadrature.hpp"
#include "sweep/lagged_flux.hpp"
#include "sweep/stream_codec.hpp"
#include "sweep/sweep_data.hpp"

namespace jsweep::sweep {

class GroupPipeline;

/// Rank-level context shared by all sweep programs of one solver. The
/// solver updates `q_per_ster` between source iterations; everything else
/// is immutable during a run.
struct SweepShared {
  const sn::Discretization* disc = nullptr;       ///< per-cell sweep kernel
  const partition::PatchSet* patches = nullptr;   ///< cell ↔ patch maps
  const sn::Quadrature* quad = nullptr;           ///< ordinate set
  const std::vector<double>* q_per_ster = nullptr;  ///< per-cell source
  /// Old-iterate fluxes of cycle-cut faces; null when the sweep graphs are
  /// acyclic (no cut). Programs read prev values and stage fresh ones.
  LaggedFluxStore* lagged = nullptr;
  /// Shared workspace pool; null makes each program own a private
  /// workspace (handy for tests driving programs without a solver).
  sn::FaceFluxPool* flux_pool = nullptr;
  /// Stream payload recycling; null falls back to plain allocation.
  core::BufferPool* stream_buffers = nullptr;
  /// Group-pipelined multigroup coordination (group_pipeline.hpp). When
  /// set, programs resolve their kernel and source per group through it,
  /// report retirement, and groups > 0 start gated on activation streams.
  /// Null = single-group: `disc` and `q_per_ster` are used directly.
  GroupPipeline* pipeline = nullptr;
  /// Energy group the current engine run sweeps when the task system is
  /// single-group but the solve is multigroup (barriered mode / per-group
  /// runs): selects each program's lagged-flux stride. Pipelined programs
  /// use their own GroupId instead; plain single-group solves leave it 0.
  GroupId current_group{0};
};

/// The workspace borrow/seed/release protocol of a sweep program. A
/// program borrows its dense workspace lazily — nothing is held until the
/// first flux arrives or the first vertex computes — and returns it the
/// moment its last vertex retires, so the pool's live set tracks the sweep
/// frontier. Without a shared pool the lease falls back to a privately
/// owned workspace.
class WorkspaceLease {
 public:
  /// Init-time: drop any stale borrow left by an aborted previous run.
  void reset_for_run(const SweepShared& shared);
  /// Borrow (and seed the lagged faces of base group `group` into) the
  /// workspace on first use. Group-set programs pass their set width:
  /// the workspace holds `num_flux_slots() * width` lanes.
  sn::FaceFluxWorkspace& ensure(const SweepShared& shared,
                                const SweepTaskData& data, GroupId group,
                                int width = 1);
  /// Return the workspace once the program has retired all its work.
  void release_if(bool done, const SweepShared& shared);

 private:
  sn::FaceFluxWorkspace* flux_ = nullptr;
  sn::FaceFluxWorkspace owned_;
};

/// Per-program knobs (fixed at construction).
struct SweepProgramOptions {
  /// Sweep direction (ordinate id) of this program. Required: task data
  /// may be shared by every angle of a structure class, so the angle is
  /// not derivable from it (the plan's PlanProgram::angle).
  AngleId angle;
  /// Max vertices retired per compute() execution (the paper's N).
  int cluster_grain = 64;
  /// Record compute() batches as clusters, for
  /// SweepPatchProgram::replay_recorded_clusters().
  bool record_clusters = false;
  /// When non-null, compute() holds this mutex — serializes all angles of
  /// one patch, the "patch is the unit of parallelism" ablation.
  std::mutex* patch_serializer = nullptr;
  /// Group *set* this program sweeps (0 for single-group solves; the
  /// plain energy group when the pipeline's set width is 1). With a
  /// GroupPipeline in SweepShared, sets > 0 start *gated*: face streams
  /// are buffered but nothing computes until the pipeline's empty-payload
  /// activation stream opens the gate (the patch's sources are ready).
  GroupId group{0};
  /// Request-lane tag offset (see lane_task_tag in sweep_data.hpp): added
  /// to the (angle, group) task tag so several sessions' programs coexist
  /// in one engine without key collisions. 0 = the plain solver namespace.
  int lane_tag_offset = 0;
};

/// The data-driven Sn sweep patch-program (see \ref sweep_program.hpp):
/// Listing 1 on one (patch, angle, group) task.
class SweepPatchProgram final : public core::PatchProgram {
 public:
  /// `data` and `shared` must outlive the program; `shared.quad` must be
  /// set (the program key derives from it).
  SweepPatchProgram(const SweepTaskData& data, const SweepShared& shared,
                    SweepProgramOptions options);

  /// Reset local context (counters, ready queue, φ, gate) for a new run.
  void init() override;
  /// Consume one face-flux stream (or a group-activation marker).
  void input(const core::Stream& s) override;
  /// Retire up to cluster_grain ready vertices (one recorded cluster when
  /// replaying); buffer boundary outputs.
  void compute() override;
  /// Drain one pending outgoing stream (null when empty).
  std::optional<core::Stream> output() override;
  /// True when nothing is runnable (empty ready queue or closed gate).
  bool vote_to_halt() override;
  /// Unswept vertices (drives known-workload termination).
  [[nodiscard]] std::int64_t remaining_work() const override {
    return data_.num_vertices() - computed_;
  }
  /// Total vertices this program retires per run.
  [[nodiscard]] std::int64_t total_work() const override {
    return data_.num_vertices();
  }

  /// Per-local-vertex contribution w_a * ψ to the scalar flux, valid after
  /// a run completes. Group-set programs (set width W > 1) store W lanes
  /// per vertex, `[v * W + lane]`, one per group of the set.
  [[nodiscard]] const std::vector<double>& phi_local() const { return phi_; }

  /// Cluster id per vertex from the recorded execution (record_clusters
  /// must have been set); -1 for vertices never computed (none, after a
  /// complete run).
  [[nodiscard]] const std::vector<std::int32_t>& recorded_clusters() const {
    return cluster_of_;
  }
  /// Number of clusters the recorded execution produced.
  [[nodiscard]] std::int32_t recorded_num_clusters() const {
    return next_cluster_;
  }

  /// Switch to replaying the recorded clusters on the coarsened graph
  /// (record_clusters must be set and a complete run recorded). From the
  /// next run on, each compute() sweeps one ready cluster's members in
  /// execution order and dependencies are counted per cluster; the fluxes
  /// stay bitwise those of the fine loop.
  void replay_recorded_clusters();

  /// The immutable task data this program sweeps.
  [[nodiscard]] const SweepTaskData& data() const { return data_; }

 private:
  /// Base energy group selecting this run's lagged-flux stride: the
  /// program's set base when pipelined (== its group at set width 1), the
  /// solver-set current group otherwise.
  [[nodiscard]] GroupId lag_group() const {
    return shared_.pipeline != nullptr ? GroupId{group_base_}
                                       : shared_.current_group;
  }
  /// Dependency-counting unit of vertex v: v itself, or its recorded
  /// cluster when replaying.
  [[nodiscard]] std::int32_t unit_of(std::int32_t v) const {
    return replay_ != nullptr ? cluster_of_[static_cast<std::size_t>(v)] : v;
  }
  /// ReadySet rank of counting unit u: the vertex's static rank, or the
  /// cluster id itself (recording order is a topological order of the
  /// coarse graph).
  [[nodiscard]] std::int32_t rank_of(std::int32_t u) const {
    return replay_ != nullptr ? u : data_.vertex_rank(u);
  }

  /// What one compute() resolves once for every vertex it sweeps.
  struct VertexKernel {
    const sn::Ordinate& ang;           ///< this program's ordinate
    const sn::Discretization& disc;    ///< kernel (set base group's)
    const std::vector<double>& q;      ///< per-cell (set: lane) source
    const double* sigma_t_lanes;       ///< set σ_t; null at width 1
    const std::vector<CellId>& cells;  ///< patch cells by local vertex
    sn::FaceFluxWorkspace& flux;       ///< the leased workspace
  };
  /// Sweep vertex v — kernel, φ, remote-out buffering and lagged staging:
  /// the per-vertex body of both the fine and the replay loop.
  inline void sweep_vertex(std::int32_t v, const VertexKernel& k);

  const SweepTaskData& data_;
  const SweepShared& shared_;
  SweepProgramOptions options_;
  /// Lanes this program sweeps at once (resolved from the pipeline's set
  /// width at construction; 1 without a pipeline). Width 1 takes the
  /// scalar kernel/codec path unchanged.
  int set_width_ = 1;
  /// First energy group of this program's set (0 without a pipeline).
  int group_base_ = 0;

  // --- Local context (Listing 1, part 1), reset by init() ---------------
  std::vector<std::int32_t> counts_;  ///< per counting unit (unit_of())
  ReadySet ready_;                    ///< by counting-unit rank (rank_of())
  WorkspaceLease lease_;
  std::vector<std::vector<StreamItem>> out_items_;  ///< by destination slot
  /// Group-set out buffers (set_width_ > 1): one record + set_width_
  /// lane values per remote face delivery, by destination slot.
  std::vector<std::vector<SetStreamRecord>> out_records_;
  std::vector<std::vector<double>> out_lanes_;
  std::vector<core::Stream> pending_;
  std::vector<double> phi_;
  std::int64_t computed_ = 0;
  std::vector<std::int32_t> cluster_of_;
  std::int32_t next_cluster_ = 0;
  /// Group gate: false until the pipeline's activation stream arrives
  /// (always true for group 0 or single-group solves).
  bool gate_open_ = true;
  bool completion_reported_ = false;

  /// What a replay needs beyond the recording (replay_recorded_clusters()).
  struct Replay {
    graph::CoarsenedGraph graph;  ///< coarse graph of the recorded clusters
    /// Per-cluster initial counts: coarse in-degree + remote-in edges.
    std::vector<std::int32_t> initial_counts;
  };
  /// Null until replay_recorded_clusters(): fine programs carry no replay
  /// state.
  std::unique_ptr<const Replay> replay_;
};

}  // namespace jsweep::sweep
