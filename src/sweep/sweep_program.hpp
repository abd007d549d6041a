#pragma once

/// \file sweep_program.hpp
/// The data-driven Sn sweep patch-program — a faithful implementation of
/// the paper's Listing 1. One instance handles one (patch, angle, group)
/// task; its local context is the per-vertex dependency counters, the
/// ready priority queue, the dense face-flux workspace and the
/// per-destination out-stream buffers. compute() retires up to
/// `cluster_grain` ready vertices per execution (vertex clustering,
/// Sec. V-C) and can record the resulting clusters to build the coarsened
/// graph (Sec. V-E).
///
/// Steady-state allocation budget: zero. The face-flux workspace comes
/// from a shared FaceFluxPool (borrowed at init(), returned when the last
/// vertex retires), stream payloads come from the engine's BufferPool, and
/// the per-destination item buffers are reserved to their static maximum —
/// the kernel grind performs no hash-map operation and no heap allocation.

#include <mutex>
#include <queue>
#include <vector>

#include "core/buffer_pool.hpp"
#include "core/patch_program.hpp"
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

// Shared lagged-face (cycle-cut) handling — ONE implementation of the
// schedule-independence invariant for both the fine and the coarsened
// program, which must stay bitwise-identical.

/// At init, seed every lagged read face with the previous sweep's iterate
/// so cut dependencies never wait. `group` is the base energy group and
/// `width` the group-set width: lane l seeds workspace index
/// `ws_slot * width + l` from group `group + l`'s store stride (width 1 is
/// the classic scalar layout, bit-for-bit).
void seed_lagged_faces(const SweepTaskData& data, const LaggedFluxStore* store,
                       GroupId group, sn::FaceFluxWorkspace& flux,
                       int width = 1);
/// After computing vertex v, stage each lagged face it wrote for the next
/// sweep and restore the old iterate, so any later reader sees the value
/// the cut promised regardless of execution order. Same (group, width)
/// striding contract as seed_lagged_faces().
void stage_lagged_writes(const SweepTaskData& data, LaggedFluxStore* store,
                         GroupId group, std::int32_t v,
                         sn::FaceFluxWorkspace& flux, int width = 1);

/// One implementation of the workspace borrow/seed/release protocol for
/// both the fine and the coarsened program. A program borrows its dense
/// workspace lazily — nothing is held until the first flux arrives or the
/// first vertex computes — and returns it the moment its last vertex
/// retires, so the pool's live set tracks the sweep frontier. Without a
/// shared pool the lease falls back to a privately owned workspace.
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
  /// Currently leased workspace (null when none is borrowed).
  [[nodiscard]] sn::FaceFluxWorkspace* get() const { return flux_; }

 private:
  sn::FaceFluxWorkspace* flux_ = nullptr;
  sn::FaceFluxWorkspace owned_;
};

/// Init-time sizing of the per-destination out-item buffers to their
/// static per-sweep maximum (allocation-free batching afterwards).
void prepare_out_buffers(const SweepTaskData& data,
                         std::vector<std::vector<StreamItem>>& out_items,
                         std::vector<core::Stream>& pending);
/// Batch-end flush: encode each destination's buffered items into one
/// pooled-payload stream (ascending patch id — the deterministic emission
/// order) and queue it on `pending`.
void flush_out_streams(const SweepTaskData& data, const SweepShared& shared,
                       const ProgramKey& src,
                       std::vector<std::vector<StreamItem>>& out_items,
                       std::vector<core::Stream>& pending);

/// Group-set counterparts of prepare_out_buffers()/flush_out_streams():
/// each remote face delivery becomes one SetStreamRecord plus `width` lane
/// values (lanes flat in `out_lanes[d]`, record i owning
/// `[i*width, (i+1)*width)`), encoded with the set codec so the receiver
/// decrements its dependency counter once per record.
void prepare_set_out_buffers(
    const SweepTaskData& data, int width,
    std::vector<std::vector<SetStreamRecord>>& out_records,
    std::vector<std::vector<double>>& out_lanes,
    std::vector<core::Stream>& pending);
void flush_set_out_streams(
    const SweepTaskData& data, const SweepShared& shared, int width,
    const ProgramKey& src,
    std::vector<std::vector<SetStreamRecord>>& out_records,
    std::vector<std::vector<double>>& out_lanes,
    std::vector<core::Stream>& pending);

/// Per-program knobs (fixed at construction).
struct SweepProgramOptions {
  /// Sweep direction (ordinate id) of this program. Required: task data
  /// may be shared by every angle of a structure class, so the angle is
  /// not derivable from it (the plan's PlanProgram::angle).
  AngleId angle;
  /// Max vertices retired per compute() execution (the paper's N).
  int cluster_grain = 64;
  /// Record compute() batches as clusters for coarsened-graph replay.
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
  /// Retire up to cluster_grain ready vertices; buffer boundary outputs.
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

  /// The immutable task data this program sweeps.
  [[nodiscard]] const SweepTaskData& data() const { return data_; }

 private:
  struct ReadyEntry {
    double priority;
    std::int32_t v;
    /// Max-heap by priority; deterministic tie-break on vertex id.
    bool operator<(const ReadyEntry& o) const {
      if (priority != o.priority) return priority < o.priority;
      return v > o.v;
    }
  };

  void mark_ready(std::int32_t v);
  /// Base energy group selecting this run's lagged-flux stride: the
  /// program's set base when pipelined (== its group at set width 1), the
  /// solver-set current group otherwise.
  [[nodiscard]] GroupId lag_group() const {
    return shared_.pipeline != nullptr ? GroupId{group_base_}
                                       : shared_.current_group;
  }

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
  std::vector<std::int32_t> counts_;
  std::priority_queue<ReadyEntry> ready_;
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
};

}  // namespace jsweep::sweep
