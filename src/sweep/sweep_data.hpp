#pragma once

/// \file sweep_data.hpp
/// Immutable sweep data shared by every engine and every source iteration:
/// the dependency graph in per-vertex CSR form (with face ids), vertex
/// priorities, and the *dense face-flux index* — every face this task can
/// touch (upwind in, interior, downwind out, lagged) resolved to a compact
/// workspace slot so the kernels and the stream paths never hash at run
/// time. One instance serves a (patch, octant) on structured meshes, where
/// all of this depends on Ω only through the signs of its components; and
/// a (patch, angle) on tet meshes and lagged tasks, whose store slots are
/// per angle. The sweep direction is therefore not part of the data: the
/// programs carry it. Building this once and reusing it across iterations
/// mirrors the paper's constant-mesh assumption (Sec. V-E).

#include <memory>
#include <utility>
#include <vector>

#include "graph/priority.hpp"
#include "graph/sweep_dag.hpp"
#include "partition/patch_set.hpp"
#include "sn/discretization.hpp"
#include "sn/face_flux.hpp"
#include "sn/quadrature.hpp"
#include "support/ids.hpp"
#include "sweep/lagged_flux.hpp"

namespace jsweep::sweep {

/// Task tag of a sweep program along the (angle, group) axes, group-major:
/// tag = group · num_angles + angle. A single-group sweep's tag is the
/// plain angle id, so every pre-multigroup key, trace and route stays
/// unchanged; a G-group solve runs G·A programs per patch, one per
/// (angle, group).
[[nodiscard]] inline TaskTag sweep_task_tag(AngleId a, GroupId g,
                                            int num_angles) {
  return TaskTag{g.value() * num_angles + a.value()};
}
[[nodiscard]] inline AngleId sweep_task_angle(TaskTag t, int num_angles) {
  return AngleId{t.value() % num_angles};
}
[[nodiscard]] inline GroupId sweep_task_group(TaskTag t, int num_angles) {
  return GroupId{t.value() / num_angles};
}

/// Request-lane tag namespace for the sweep service: lane l of a plan with
/// G built groups and A angles owns tags [l·G·A, (l+1)·G·A), i.e. one full
/// (angle, group) tag block per concurrently batched solve request. Face
/// streams copy the source program's tag, so every stream a lane emits
/// stays inside that lane's namespace without any per-item routing work —
/// lane 0 is the plain (offset-free) solver namespace.
[[nodiscard]] inline TaskTag lane_task_tag(TaskTag base, int lane,
                                           int tags_per_lane) {
  return TaskTag{lane * tags_per_lane + base.value()};
}
/// Inverse of lane_task_tag: which request lane a tag belongs to.
[[nodiscard]] inline int lane_of_task(TaskTag t, int tags_per_lane) {
  return t.value() / tags_per_lane;
}

/// A local downwind edge of one vertex.
struct OutLocal {
  std::int32_t w;       ///< downwind local vertex
  std::int64_t face;    ///< connecting face
};

/// A remote downwind edge, fully resolved for the hot path: the carrying
/// face's workspace slot and the destination patch's dense index into the
/// per-destination out-item buffers.
struct RemoteOut {
  std::int64_t dst_cell;  ///< destination cell (global id)
  std::int64_t face;      ///< mesh face id carrying the flux
  std::int32_t slot;      ///< workspace slot of `face`
  std::int32_t dst;       ///< destination index (see destination())
};

/// A lagged face (cycle-cut or boundary-coupled) as the programs see it:
/// workspace slot paired with its LaggedFluxStore slot. `scale` multiplies
/// the stored old-iterate value on every seed/restore — 1.0 for cycle cuts
/// (bitwise-neutral) and the side's albedo for reflecting-boundary reads.
struct LaggedSlot {
  std::int32_t ws_slot;     ///< dense FaceFluxWorkspace slot of the face
  std::int32_t store_slot;  ///< LaggedFluxStore slot (group-strided)
  double scale = 1.0;       ///< seed multiplier (albedo; 1.0 = neutral)
};

/// A reflecting/albedo boundary face this task *reads*: angle m's incoming
/// value at the face is `scale ×` the mirror angle's previous-sweep outflow,
/// seeded from the mirror angle's store slot before any vertex computes.
struct BoundaryRead {
  std::int64_t face;        ///< global boundary face id (incoming side)
  std::int32_t store_slot;  ///< mirror angle's LaggedFluxStore slot
  double scale;             ///< the side's albedo
};

/// A reflecting/albedo boundary face vertex `v` *writes*: its freshly
/// computed outflow is staged into this angle's own store slot for the next
/// sweep's mirror-angle seed.
struct BoundaryWrite {
  std::int32_t v;           ///< local writer vertex
  std::int64_t face;        ///< global boundary face id (outgoing side)
  std::int32_t store_slot;  ///< this angle's LaggedFluxStore slot
};

/// Reflecting/albedo boundary coupling of one (patch, angle) task, store
/// slots pre-resolved by the plan build (sweep/plan.cpp). The coupling is
/// always lagged one sweep — it adds no graph edges, so schedules and
/// bitwise determinism are untouched; seeds/stages ride the exact
/// LaggedFluxStore protocol cycle cuts use.
struct BoundaryCoupling {
  std::vector<BoundaryRead> reads;    ///< incoming faces to seed
  std::vector<BoundaryWrite> writes;  ///< outgoing faces to stage
  /// True when the coupling carries no faces (all-vacuum patch boundary).
  [[nodiscard]] bool empty() const { return reads.empty() && writes.empty(); }
};

/// Immutable per-(patch, structure class) sweep structure (see \ref
/// sweep_data.hpp): the dependency graph in CSR form plus the dense
/// face-flux index. Shared read-only by every (angle, group) program of the
/// class and by every engine — built once, reused across all iterations.
class SweepTaskData {
 public:
  /// `disc`, `ps` and `lagged` must outlive the task data; `lagged` may be
  /// null iff the graph has no lagged edges and `boundary` is null/empty.
  /// `boundary` (optional, copied) adds the task's reflecting/albedo
  /// boundary faces to the lagged seed/stage lists.
  SweepTaskData(graph::PatchTaskGraph g,
                graph::PriorityStrategy vertex_strategy,
                const sn::Discretization& disc,
                const partition::PatchSet& ps, const sn::Ordinate& ordinate,
                const LaggedFluxStore* lagged = nullptr,
                const BoundaryCoupling* boundary = nullptr);

  /// Graph-only form for consumers that replay the DAG without sweeping
  /// (e.g. the simulator's transfer-curve extraction): no dense face index
  /// is built, so the task cannot back a sweep program.
  SweepTaskData(graph::PatchTaskGraph g,
                graph::PriorityStrategy vertex_strategy);

  /// The underlying dependency graph. Its `angle` is the direction it was
  /// built for — on shared data, one representative of the class.
  [[nodiscard]] const graph::PatchTaskGraph& graph() const { return graph_; }
  /// Patch this task sweeps.
  [[nodiscard]] PatchId patch() const { return graph_.patch; }
  /// Local vertices (= cells of the patch).
  [[nodiscard]] std::int32_t num_vertices() const {
    return graph_.num_vertices;
  }

  /// Local downwind edges of vertex v.
  template <class Fn>
  void for_out_local(std::int32_t v, Fn&& fn) const {
    for (auto e = out_off_[static_cast<std::size_t>(v)];
         e < out_off_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(out_[static_cast<std::size_t>(e)]);
  }

  /// Remote downwind edges of vertex v (slot-resolved).
  template <class Fn>
  void for_out_remote(std::int32_t v, Fn&& fn) const {
    for (auto e = rout_off_[static_cast<std::size_t>(v)];
         e < rout_off_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(rout_[static_cast<std::size_t>(e)]);
  }

  /// Per-vertex initial dependency counts (local upwind + remote-in).
  [[nodiscard]] const std::vector<std::int32_t>& initial_counts() const {
    return graph_.initial_counts;
  }
  /// Scheduling priority of vertex v within this program.
  [[nodiscard]] double vertex_priority(std::int32_t v) const {
    return vprio_[static_cast<std::size_t>(v)];
  }
  /// Total remote downwind edges (= max stream items per sweep).
  [[nodiscard]] std::int64_t num_remote_out() const {
    return static_cast<std::int64_t>(rout_.size());
  }

  // --- Dense face-flux index --------------------------------------------
  /// Workspace size this task needs (every touchable face has one slot).
  [[nodiscard]] std::int64_t num_flux_slots() const { return num_slots_; }
  /// Precomputed slots of the faces vertex v's cell touches.
  [[nodiscard]] const sn::CellFaceSlots& cell_slots(std::int32_t v) const {
    return cell_slots_[static_cast<std::size_t>(v)];
  }
  /// Slot of an incoming remote face (stream input path; binary search
  /// over the sorted remote-in face list — no hashing).
  [[nodiscard]] std::int32_t slot_of_remote_in(std::int64_t face) const;

  // --- Stream destinations ----------------------------------------------
  /// Distinct downwind patches, ascending by id; RemoteOut::dst indexes
  /// this list.
  [[nodiscard]] std::int32_t num_destinations() const {
    return static_cast<std::int32_t>(dst_patches_.size());
  }
  /// Destination patch at index d (ascending patch id).
  [[nodiscard]] PatchId destination(std::int32_t d) const {
    return dst_patches_[static_cast<std::size_t>(d)];
  }
  /// Upper bound of items ever buffered for destination d in one sweep
  /// (= its remote-edge count): the reserve() size that makes per-batch
  /// buffering allocation-free after the first sweep.
  [[nodiscard]] std::int64_t destination_capacity(std::int32_t d) const {
    return dst_capacity_[static_cast<std::size_t>(d)];
  }

  // --- Lagged (cycle-cut / boundary-coupled) structure ------------------
  /// True when this task carries lagged faces — cycle-cut edges in the
  /// graph or reflecting/albedo boundary faces — so programs must seed and
  /// stage against the LaggedFluxStore.
  [[nodiscard]] bool has_lagged() const { return any_lagged_; }
  /// Faces whose old-iterate value must be seeded into the workspace
  /// before any vertex computes (read side of every lagged edge this patch
  /// sees), resolved to (workspace, store) slot pairs.
  [[nodiscard]] const std::vector<LaggedSlot>& lagged_seed_slots() const {
    return lagged_seed_;
  }
  /// Lagged faces *written* by vertex v (the upwind side of a cut edge):
  /// their freshly computed flux must be staged for the next sweep and the
  /// old value restored, so downstream reads stay order-independent. Only
  /// valid when has_lagged(): lag-free tasks store no per-vertex offsets.
  template <class Fn>
  void for_lagged_writes(std::int32_t v, Fn&& fn) const {
    for (auto e = lag_off_[static_cast<std::size_t>(v)];
         e < lag_off_[static_cast<std::size_t>(v) + 1]; ++e)
      fn(lag_slots_[static_cast<std::size_t>(e)]);
  }

  /// Process-wide count of SweepTaskData instances ever constructed. Task
  /// graphs and the dense face-slot interning are built only here, so this
  /// counter staying flat across solves proves a shared SweepPlan is being
  /// reused rather than rebuilt (plan-reuse allocation-gate tests).
  [[nodiscard]] static std::int64_t total_created();

 private:
  SweepTaskData(graph::PatchTaskGraph g,
                graph::PriorityStrategy vertex_strategy,
                const sn::Discretization* disc,
                const partition::PatchSet* ps, const sn::Ordinate* ordinate,
                const LaggedFluxStore* lagged,
                const BoundaryCoupling* boundary);

  graph::PatchTaskGraph graph_;
  std::vector<std::int64_t> out_off_;
  std::vector<OutLocal> out_;
  std::vector<std::int64_t> rout_off_;
  std::vector<RemoteOut> rout_;
  std::vector<double> vprio_;

  std::int64_t num_slots_ = 0;
  std::vector<sn::CellFaceSlots> cell_slots_;
  std::vector<std::pair<std::int64_t, std::int32_t>> remote_in_slots_;
  std::vector<PatchId> dst_patches_;
  std::vector<std::int64_t> dst_capacity_;

  std::vector<LaggedSlot> lagged_seed_;
  std::vector<std::int64_t> lag_off_;
  std::vector<LaggedSlot> lag_slots_;
  bool any_lagged_ = false;
};

}  // namespace jsweep::sweep
