#include "sweep/sweep_data.hpp"

#include <algorithm>
#include <atomic>
#include <unordered_map>

#include "support/check.hpp"

namespace jsweep::sweep {

namespace {
/// See SweepTaskData::total_created(): instances ever built, process-wide.
std::atomic<std::int64_t> g_task_data_created{0};
}  // namespace

std::int64_t SweepTaskData::total_created() {
  return g_task_data_created.load(std::memory_order_relaxed);
}

SweepTaskData::SweepTaskData(graph::PatchTaskGraph g,
                             graph::PriorityStrategy vertex_strategy)
    : SweepTaskData(std::move(g), vertex_strategy, nullptr, nullptr, nullptr,
                    nullptr, nullptr) {}

SweepTaskData::SweepTaskData(graph::PatchTaskGraph g,
                             graph::PriorityStrategy vertex_strategy,
                             const sn::Discretization& disc,
                             const partition::PatchSet& ps,
                             const sn::Ordinate& ordinate,
                             const LaggedFluxStore* lagged,
                             const BoundaryCoupling* boundary)
    : SweepTaskData(std::move(g), vertex_strategy, &disc, &ps, &ordinate,
                    lagged, boundary) {}

SweepTaskData::SweepTaskData(graph::PatchTaskGraph g,
                             graph::PriorityStrategy vertex_strategy,
                             const sn::Discretization* disc,
                             const partition::PatchSet* ps,
                             const sn::Ordinate* ordinate,
                             const LaggedFluxStore* lagged,
                             const BoundaryCoupling* boundary)
    : graph_(std::move(g)) {
  g_task_data_created.fetch_add(1, std::memory_order_relaxed);
  const auto n = static_cast<std::size_t>(graph_.num_vertices);
  const bool dense = disc != nullptr;
  const bool has_boundary = boundary != nullptr && !boundary->empty();
  any_lagged_ = graph_.has_lagged() || has_boundary;
  JSWEEP_CHECK_MSG(!any_lagged_ || (lagged != nullptr && dense),
                   "task graph has lagged edges but no LaggedFluxStore");

  // Local out-edges with faces, CSR by source vertex.
  out_off_.assign(n + 1, 0);
  for (const auto& e : graph_.local_edges)
    ++out_off_[static_cast<std::size_t>(e.u) + 1];
  for (std::size_t i = 1; i < out_off_.size(); ++i)
    out_off_[i] += out_off_[i - 1];
  out_.resize(graph_.local_edges.size());
  {
    std::vector<std::int64_t> cursor(out_off_.begin(), out_off_.end() - 1);
    for (const auto& e : graph_.local_edges)
      out_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(e.u)]++)] =
          {e.v, e.face};
  }

  // Dense face-flux index: intern every face the kernel can touch for any
  // local cell (upwind reads — including lagged and remote-in faces —,
  // interior faces, downwind writes including domain-boundary outflow).
  // Hashing happens HERE, once at build time; the run-time paths below all
  // carry resolved slots.
  std::unordered_map<std::int64_t, std::int32_t> slot_of;
  const auto intern = [&](std::int64_t face) -> std::int32_t {
    if (face < 0) return sn::CellFaceSlots::kNone;
    const auto [it, inserted] = slot_of.emplace(
        face, static_cast<std::int32_t>(slot_of.size()));
    (void)inserted;
    return it->second;
  };
  if (dense) {
    cell_slots_.resize(n);
    const auto& cells = ps->cells(graph_.patch);
    JSWEEP_CHECK_MSG(cells.size() == n,
                     "patch cell list does not match task vertex count");
    sn::CellFaceIds ids;
    for (std::size_t v = 0; v < n; ++v) {
      disc->face_ids(cells[v], *ordinate, ids);
      for (int k = 0; k < ids.count; ++k) {
        cell_slots_[v].in[static_cast<std::size_t>(k)] =
            intern(ids.in[static_cast<std::size_t>(k)]);
        cell_slots_[v].out[static_cast<std::size_t>(k)] =
            intern(ids.out[static_cast<std::size_t>(k)]);
      }
    }
  }
  const auto resolve = [&](std::int64_t face) -> std::int32_t {
    if (!dense) return sn::CellFaceSlots::kNone;
    const auto it = slot_of.find(face);
    JSWEEP_CHECK_MSG(it != slot_of.end(),
                     "face " << face << " of patch " << graph_.patch
                             << " is not touched by any local cell");
    return it->second;
  };

  // Remote-in faces: sorted (face → slot) table for the stream input path.
  if (dense) {
    remote_in_slots_.reserve(graph_.remote_in.size());
    for (const auto& e : graph_.remote_in)
      remote_in_slots_.emplace_back(e.face, resolve(e.face));
    std::sort(remote_in_slots_.begin(), remote_in_slots_.end());
    remote_in_slots_.erase(
        std::unique(remote_in_slots_.begin(), remote_in_slots_.end()),
        remote_in_slots_.end());
  }

  // Distinct destination patches, ascending (stream emission order must
  // match the old per-destination std::map iteration).
  for (const auto& e : graph_.remote_out) dst_patches_.push_back(e.dst_patch);
  std::sort(dst_patches_.begin(), dst_patches_.end());
  dst_patches_.erase(std::unique(dst_patches_.begin(), dst_patches_.end()),
                     dst_patches_.end());
  dst_capacity_.assign(dst_patches_.size(), 0);
  const auto dst_index = [&](PatchId p) -> std::int32_t {
    const auto it =
        std::lower_bound(dst_patches_.begin(), dst_patches_.end(), p);
    JSWEEP_ASSERT(it != dst_patches_.end() && *it == p);
    return static_cast<std::int32_t>(it - dst_patches_.begin());
  };

  // Remote out-edges, CSR by source vertex, slot- and destination-resolved.
  rout_off_.assign(n + 1, 0);
  for (const auto& e : graph_.remote_out)
    ++rout_off_[static_cast<std::size_t>(e.u) + 1];
  for (std::size_t i = 1; i < rout_off_.size(); ++i)
    rout_off_[i] += rout_off_[i - 1];
  rout_.resize(graph_.remote_out.size());
  {
    std::vector<std::int64_t> cursor(rout_off_.begin(), rout_off_.end() - 1);
    for (const auto& e : graph_.remote_out) {
      const std::int32_t d = dst_index(e.dst_patch);
      ++dst_capacity_[static_cast<std::size_t>(d)];
      rout_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(e.u)]++)] =
          RemoteOut{e.dst_cell, e.face, resolve(e.face), d};
    }
  }

  // Lagged structure: read-side faces to seed (deduplicated — an intra-
  // patch cut edge appears once) and a CSR of write-side faces per vertex,
  // both resolved to (workspace, store) slot pairs. Reflecting/albedo
  // boundary faces join both lists: reads seed `albedo ×` the mirror
  // angle's stored outflow, writes stage this angle's raw outflow.
  const std::int32_t angle_id = graph_.angle.value();
  if (graph_.has_lagged()) {
    std::vector<std::int64_t> seed;
    seed.reserve(graph_.lagged_local.size() + graph_.lagged_in.size());
    for (const auto& e : graph_.lagged_local) seed.push_back(e.face);
    for (const auto& e : graph_.lagged_in) seed.push_back(e.face);
    std::sort(seed.begin(), seed.end());
    seed.erase(std::unique(seed.begin(), seed.end()), seed.end());
    lagged_seed_.reserve(seed.size());
    for (const auto face : seed)
      lagged_seed_.push_back(
          LaggedSlot{resolve(face), lagged->slot_index(angle_id, face)});
  }
  if (has_boundary)
    for (const auto& r : boundary->reads)
      lagged_seed_.push_back(
          LaggedSlot{resolve(r.face), r.store_slot, r.scale});

  // Lag-free tasks keep lag_off_ empty: stage_lagged_writes() never walks
  // them, and the offsets would cost 8·(n+1) bytes per task.
  if (any_lagged_) {
    lag_off_.assign(n + 1, 0);
    for (const auto& e : graph_.lagged_local)
      ++lag_off_[static_cast<std::size_t>(e.u) + 1];
    for (const auto& e : graph_.lagged_out)
      ++lag_off_[static_cast<std::size_t>(e.u) + 1];
    if (has_boundary)
      for (const auto& w : boundary->writes)
        ++lag_off_[static_cast<std::size_t>(w.v) + 1];
    for (std::size_t i = 1; i < lag_off_.size(); ++i)
      lag_off_[i] += lag_off_[i - 1];
    lag_slots_.resize(static_cast<std::size_t>(lag_off_.back()));
    std::vector<std::int64_t> cursor(lag_off_.begin(), lag_off_.end() - 1);
    const auto place = [&](std::int32_t u, std::int64_t face,
                           std::int32_t store_slot) {
      lag_slots_[static_cast<std::size_t>(
          cursor[static_cast<std::size_t>(u)]++)] =
          LaggedSlot{resolve(face), store_slot};
    };
    for (const auto& e : graph_.lagged_local)
      place(e.u, e.face, lagged->slot_index(angle_id, e.face));
    for (const auto& e : graph_.lagged_out)
      place(e.u, e.face, lagged->slot_index(angle_id, e.face));
    if (has_boundary)
      for (const auto& w : boundary->writes) place(w.v, w.face, w.store_slot);
  }

  num_slots_ = static_cast<std::int64_t>(slot_of.size());
  vprio_ = graph::vertex_priorities(vertex_strategy, graph_);
}

std::int32_t SweepTaskData::slot_of_remote_in(std::int64_t face) const {
  const auto it = std::lower_bound(
      remote_in_slots_.begin(), remote_in_slots_.end(), face,
      [](const std::pair<std::int64_t, std::int32_t>& a, std::int64_t f) {
        return a.first < f;
      });
  JSWEEP_CHECK_MSG(it != remote_in_slots_.end() && it->first == face,
                   "stream delivered flux for face "
                       << face << " which patch " << graph_.patch
                       << " never reads");
  return it->second;
}

}  // namespace jsweep::sweep
