#include "sweep/coarsened_program.hpp"

#include <algorithm>

#include "support/check.hpp"
#include "sweep/group_pipeline.hpp"

namespace jsweep::sweep {

CoarsenedSweepData::CoarsenedSweepData(const SweepTaskData& fine,
                                       std::vector<std::int32_t> cluster_of,
                                       std::int32_t num_clusters)
    : fine_(fine),
      cluster_of_(std::move(cluster_of)),
      num_clusters_(num_clusters) {
  const auto n = fine_.num_vertices();
  JSWEEP_CHECK(static_cast<std::int32_t>(cluster_of_.size()) == n);
  JSWEEP_CHECK(num_clusters_ > 0);

  members_.resize(static_cast<std::size_t>(num_clusters_));
  for (std::int32_t v = 0; v < n; ++v) {
    const auto c = cluster_of_[static_cast<std::size_t>(v)];
    JSWEEP_CHECK_MSG(c >= 0 && c < num_clusters_,
                     "vertex " << v << " not clustered (run recorded?)");
  }
  // Members must be listed in the recorded *execution* order, which is the
  // order vertices were popped — we reconstruct it per cluster by a local
  // topological pass restricted to the cluster (any topological order of
  // the cluster's internal sub-DAG is a valid execution order).
  {
    // In-degree restricted to intra-cluster edges.
    std::vector<std::int32_t> indeg(static_cast<std::size_t>(n), 0);
    for (std::int32_t u = 0; u < n; ++u) {
      const auto cu = cluster_of_[static_cast<std::size_t>(u)];
      fine_.for_out_local(u, [&](const OutLocal& e) {
        JSWEEP_CHECK_MSG(
            cu <= cluster_of_[static_cast<std::size_t>(e.w)],
            "recorded clustering violates execution order on edge "
                << u << "→" << e.w);
        if (cluster_of_[static_cast<std::size_t>(e.w)] == cu)
          ++indeg[static_cast<std::size_t>(e.w)];
      });
    }
    std::vector<std::vector<std::int32_t>> frontier(
        static_cast<std::size_t>(num_clusters_));
    for (std::int32_t v = 0; v < n; ++v)
      if (indeg[static_cast<std::size_t>(v)] == 0)
        frontier[static_cast<std::size_t>(
                     cluster_of_[static_cast<std::size_t>(v)])]
            .push_back(v);
    for (std::int32_t c = 0; c < num_clusters_; ++c) {
      auto& order = members_[static_cast<std::size_t>(c)];
      auto& ready = frontier[static_cast<std::size_t>(c)];
      // Deterministic pop order: ascending vertex id.
      std::sort(ready.begin(), ready.end(), std::greater<>());
      while (!ready.empty()) {
        const auto v = ready.back();
        ready.pop_back();
        order.push_back(v);
        fine_.for_out_local(v, [&](const OutLocal& e) {
          if (cluster_of_[static_cast<std::size_t>(e.w)] == c &&
              --indeg[static_cast<std::size_t>(e.w)] == 0) {
            // Insert keeping descending order (small clusters: linear ok).
            const auto it = std::lower_bound(ready.begin(), ready.end(), e.w,
                                             std::greater<>());
            ready.insert(it, e.w);
          }
        });
      }
    }
    std::int64_t placed = 0;
    for (const auto& m : members_) placed += static_cast<std::int64_t>(m.size());
    JSWEEP_CHECK_MSG(placed == n, "cluster-internal cycle detected");
  }

  // Coarse edges (deduplicated) and initial counts.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  for (std::int32_t u = 0; u < n; ++u) {
    const auto cu = cluster_of_[static_cast<std::size_t>(u)];
    fine_.for_out_local(u, [&](const OutLocal& e) {
      const auto cw = cluster_of_[static_cast<std::size_t>(e.w)];
      if (cu != cw) edges.emplace_back(cu, cw);
    });
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  succ_off_.assign(static_cast<std::size_t>(num_clusters_) + 1, 0);
  for (const auto& [cu, cw] : edges)
    ++succ_off_[static_cast<std::size_t>(cu) + 1];
  for (std::size_t i = 1; i < succ_off_.size(); ++i)
    succ_off_[i] += succ_off_[i - 1];
  succ_.resize(edges.size());
  {
    std::vector<std::int64_t> cursor(succ_off_.begin(), succ_off_.end() - 1);
    for (const auto& [cu, cw] : edges)
      succ_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(cu)]++)] =
          cw;
  }

  initial_counts_.assign(static_cast<std::size_t>(num_clusters_), 0);
  for (const auto& [cu, cw] : edges)
    ++initial_counts_[static_cast<std::size_t>(cw)];
  for (const auto& e : fine_.graph().remote_in)
    ++initial_counts_[static_cast<std::size_t>(
        cluster_of_[static_cast<std::size_t>(e.v)])];
}

CoarsenedSweepProgram::CoarsenedSweepProgram(const CoarsenedSweepData& data,
                                             const SweepShared& shared,
                                             AngleId angle, GroupId group)
    : core::PatchProgram(data.fine().patch(),
                         sweep_task_tag(angle, group,
                                        shared.quad->num_angles())),
      data_(data),
      shared_(shared),
      angle_(angle),
      group_(group),
      fine_vertices_(data.fine().num_vertices()) {
  JSWEEP_CHECK(angle_.valid() && angle_.value() < shared_.quad->num_angles());
  JSWEEP_CHECK_MSG(group_.value() == 0 || shared_.pipeline != nullptr,
                   "group > 0 programs need a GroupPipeline");
  if (shared_.pipeline != nullptr) {
    JSWEEP_CHECK(group_.value() < shared_.pipeline->num_sets());
    set_width_ = shared_.pipeline->set_width_of(group_);
    group_base_ = shared_.pipeline->set_base(group_);
  }
}

void CoarsenedSweepProgram::init() {
  counts_ = data_.initial_counts();
  ready_.reset(data_.num_clusters());
  for (std::int32_t c = 0; c < data_.num_clusters(); ++c)
    if (counts_[static_cast<std::size_t>(c)] == 0) ready_.push(c);
  lease_.reset_for_run(shared_);
  if (set_width_ > 1)
    prepare_set_out_buffers(data_.fine(), set_width_, out_records_,
                            out_lanes_, pending_);
  else
    prepare_out_buffers(data_.fine(), out_items_, pending_);
  phi_.assign(static_cast<std::size_t>(fine_vertices_) *
                  static_cast<std::size_t>(set_width_),
              0.0);
  computed_ = 0;
  gate_open_ = shared_.pipeline == nullptr || group_ == GroupId{0};
  completion_reported_ = false;
}

void CoarsenedSweepProgram::input(const core::Stream& s) {
  JSWEEP_CHECK(s.dst == key());
  JSWEEP_CHECK_MSG(computed_ < fine_vertices_,
                   "stream delivered to " << key()
                                          << " after it retired all work");
  if (s.data.empty()) {  // group-activation marker: sources are ready
    gate_open_ = true;
    if (shared_.pipeline != nullptr)
      shared_.pipeline->note_gate_opened(data_.fine().patch(), group_);
    return;
  }
  sn::FaceFluxWorkspace& flux =
      lease_.ensure(shared_, data_.fine(), lag_group(), set_width_);
  const auto vertex_of = [&](std::int64_t dst_cell) {
    return shared_.patches->local_index(CellId{dst_cell});
  };
  const auto deliver = [&](std::int32_t v) {
    const auto c = data_.cluster_of()[static_cast<std::size_t>(v)];
    auto& count = counts_[static_cast<std::size_t>(c)];
    JSWEEP_CHECK_MSG(count > 0, "coarse dependency underflow at cluster "
                                    << c);
    if (--count == 0) ready_.push(c);
  };
  if (set_width_ > 1) {
    for_each_set_item(
        s.data, set_width_,
        [&](std::int64_t cell, std::int64_t face, const double* lanes) {
          const std::int32_t v = vertex_of(cell);
          const std::int32_t slot = data_.fine().slot_of_remote_in(v, face);
          for (int l = 0; l < set_width_; ++l)
            flux.write(slot * set_width_ + l, lanes[l]);
          deliver(v);
        });
  } else {
    for_each_item(s.data, [&](const StreamItem& item) {
      const std::int32_t v = vertex_of(item.cell);
      flux.write(data_.fine().slot_of_remote_in(v, item.face), item.value);
      deliver(v);
    });
  }
}

void CoarsenedSweepProgram::compute() {
  if (!gate_open_ || ready_.empty()) return;
  sn::FaceFluxWorkspace& flux =
      lease_.ensure(shared_, data_.fine(), lag_group(), set_width_);
  const std::int32_t c = ready_.pop();

  const sn::Ordinate& ang = shared_.quad->angle(angle_.value());
  const sn::Discretization* disc = shared_.disc;
  const std::vector<double>* q_ptr = shared_.q_per_ster;
  const double* sigma_t_lanes = nullptr;
  if (shared_.pipeline != nullptr) {
    disc = shared_.pipeline->group_disc(GroupId{group_base_});
    q_ptr = &shared_.pipeline->q_set(group_);
    sigma_t_lanes = shared_.pipeline->sigma_t_set(group_).data();
  }
  const std::vector<double>& q = *q_ptr;
  const auto& cells = shared_.patches->cells(key().patch);
  const SweepTaskData& fine = data_.fine();

  for (const auto v : data_.members(c)) {
    const CellId cell = cells[static_cast<std::size_t>(v)];
    if (set_width_ > 1) {
      const sn::FaceFluxSetView view{&flux, &fine.cell_slots(v), set_width_};
      double psi[sn::kMaxGroupSetWidth];
      disc->sweep_cell_set(cell, ang, set_width_, q.data(), sigma_t_lanes,
                           view, psi);
      for (int l = 0; l < set_width_; ++l)
        phi_[static_cast<std::size_t>(v) *
                 static_cast<std::size_t>(set_width_) +
             static_cast<std::size_t>(l)] = ang.weight * psi[l];
    } else {
      const sn::FaceFluxView view{&flux, &fine.cell_slots(v)};
      const double psi = disc->sweep_cell(cell, ang, q, view);
      phi_[static_cast<std::size_t>(v)] = ang.weight * psi;
    }
    ++computed_;
    if (set_width_ > 1) {
      fine.for_out_remote(v, [&](const RemoteOut& e) {
        out_records_[static_cast<std::size_t>(e.dst)].push_back(
            SetStreamRecord{e.dst_cell, e.face});
        auto& lanes = out_lanes_[static_cast<std::size_t>(e.dst)];
        for (int l = 0; l < set_width_; ++l)
          lanes.push_back(flux.read(e.slot * set_width_ + l));
      });
    } else {
      fine.for_out_remote(v, [&](const RemoteOut& e) {
        out_items_[static_cast<std::size_t>(e.dst)].push_back(
            StreamItem{e.dst_cell, e.face, flux.read(e.slot)});
      });
    }
    stage_lagged_writes(fine, shared_.lagged, lag_group(), v, flux,
                        set_width_);
  }
  data_.for_succ(c, [&](std::int32_t succ) {
    if (--counts_[static_cast<std::size_t>(succ)] == 0) ready_.push(succ);
  });

  if (set_width_ > 1)
    flush_set_out_streams(fine, shared_, set_width_, key(), out_records_,
                          out_lanes_, pending_);
  else
    flush_out_streams(fine, shared_, key(), out_items_, pending_);
  const bool done = computed_ == fine_vertices_;
  lease_.release_if(done, shared_);
  if (done && !completion_reported_ && shared_.pipeline != nullptr) {
    completion_reported_ = true;
    shared_.pipeline->on_program_complete(fine.patch(), group_, key(),
                                          pending_);
  }
}

std::optional<core::Stream> CoarsenedSweepProgram::output() {
  if (pending_.empty()) return std::nullopt;
  core::Stream s = std::move(pending_.back());
  pending_.pop_back();
  return s;
}

bool CoarsenedSweepProgram::vote_to_halt() {
  return !gate_open_ || ready_.empty();
}

}  // namespace jsweep::sweep
