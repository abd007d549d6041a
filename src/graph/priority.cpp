#include "graph/priority.hpp"

#include <algorithm>
#include <deque>
#include <limits>

#include "graph/scc.hpp"
#include "support/check.hpp"

namespace jsweep::graph {

std::string to_string(PriorityStrategy s) {
  switch (s) {
    case PriorityStrategy::None: return "None";
    case PriorityStrategy::BFS: return "BFS";
    case PriorityStrategy::LDCP: return "LDCP";
    case PriorityStrategy::SLBD: return "SLBD";
  }
  return "?";
}

PriorityStrategy priority_from_string(const std::string& name) {
  if (name == "None") return PriorityStrategy::None;
  if (name == "BFS") return PriorityStrategy::BFS;
  if (name == "LDCP") return PriorityStrategy::LDCP;
  if (name == "SLBD") return PriorityStrategy::SLBD;
  JSWEEP_CHECK_MSG(false, "unknown priority strategy '" << name << "'");
  return PriorityStrategy::None;
}

std::vector<std::int32_t> bfs_levels(const Digraph& g) {
  const auto n = g.num_vertices();
  auto deg = g.in_degrees();
  std::vector<std::int32_t> level(static_cast<std::size_t>(n), 0);
  std::deque<std::int32_t> ready;
  for (std::int32_t v = 0; v < n; ++v)
    if (deg[static_cast<std::size_t>(v)] == 0) ready.push_back(v);
  // Level = longest distance from any source along the Kahn wavefronts.
  while (!ready.empty()) {
    const auto v = ready.front();
    ready.pop_front();
    g.for_out(v, [&](std::int32_t u) {
      level[static_cast<std::size_t>(u)] =
          std::max(level[static_cast<std::size_t>(u)],
                   level[static_cast<std::size_t>(v)] + 1);
      if (--deg[static_cast<std::size_t>(u)] == 0) ready.push_back(u);
    });
  }
  return level;
}

namespace {

/// Longest-path-to-sink depths given a precomputed topological order.
std::vector<std::int32_t> depths_from_order(
    const Digraph& g, const std::vector<std::int32_t>& order) {
  std::vector<std::int32_t> depth(static_cast<std::size_t>(g.num_vertices()),
                                  0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const auto v = *it;
    g.for_out(v, [&](std::int32_t u) {
      depth[static_cast<std::size_t>(v)] =
          std::max(depth[static_cast<std::size_t>(v)],
                   depth[static_cast<std::size_t>(u)] + 1);
    });
  }
  return depth;
}

}  // namespace

std::vector<std::int32_t> ldcp_depths(const Digraph& g) {
  const auto order = g.topological_order();
  JSWEEP_CHECK_MSG(order.has_value(), "LDCP requires an acyclic graph");
  return depths_from_order(g, *order);
}

std::vector<std::int32_t> forward_distance_to(
    const Digraph& g, const std::vector<char>& targets) {
  const auto n = g.num_vertices();
  JSWEEP_CHECK(static_cast<std::int32_t>(targets.size()) == n);
  constexpr auto kInf = std::numeric_limits<std::int32_t>::max();
  std::vector<std::int32_t> dist(static_cast<std::size_t>(n), kInf);
  // Multi-source BFS on the reversed graph.
  const Digraph rev = g.reversed();
  std::deque<std::int32_t> queue;
  for (std::int32_t v = 0; v < n; ++v) {
    if (targets[static_cast<std::size_t>(v)]) {
      dist[static_cast<std::size_t>(v)] = 0;
      queue.push_back(v);
    }
  }
  while (!queue.empty()) {
    const auto v = queue.front();
    queue.pop_front();
    rev.for_out(v, [&](std::int32_t u) {
      if (dist[static_cast<std::size_t>(u)] == kInf) {
        dist[static_cast<std::size_t>(u)] =
            dist[static_cast<std::size_t>(v)] + 1;
        queue.push_back(u);
      }
    });
  }
  return dist;
}

namespace {

std::vector<double> priorities_impl(PriorityStrategy strategy,
                                    const Digraph& g,
                                    const std::vector<char>& boundary) {
  const auto n = static_cast<std::size_t>(g.num_vertices());
  std::vector<double> prio(n, 0.0);
  switch (strategy) {
    case PriorityStrategy::None:
      break;
    case PriorityStrategy::BFS: {
      const auto level = bfs_levels(g);
      for (std::size_t v = 0; v < n; ++v) prio[v] = -level[v];
      break;
    }
    case PriorityStrategy::LDCP: {
      if (const auto order = g.topological_order(); order) {
        const auto depth = depths_from_order(g, *order);
        for (std::size_t v = 0; v < n; ++v) prio[v] = depth[v];
      } else {
        // Cyclic graph (a patch-level graph over a cyclic mesh): fall back
        // to critical-path depths on the SCC condensation — every vertex
        // of one component shares its component's depth.
        const auto scc = strongly_connected_components(g);
        const auto depth = ldcp_depths(condensation(g, scc));
        for (std::size_t v = 0; v < n; ++v)
          prio[v] = depth[static_cast<std::size_t>(scc.component_of[v])];
      }
      break;
    }
    case PriorityStrategy::SLBD: {
      const auto dist = forward_distance_to(g, boundary);
      constexpr auto kInf = std::numeric_limits<std::int32_t>::max();
      for (std::size_t v = 0; v < n; ++v) {
        // Unreachable-from-boundary vertices (interior sinks) get the
        // lowest priority: they can't unblock anyone else.
        prio[v] = dist[v] == kInf ? kUnreachablePriority : -dist[v];
      }
      break;
    }
  }
  return prio;
}

}  // namespace

std::vector<double> vertex_priorities(PriorityStrategy strategy,
                                      const PatchTaskGraph& g) {
  std::vector<char> boundary(static_cast<std::size_t>(g.num_vertices), 0);
  for (const auto& e : g.remote_out)
    boundary[static_cast<std::size_t>(e.u)] = 1;
  return priorities_impl(strategy, g.local, boundary);
}

std::vector<double> patch_priorities(PriorityStrategy strategy,
                                     const Digraph& patch_graph) {
  std::vector<char> boundary(
      static_cast<std::size_t>(patch_graph.num_vertices()), 0);
  // SLBD at patch level: boundary = patches that feed another patch.
  for (std::int32_t p = 0; p < patch_graph.num_vertices(); ++p)
    if (patch_graph.out_degree(p) > 0)
      boundary[static_cast<std::size_t>(p)] = 1;
  return priorities_impl(strategy, patch_graph, boundary);
}

}  // namespace jsweep::graph
