#include "graph/coarsen.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <utility>

#include "support/check.hpp"

namespace jsweep::graph {

CoarsenedGraph coarsen(const Digraph& fine,
                       const std::vector<std::int32_t>& cluster_of,
                       std::int32_t num_clusters) {
  const auto n = fine.num_vertices();
  JSWEEP_CHECK(static_cast<std::int32_t>(cluster_of.size()) == n);
  JSWEEP_CHECK(num_clusters > 0);
  const auto cluster = [&](std::int32_t v) {
    return cluster_of[static_cast<std::size_t>(v)];
  };
  for (std::int32_t v = 0; v < n; ++v)
    JSWEEP_CHECK_MSG(cluster(v) >= 0 && cluster(v) < num_clusters,
                     "vertex " << v << " in cluster " << cluster(v));

  // One pass over the fine edges: check the execution-order premise,
  // collect the inter-cluster edges and count each vertex's intra-cluster
  // predecessors.
  std::vector<std::pair<std::int32_t, std::int32_t>> edges;
  std::vector<std::int32_t> internal_preds(static_cast<std::size_t>(n), 0);
  for (std::int32_t u = 0; u < n; ++u) {
    fine.for_out(u, [&](std::int32_t v) {
      JSWEEP_CHECK_MSG(cluster(u) <= cluster(v),
                       "fine edge (" << u << "→" << v
                                     << ") goes backward in cluster order: "
                                     << cluster(u) << "→" << cluster(v));
      if (cluster(u) == cluster(v))
        ++internal_preds[static_cast<std::size_t>(v)];
      else
        edges.emplace_back(cluster(u), cluster(v));
    });
  }
  std::sort(edges.begin(), edges.end());
  edges.erase(std::unique(edges.begin(), edges.end()), edges.end());

  CoarsenedGraph cg;
  cg.num_clusters = num_clusters;
  cg.coarse = Digraph(num_clusters, edges);

  // P(CV): Kahn's algorithm on the intra-cluster edges, lowest ready id
  // first. Those edges never cross clusters, so each cluster's members come
  // out in a topological order of its own sub-DAG, ties to the lowest id.
  cg.members.resize(static_cast<std::size_t>(num_clusters));
  std::priority_queue<std::int32_t, std::vector<std::int32_t>, std::greater<>>
      ready;
  for (std::int32_t v = 0; v < n; ++v)
    if (internal_preds[static_cast<std::size_t>(v)] == 0) ready.push(v);
  std::int32_t placed = 0;
  while (!ready.empty()) {
    const std::int32_t v = ready.top();
    ready.pop();
    cg.members[static_cast<std::size_t>(cluster(v))].push_back(v);
    ++placed;
    fine.for_out(v, [&](std::int32_t w) {
      if (cluster(w) == cluster(v) &&
          --internal_preds[static_cast<std::size_t>(w)] == 0)
        ready.push(w);
    });
  }
  JSWEEP_CHECK_MSG(placed == n, "the fine graph has a cycle inside a cluster");
  return cg;
}

}  // namespace jsweep::graph
