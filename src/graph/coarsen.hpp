#pragma once

/// \file coarsen.hpp
/// Coarsened graph (Sec. V-E): cache the vertex-clustering decisions of a
/// first data-driven sweep and replay later iterations on the much smaller
/// cluster-level task graph. The coarse graph CG = (CV, CE, P(CV)) carries
/// per cluster P(cv), the fine vertices it executes, in an order that
/// respects every intra-cluster edge.
///
/// Theorem 1 of the paper: if the fine graph is acyclic and clusters are
/// formed by a valid execution (cluster indices never decrease along fine
/// edges), the coarsened graph is acyclic. `coarsen` checks the premise and
/// the test suite property-tests the conclusion.

#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"

namespace jsweep::graph {

/// The property graph CG = (CV, CE, P(CV)) produced by coarsen().
struct CoarsenedGraph {
  std::int32_t num_clusters = 0;  ///< |CV|
  Digraph coarse;  ///< cluster-level DAG (deduplicated edges)
  /// P(CV): fine vertices per cluster, in execution order — a topological
  /// order of the cluster's internal edges, ties broken by lowest id.
  std::vector<std::vector<std::int32_t>> members;
};

/// Build the coarsened graph from a cluster assignment. `cluster_of[v]`
/// must be in [0, num_clusters) for every fine vertex, and for every fine
/// edge (u, v), cluster_of[u] <= cluster_of[v] (the condition a sequential
/// patch-program execution guarantees); violations throw. Intra-cluster
/// edges are absorbed into the cluster.
CoarsenedGraph coarsen(const Digraph& fine,
                       const std::vector<std::int32_t>& cluster_of,
                       std::int32_t num_clusters);

}  // namespace jsweep::graph
