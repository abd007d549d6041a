#pragma once

/// \file priority.hpp
/// The paper's priority strategies (Sec. V-D), usable at both levels of the
/// two-level hierarchy:
///   - vertex level: orders ready vertices inside one patch-program;
///   - patch level:  orders active patch-programs on a rank.
///
/// Strategies (higher priority value = scheduled earlier):
///   BFS   breadth-first level from the DAG's sources: upwind first, favors
///         exposing parallelism early;
///   LDCP  longest distance on critical path: vertices with the longest
///         remaining downstream chain first (structured meshes);
///   SLBD  shortest local boundary distance: vertices nearest (in sweep
///         direction) to a cross-patch boundary first, so streams leave the
///         patch as soon as possible (a DFS-flavored strategy; the paper's
///         best performer).

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/digraph.hpp"
#include "graph/sweep_dag.hpp"

namespace jsweep::graph {

/// Priority strategy selector (see the file comment for semantics).
enum class PriorityStrategy {
  None,  ///< no ordering hint (FIFO)
  BFS,   ///< breadth-first levels, upwind first
  LDCP,  ///< longest distance on critical path
  SLBD,  ///< shortest local boundary distance (the paper's default)
};

/// Lower-case name of a strategy ("none", "bfs", "ldcp", "slbd").
[[nodiscard]] std::string to_string(PriorityStrategy s);
/// Parse a strategy name (inverse of to_string; unknown names throw).
[[nodiscard]] PriorityStrategy priority_from_string(const std::string& name);

/// BFS level of every vertex (sources = level 0), following edges forward.
/// Tolerates cycles: cycle members are never enqueued by the Kahn
/// wavefront, but may still inherit nonzero levels relaxed from upstream
/// acyclic vertices — levels are scheduling hints, not cycle detection.
std::vector<std::int32_t> bfs_levels(const Digraph& g);

/// Length (in edges) of the longest path from each vertex to any sink.
/// Requires an acyclic graph; vertex_priorities/patch_priorities fall back
/// to SCC-condensation depths on cyclic graphs instead of calling this.
std::vector<std::int32_t> ldcp_depths(const Digraph& g);

/// Shortest forward distance from each vertex to any vertex in `targets`
/// (distance 0 for target vertices; INT32_MAX when unreachable).
std::vector<std::int32_t> forward_distance_to(const Digraph& g,
                                              const std::vector<char>& targets);

/// SLBD priority of a vertex from which no boundary vertex is reachable:
/// below every finite priority, since it cannot unblock another patch.
inline constexpr double kUnreachablePriority =
    -static_cast<double>(std::numeric_limits<std::int32_t>::max());

/// Vertex priorities for one patch task graph. `strategy` maps to:
///   BFS  : -level        (upwind levels first)
///   LDCP : +depth        (longest remaining chain first)
///   SLBD : -distance to a vertex with a remote outgoing edge, or
///          kUnreachablePriority when no such vertex is downwind
///   None : 0 everywhere  (FIFO order)
/// Every value is an integer, and the finite ones span fewer values than
/// the graph has vertices.
std::vector<double> vertex_priorities(PriorityStrategy strategy,
                                      const PatchTaskGraph& g);

/// Patch priorities for one direction's patch-level digraph (same
/// semantics, with SLBD's boundary set = patches that feed other patches).
std::vector<double> patch_priorities(PriorityStrategy strategy,
                                     const Digraph& patch_graph);

/// The C of the paper's combined (patch, angle) priority
///   prior(p, a) = prior(a) * C + prior(p),
/// large enough that angle priority always dominates.
inline constexpr double kAngleFactor = 1e8;

/// The combined (patch, angle) priority (see kAngleFactor).
[[nodiscard]] inline double combined_priority(double angle_prior,
                                              double patch_prior) {
  return angle_prior * kAngleFactor + patch_prior;
}

}  // namespace jsweep::graph
