// Integration tests for the parallel sweep component: the data-driven
// engine, the BSP baseline and the coarsened replay must all reproduce the
// serial reference exactly, under every configuration.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <numbers>
#include <numeric>
#include <queue>

#include "comm/cluster.hpp"
#include "graph/priority.hpp"
#include "graph/sweep_dag.hpp"
#include "mesh/generators.hpp"
#include "partition/adjacency.hpp"
#include "partition/block_layout.hpp"
#include "partition/graph_partition.hpp"
#include "partition/patch_set.hpp"
#include "sn/serial_sweep.hpp"
#include "sn/source_iteration.hpp"
#include "support/rng.hpp"
#include "sweep/session.hpp"
#include "sweep/sweep_data.hpp"

namespace jsweep::sweep {
namespace {

TEST(LaggedFluxStore, SlotLifecycleAndCommit) {
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    LaggedFluxStore store;
    EXPECT_TRUE(store.empty());
    store.add_slot(0, 100);
    store.add_slot(0, 200);
    store.add_slot(3, 100);  // same face, different angle = distinct slot
    EXPECT_EQ(store.num_slots(), 3);
    // First sweep reads the vacuum iterate.
    EXPECT_EQ(store.prev(0, 100), 0.0);
    // Each "rank" owns disjoint slots.
    if (ctx.rank().value() == 0) {
      store.stage(0, 100, 2.0);
      store.stage(0, 200, 4.0);
    } else {
      store.stage(3, 100, 8.0);
    }
    const double residual = store.commit(ctx);
    EXPECT_DOUBLE_EQ(residual, 8.0);  // identical on every rank
    EXPECT_DOUBLE_EQ(store.prev(0, 100), 2.0);
    EXPECT_DOUBLE_EQ(store.prev(0, 200), 4.0);
    EXPECT_DOUBLE_EQ(store.prev(3, 100), 8.0);
    // A second commit with closer values shrinks the residual.
    if (ctx.rank().value() == 0) {
      store.stage(0, 100, 2.5);
      store.stage(0, 200, 4.0);
    } else {
      store.stage(3, 100, 8.0);
    }
    EXPECT_DOUBLE_EQ(store.commit(ctx), 0.5);
  });
}

TEST(LaggedFluxStore, GroupStridedSlots) {
  // Multigroup: every (angle, face) slot carries one value per group,
  // staged and committed independently; the map API addresses group 0.
  comm::Cluster::run(1, [&](comm::Context& ctx) {
    LaggedFluxStore store;
    store.set_num_groups(3);
    EXPECT_EQ(store.num_groups(), 3);
    store.add_slot(0, 100);
    store.add_slot(1, 100);
    EXPECT_EQ(store.num_slots(), 2);
    const std::int32_t s0 = store.slot_index(0, 100);
    const std::int32_t s1 = store.slot_index(1, 100);
    for (int g = 0; g < 3; ++g) {
      EXPECT_EQ(store.prev_by_slot(s0, g), 0.0);
      store.stage_by_slot(s0, g, 1.0 + g);
      store.stage_by_slot(s1, g, 10.0 + g);
    }
    EXPECT_DOUBLE_EQ(store.commit(ctx), 12.0);
    for (int g = 0; g < 3; ++g) {
      EXPECT_DOUBLE_EQ(store.prev_by_slot(s0, g), 1.0 + g);
      EXPECT_DOUBLE_EQ(store.prev_by_slot(s1, g), 10.0 + g);
    }
    // Map-keyed convenience API == dense group-0 view.
    EXPECT_DOUBLE_EQ(store.prev(0, 100), 1.0);
    EXPECT_DOUBLE_EQ(store.prev(1, 100), 10.0);
    // The stride is fixed once slots exist.
    EXPECT_THROW(store.set_num_groups(2), CheckError);
  });
}

/// Shared structured fixture: Kobayashi 8³ mesh in 2³-cell patches.
struct StructuredCase {
  StructuredCase()
      : mesh(mesh::make_kobayashi_mesh(8)),
        layout({8, 8, 8}, {2, 2, 2}),
        graph(partition::cell_graph(mesh)),
        patches(partition::block_partition(layout), layout.num_patches(),
                &graph),
        xs(sn::expand(sn::MaterialTable::kobayashi(), mesh.materials(),
                      mesh.num_cells())),
        disc(mesh, xs),
        quad(sn::Quadrature::level_symmetric(2)),
        q(static_cast<std::size_t>(mesh.num_cells()), 0.25) {}

  std::vector<double> serial() const {
    return sn::serial_sweep(disc, quad, q);
  }

  mesh::StructuredMesh mesh;
  partition::StructuredBlockLayout layout;
  partition::CsrGraph graph;
  partition::PatchSet patches;
  sn::CellXs xs;
  sn::StructuredDD disc;
  sn::Quadrature quad;
  std::vector<double> q;
};

/// Shared unstructured fixture: small tetrahedral ball.
struct BallCase {
  BallCase()
      : mesh(mesh::make_ball_mesh(6, 3.0)),
        graph(partition::cell_graph(mesh)),
        part(partition::partition_graph(graph, 5)),
        patches(part, 5, &graph),
        xs(sn::expand(sn::MaterialTable::ball(), mesh.materials(),
                      mesh.num_cells())),
        disc(mesh, xs),
        quad(sn::Quadrature::level_symmetric(4)),
        q(static_cast<std::size_t>(mesh.num_cells()), 0.125) {}

  std::vector<double> serial() const {
    return sn::serial_sweep(disc, quad, q);
  }

  mesh::TetMesh mesh;
  partition::CsrGraph graph;
  std::vector<std::int32_t> part;
  partition::PatchSet patches;
  sn::CellXs xs;
  sn::TetStep disc;
  sn::Quadrature quad;
  std::vector<double> q;
};

/// One parallel sweep of `cs` on a session over a freshly built plan.
template <class Case>
std::vector<double> run_parallel(const Case& cs, int ranks,
                                 const PlanConfig& pc = {},
                                 const SolveConfig& sc = {}) {
  std::vector<double> result;
  std::mutex result_mutex;
  comm::Cluster::run(ranks, [&](comm::Context& ctx) {
    const auto owner = partition::assign_contiguous(
        cs.patches.num_patches(), ctx.size());
    SweepSession session(
        ctx,
        SweepPlan::build(ctx, cs.mesh, cs.patches, owner, cs.disc, cs.quad,
                         pc),
        sc);
    const auto phi = session.sweep(cs.q);
    if (ctx.rank().value() == 0) {
      const std::lock_guard<std::mutex> lock(result_mutex);
      result = phi;
    }
  });
  return result;
}

void expect_equal(const std::vector<double>& a, const std::vector<double>& b,
                  double tol = 1e-13) {
  ASSERT_EQ(a.size(), b.size());
  double scale = 0.0;
  for (const auto v : a) scale = std::max(scale, std::abs(v));
  for (std::size_t i = 0; i < a.size(); ++i)
    ASSERT_NEAR(a[i], b[i], tol * scale) << "cell " << i;
}

// ---------------------------------------------------------------------------
// Task data: rank-ordered ready set and the per-vertex remote-in lookup
// ---------------------------------------------------------------------------

/// Reference max-heap entry (priority desc, id asc): ReadySet must pop in
/// exactly this heap's order.
struct HeapEntry {
  double priority;
  std::int32_t v;
  bool operator<(const HeapEntry& o) const {
    if (priority != o.priority) return priority < o.priority;
    return v > o.v;
  }
};

TEST(SweepTaskData, ReadySetPopsInHeapOrder) {
  // Random integer priorities with many ties plus the SLBD unreachable
  // sentinel; random interleavings of pushes and pops. Sizes span one
  // bitset word, one summary word, and several summary words.
  for (const std::int32_t n : {37, 700, 9000}) {
    Rng rng(static_cast<std::uint64_t>(n));
    std::vector<double> prio(static_cast<std::size_t>(n));
    for (auto& p : prio)
      p = rng.below(10) == 0
              ? graph::kUnreachablePriority
              : static_cast<double>(static_cast<std::int64_t>(
                    rng.below(static_cast<std::uint64_t>(n / 8 + 2)))) -
                    n / 16;
    const std::vector<std::int32_t> order = vertex_rank_order(prio);
    std::vector<std::int32_t> rank(static_cast<std::size_t>(n));
    for (std::int32_t r = 0; r < n; ++r)
      rank[static_cast<std::size_t>(order[static_cast<std::size_t>(r)])] = r;

    std::vector<std::int32_t> pending(static_cast<std::size_t>(n));
    std::iota(pending.begin(), pending.end(), 0);
    for (std::size_t i = pending.size(); i > 1; --i)
      std::swap(pending[i - 1], pending[rng.below(i)]);
    ReadySet ready;
    ready.reset(n);
    std::priority_queue<HeapEntry> heap;
    std::int32_t popped = 0;
    while (popped < n) {
      const bool push = !pending.empty() && (heap.empty() || rng.below(3) != 0);
      if (push) {
        const std::int32_t v = pending.back();
        pending.pop_back();
        ready.push(rank[static_cast<std::size_t>(v)]);
        heap.push({prio[static_cast<std::size_t>(v)], v});
        continue;
      }
      ASSERT_FALSE(ready.empty());
      const std::int32_t v = order[static_cast<std::size_t>(ready.pop())];
      ASSERT_EQ(v, heap.top().v) << "n=" << n << " pop " << popped;
      heap.pop();
      ++popped;
    }
    EXPECT_TRUE(ready.empty());
  }
}

TEST(SweepTaskData, RankOrderMatchesEveryStrategy) {
  // Each strategy's real priorities rank exactly as a stable sort by
  // priority (descending) would order them.
  const BallCase cs;
  for (const auto strategy :
       {graph::PriorityStrategy::None, graph::PriorityStrategy::BFS,
        graph::PriorityStrategy::LDCP, graph::PriorityStrategy::SLBD}) {
    for (int p = 0; p < cs.patches.num_patches(); ++p) {
      const auto g = graph::build_patch_task_graph(
          cs.mesh, cs.patches, PatchId{p}, cs.quad.angle(1).dir, AngleId{1});
      const auto prio = graph::vertex_priorities(strategy, g);
      std::vector<std::int32_t> expected(prio.size());
      std::iota(expected.begin(), expected.end(), 0);
      std::stable_sort(expected.begin(), expected.end(),
                       [&](std::int32_t a, std::int32_t b) {
                         return prio[static_cast<std::size_t>(a)] >
                                prio[static_cast<std::size_t>(b)];
                       });
      EXPECT_EQ(vertex_rank_order(prio), expected)
          << graph::to_string(strategy) << " patch " << p;
    }
  }
}

TEST(SweepTaskData, RemoteInLookupMatchesFaceTable) {
  // The per-vertex remote-in CSR must resolve every remote face to the
  // slot a patch-wide face → slot table gives: the slot the receiving
  // cell's kernel reads that face from.
  const BallCase cs;
  std::int64_t checked = 0;
  for (int a = 0; a < cs.quad.num_angles(); a += 3) {
    const sn::Ordinate& ord = cs.quad.angle(a);
    for (int p = 0; p < cs.patches.num_patches(); ++p) {
      const SweepTaskData data(
          graph::build_patch_task_graph(cs.mesh, cs.patches, PatchId{p},
                                        ord.dir, AngleId{a}),
          graph::PriorityStrategy::SLBD, cs.disc, cs.patches, ord);
      const auto& cells = cs.patches.cells(PatchId{p});
      std::map<std::int64_t, std::int32_t> face_table;
      for (const auto& e : data.graph().remote_in) {
        sn::CellFaceIds ids;
        cs.disc.face_ids(cells[static_cast<std::size_t>(e.v)], ord, ids);
        std::int32_t slot = -1;
        for (int k = 0; k < ids.count; ++k)
          if (ids.in[static_cast<std::size_t>(k)] == e.face)
            slot = data.cell_slots(e.v).in[static_cast<std::size_t>(k)];
        ASSERT_GE(slot, 0) << "face " << e.face << " is not an in-face";
        face_table.emplace(e.face, slot);
      }
      for (const auto& e : data.graph().remote_in) {
        EXPECT_EQ(data.slot_of_remote_in(e.v, e.face), face_table.at(e.face));
        ++checked;
      }
    }
  }
  EXPECT_GT(checked, 100);
}

TEST(SweepTaskData, UnknownRemoteInFaceThrows) {
  const BallCase cs;
  const sn::Ordinate& ord = cs.quad.angle(0);
  const SweepTaskData data(
      graph::build_patch_task_graph(cs.mesh, cs.patches, PatchId{0}, ord.dir,
                                    AngleId{0}),
      graph::PriorityStrategy::SLBD, cs.disc, cs.patches, ord);
  const auto& remote_in = data.graph().remote_in;
  ASSERT_FALSE(remote_in.empty());
  const auto& e = remote_in.front();
  EXPECT_NO_THROW((void)data.slot_of_remote_in(e.v, e.face));
  // A face no cell reads, a remote face delivered to the wrong vertex, and
  // a vertex outside the patch all fail loudly.
  EXPECT_THROW((void)data.slot_of_remote_in(e.v, -12345), CheckError);
  for (const auto& other : remote_in)
    if (other.v != e.v && other.face != e.face) {
      EXPECT_THROW((void)data.slot_of_remote_in(other.v, e.face), CheckError);
      break;
    }
  EXPECT_THROW((void)data.slot_of_remote_in(data.num_vertices(), e.face),
               CheckError);
  EXPECT_THROW((void)data.slot_of_remote_in(-1, e.face), CheckError);
}

// ---------------------------------------------------------------------------
// Data-driven engine vs serial reference
// ---------------------------------------------------------------------------

TEST(SweepStructured, MatchesSerialSingleRank) {
  const StructuredCase cs;
  expect_equal(run_parallel(cs, 1), cs.serial());
}

TEST(SweepStructured, MatchesSerialMultiRank) {
  const StructuredCase cs;
  SolveConfig sc;
  sc.num_workers = 3;
  expect_equal(run_parallel(cs, 4, {}, sc), cs.serial());
}

TEST(SweepBall, MatchesSerialSingleRank) {
  const BallCase cs;
  expect_equal(run_parallel(cs, 1), cs.serial());
}

TEST(SweepBall, MatchesSerialMultiRank) {
  const BallCase cs;
  SolveConfig sc;
  sc.num_workers = 2;
  expect_equal(run_parallel(cs, 3, {}, sc), cs.serial());
}

// The result must be bitwise identical whatever the parallel configuration:
// the DAG fixes every operand and the reduction order is fixed.
TEST(SweepDeterminism, BitwiseIdenticalAcrossConfigurations) {
  const BallCase cs;
  const auto base = run_parallel(cs, 1);
  for (const int ranks : {2, 4}) {
    for (const int workers : {1, 3}) {
      SolveConfig sc;
      sc.num_workers = workers;
      const auto phi = run_parallel(cs, ranks, {}, sc);
      ASSERT_EQ(phi.size(), base.size());
      for (std::size_t i = 0; i < phi.size(); ++i)
        ASSERT_EQ(phi[i], base[i])
            << "ranks=" << ranks << " workers=" << workers << " cell=" << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Configuration sweeps (priorities, clustering, ablations)
// ---------------------------------------------------------------------------

using PriorityPair =
    std::pair<graph::PriorityStrategy, graph::PriorityStrategy>;

class SweepPriorities : public ::testing::TestWithParam<PriorityPair> {};

TEST_P(SweepPriorities, AllStrategiesMatchSerial) {
  const StructuredCase cs;
  PlanConfig pc;
  pc.patch_priority = GetParam().first;
  pc.vertex_priority = GetParam().second;
  expect_equal(run_parallel(cs, 2, pc), cs.serial());
}

INSTANTIATE_TEST_SUITE_P(
    Combos, SweepPriorities,
    ::testing::Values(
        PriorityPair{graph::PriorityStrategy::None,
                     graph::PriorityStrategy::None},
        PriorityPair{graph::PriorityStrategy::BFS,
                     graph::PriorityStrategy::BFS},
        PriorityPair{graph::PriorityStrategy::LDCP,
                     graph::PriorityStrategy::LDCP},
        PriorityPair{graph::PriorityStrategy::SLBD,
                     graph::PriorityStrategy::SLBD},
        PriorityPair{graph::PriorityStrategy::LDCP,
                     graph::PriorityStrategy::SLBD},
        PriorityPair{graph::PriorityStrategy::BFS,
                     graph::PriorityStrategy::SLBD}));

class SweepGrain : public ::testing::TestWithParam<int> {};

TEST_P(SweepGrain, AllClusterGrainsMatchSerial) {
  const BallCase cs;
  PlanConfig pc;
  pc.cluster_grain = GetParam();
  expect_equal(run_parallel(cs, 2, pc), cs.serial());
}

INSTANTIATE_TEST_SUITE_P(Grains, SweepGrain,
                         ::testing::Values(1, 2, 8, 64, 4096));

TEST(SweepAblation, PatchSerializedStillCorrect) {
  // The patch mutex must hold for the fine loop and the replay alike:
  // coarsened sessions replay sweeps 2 and 3 under it.
  const StructuredCase cs;
  const auto serial = cs.serial();
  for (const bool coarsened : {false, true}) {
    comm::Cluster::run(2, [&](comm::Context& ctx) {
      PlanConfig pc;
      pc.patch_angle_parallelism = false;
      SolveConfig sc;
      sc.num_workers = 3;
      sc.use_coarsened_graph = coarsened;
      const auto owner =
          partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
      SweepSession session(ctx,
                           SweepPlan::build(ctx, cs.mesh, cs.patches, owner,
                                            cs.disc, cs.quad, pc),
                           sc);
      for (int k = 0; k < 3; ++k)
        EXPECT_EQ(session.sweep(cs.q), serial)
            << (coarsened ? "coarsened" : "fine") << ", sweep " << k;
    });
  }
}

// ---------------------------------------------------------------------------
// BSP engine
// ---------------------------------------------------------------------------

TEST(SweepBsp, MatchesSerial) {
  const StructuredCase cs;
  SolveConfig sc;
  sc.engine = EngineKind::Bsp;
  expect_equal(run_parallel(cs, 2, {}, sc), cs.serial());
}

TEST(SweepBsp, BallMatchesSerial) {
  const BallCase cs;
  SolveConfig sc;
  sc.engine = EngineKind::Bsp;
  sc.num_workers = 2;
  expect_equal(run_parallel(cs, 2, {}, sc), cs.serial());
}

TEST(SweepBsp, DataDrivenUsesFewerGlobalSyncs) {
  // The data-driven engine needs one collective per sweep; BSP needs one
  // (plus a barrier) per superstep. Count supersteps to document the gap.
  const StructuredCase cs;
  std::atomic<std::int64_t> supersteps{0};
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    SolveConfig sc;
    sc.engine = EngineKind::Bsp;
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(
        ctx,
        SweepPlan::build(ctx, cs.mesh, cs.patches, owner, cs.disc, cs.quad),
        sc);
    (void)session.sweep(cs.q);
    if (ctx.rank().value() == 0)
      supersteps.store(session.stats().bsp.supersteps);
  });
  EXPECT_GT(supersteps.load(), 3);
}

// ---------------------------------------------------------------------------
// Coarsened graph
// ---------------------------------------------------------------------------

TEST(SweepCoarsened, SecondSweepMatchesFirst) {
  const BallCase cs;
  std::vector<double> first;
  std::vector<double> second;
  std::vector<double> third;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    SolveConfig sc;
    sc.use_coarsened_graph = true;
    sc.num_workers = 2;
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(
        ctx,
        SweepPlan::build(ctx, cs.mesh, cs.patches, owner, cs.disc, cs.quad),
        sc);
    const auto phi1 = session.sweep(cs.q);  // DAG sweep, records clusters
    const auto phi2 = session.sweep(cs.q);  // coarsened replay
    const auto phi3 = session.sweep(cs.q);  // reusable across iterations
    if (ctx.rank().value() == 0) {
      first = phi1;
      second = phi2;
      third = phi3;
    }
  });
  expect_equal(second, first, 1e-15);
  expect_equal(third, first, 1e-15);
  expect_equal(first, cs.serial());
}

TEST(SweepCoarsened, StructuredMatchesSerial) {
  const StructuredCase cs;
  std::vector<double> coarse_phi;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    PlanConfig pc;
    pc.cluster_grain = 4;
    SolveConfig sc;
    sc.use_coarsened_graph = true;
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(ctx,
                         SweepPlan::build(ctx, cs.mesh, cs.patches, owner,
                                          cs.disc, cs.quad, pc),
                         sc);
    (void)session.sweep(cs.q);
    const auto phi = session.sweep(cs.q);
    if (ctx.rank().value() == 0) coarse_phi = phi;
  });
  expect_equal(coarse_phi, cs.serial());
}

// ---------------------------------------------------------------------------
// Full solves: source iteration through the parallel sweep
// ---------------------------------------------------------------------------

TEST(SweepSourceIteration, ParallelSolveMatchesSerialSolve) {
  const StructuredCase cs;

  const auto serial_result = sn::source_iteration(
      cs.xs,
      [&](const std::vector<double>& q) {
        return sn::serial_sweep(cs.disc, cs.quad, q);
      },
      {1e-7, 100, false});
  ASSERT_TRUE(serial_result.converged);

  std::vector<double> parallel_phi;
  int parallel_iters = 0;
  comm::Cluster::run(3, [&](comm::Context& ctx) {
    SolveConfig sc;
    sc.use_coarsened_graph = true;  // iterations 2+ on CG
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(
        ctx,
        SweepPlan::build(ctx, cs.mesh, cs.patches, owner, cs.disc, cs.quad),
        sc);
    const auto result = sn::source_iteration(cs.xs, session.as_operator(),
                                             {1e-7, 100, false});
    EXPECT_TRUE(result.converged);
    if (ctx.rank().value() == 0) {
      parallel_phi = result.phi;
      parallel_iters = result.iterations;
    }
  });
  EXPECT_EQ(parallel_iters, serial_result.iterations);
  expect_equal(parallel_phi, serial_result.phi);
}

TEST(SweepStats, EngineCountsLookSane) {
  const StructuredCase cs;
  comm::Cluster::run(2, [&](comm::Context& ctx) {
    PlanConfig pc;
    pc.cluster_grain = 4;
    const auto owner =
        partition::assign_contiguous(cs.patches.num_patches(), ctx.size());
    SweepSession session(ctx,
                         SweepPlan::build(ctx, cs.mesh, cs.patches, owner,
                                          cs.disc, cs.quad, pc));
    (void)session.sweep(cs.q);
    const auto& st = session.stats().engine;
    // 8 angles × 32 local patches, at least one execution each.
    EXPECT_GE(st.executions, 8 * 32);
    EXPECT_GT(st.streams_remote + st.streams_local, 0);
    EXPECT_GT(st.worker_busy_seconds, 0.0);
  });
}

}  // namespace
}  // namespace jsweep::sweep
