// Steady-state allocation audit of the engine round loop: a counting
// global operator new verifies that, once warm, the hot paths of the
// derandomization pipelines allocate NOTHING per round — the engine's
// dispatch (serial fast path and pool path), the Lemma 2.6
// aggregate/broadcast channel ops over BFS and cluster trees (including
// cluster rebinds), BFS rebuilds, conflict-edge exchanges, a full Linial
// run, and a full color-class MIS run.
// Guards tentpole (c) of the round-loop optimization PR: any hot-path
// heap traffic reintroduced later fails here, not in a profiler.
//
// The counter counts every operator new/new[] in the process (gtest
// included), so each audit snapshots the counter around ONLY the
// steady-state region and asserts a zero delta.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <utility>
#include <vector>

#include "src/decomposition/netdecomp.h"
#include "src/graph/generators.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/linial_program.h"
#include "src/runtime/parallel_engine.h"
#include "src/runtime/theorem11_program.h"
#include "tests/test_support.h"

namespace {

std::atomic<std::uint64_t> g_news{0};

}  // namespace

// Counting replacements for the usual global forms. Aligned-new is
// deliberately not replaced: nothing in the audited paths uses it, and
// the default aligned operators do not forward here.
void* operator new(std::size_t size) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size > 0 ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_news.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size > 0 ? size : 1);
}

void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace dcolor::runtime {
namespace {

std::uint64_t allocs() { return g_news.load(std::memory_order_relaxed); }

// The Lemma 2.6 ops (pair wave + bit broadcast) over a BFS tree: the
// innermost loop of every Theorem 1.1 seed-fixing iteration, through the
// transport and through the free functions. After one warm call per op,
// repeated calls must not touch the heap — at 1 thread (serial fast path)
// and at 2 (pool dispatch).
TEST(AllocAudit, PairWaveOpsSteadyState) {
  const Graph g = make_grid(12, 12);
  std::vector<long double> v0(static_cast<std::size_t>(g.num_nodes()), 0.25L);
  std::vector<long double> v1(static_cast<std::size_t>(g.num_nodes()), 0.5L);
  for (const int threads : {1, 2}) {
    EngineColoringTransport t(g, threads);
    t.build_tree(0);
    ParallelEngine& eng = t.engine();
    AggregateScratch scratch;
    // Warm: scratch buffers size themselves, thread_locals materialize.
    t.aggregate_pair(v0, v1);
    t.broadcast_bit(1);
    aggregate_pair(eng, t.tree(), v0, v1, &scratch);
    tree_broadcast(eng, t.tree(), 0x1abc, 13);

    const std::uint64_t before = allocs();
    for (int i = 0; i < 5; ++i) {
      t.aggregate_pair(v0, v1);
      t.broadcast_bit(1);                         // flag-plane broadcast
      aggregate_pair(eng, t.tree(), v0, v1, &scratch);
      tree_broadcast(eng, t.tree(), 0x1abc, 13);  // slot-plane broadcast
    }
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "pair-wave ops allocated at threads=" << threads;
  }
}

// A BFS rebuild on a warm engine and TreeData: the frontier and stamp
// workspace live in the TreeData, so after the first build the flood —
// roster construction included — and the tree finalization allocate
// nothing, at 1 thread and at 2.
TEST(AllocAudit, BfsBuildSteadyState) {
  const Graph g = make_grid(12, 12);
  for (const int threads : {1, 2}) {
    ParallelEngine eng(g, threads);
    TreeData tree;
    build_tree_data(eng, 0, &tree);  // warm
    const std::uint64_t before = allocs();
    build_tree_data(eng, 0, &tree);
    build_tree_data(eng, 77, &tree);
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "BFS rebuild allocated at threads=" << threads;
  }
}

// Conflict-edge exchanges on a warm EngineColoringTransport, with and
// without a `from` sink: the sender and receiver rosters are built into
// transport-owned scratch reserved once, and the sink vectors keep their
// capacity, so repeated exchanges allocate nothing.
TEST(AllocAudit, ExchangeAlongSteadyState) {
  const Graph g = make_gnp(300, 0.03, test::kTestSeed + 3);
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> targets(static_cast<std::size_t>(n));
  std::vector<char> senders(static_cast<std::size_t>(n), 0);
  std::vector<std::uint64_t> payloads(static_cast<std::size_t>(n), 5);
  for (NodeId v = 0; v < n; v += 2) {
    senders[v] = 1;
    for (const NodeId u : g.neighbors(v)) targets[v].push_back(u);
  }
  std::vector<std::vector<NodeId>> from(static_cast<std::size_t>(n));
  for (const int threads : {1, 2}) {
    EngineColoringTransport t(g, threads);
    t.exchange_along(targets, senders, payloads, 8, nullptr);  // warm
    t.exchange_along(targets, senders, payloads, 8, &from);
    const std::uint64_t before = allocs();
    for (int i = 0; i < 3; ++i) {
      t.exchange_along(targets, senders, payloads, 8, nullptr);
      t.exchange_along(targets, senders, payloads, 8, &from);
    }
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "exchange_along allocated at threads=" << threads;
  }
}

// A full Linial run on an engine that has already executed one: the
// program object is built outside the audited region (its schedule and
// coloring buffers are setup, not round-loop work), then run() itself
// must stay off the heap.
TEST(AllocAudit, LinialRunSteadyState) {
  const Graph g = make_gnp(400, 0.03, test::kTestSeed + 1);
  const InducedSubgraph active = test::all_active(g);
  for (const int threads : {1, 2}) {
    ParallelEngine eng(g, threads);
    LinialProgram warm(active, std::vector<std::int64_t>{}, 0);
    eng.run(warm);

    LinialProgram prog(active, std::vector<std::int64_t>{}, 0);
    const std::uint64_t before = allocs();
    eng.run(prog);
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "Linial run allocated at threads=" << threads;
  }
}

// A full color-class MIS run (the conflict-resolution step of
// Theorem 1.1): the rostered program precomputes its class CSR and
// reserves its roster scratch in the constructor, so the whole
// num_colors-round run — roster construction included — is heap-free.
TEST(AllocAudit, MisRunSteadyState) {
  const Graph g = make_grid(10, 18);
  const InducedSubgraph active = test::all_active(g);
  for (const int threads : {1, 2}) {
    ParallelEngine eng(g, threads);
    LinialResult lin = linial_coloring(eng, active);
    ASSERT_GT(lin.num_colors, 0);
    MisColorClassesProgram prog(active, lin.coloring, lin.num_colors);
    const std::uint64_t before = allocs();
    eng.run(prog);
    const std::uint64_t delta = allocs() - before;
    EXPECT_EQ(delta, 0u) << "MIS run allocated at threads=" << threads;
  }
}

// The Corollary 1.2 per-cluster loop: one TreeData rebound across every
// cluster of a real network decomposition, running the pair wave and the
// bit broadcast each time. After one warm pass over all clusters
// (TreeData and scratch capacities reach their high-water marks), further
// passes — rebinds included — must not allocate.
TEST(AllocAudit, ClusterRebindSteadyState) {
  const Graph g = make_clustered(6, 12, 0.5, 0.02, test::kTestSeed + 2);
  const NetworkDecomposition d = decompose(g);
  ASSERT_GT(d.clusters.size(), 1u);
  std::vector<long double> v0(static_cast<std::size_t>(g.num_nodes()), 0.125L);
  std::vector<long double> v1(static_cast<std::size_t>(g.num_nodes()), 0.375L);
  ParallelEngine eng(g, 1);
  TreeData tree;
  AggregateScratch scratch;
  auto pass = [&] {
    for (const Cluster& c : d.clusters) {
      cluster_tree_data(g, c, &tree);
      aggregate_pair(eng, tree, v0, v1, &scratch);
      tree_broadcast(eng, tree, 1, 1);
    }
  };
  pass();  // warm

  const std::uint64_t before = allocs();
  pass();
  const std::uint64_t delta = allocs() - before;
  EXPECT_EQ(delta, 0u) << "cluster rebind loop allocated";
}

}  // namespace
}  // namespace dcolor::runtime
