// ColoringTransport conformance: the sequential reference transport
// (congest::Network + NetworkColoringTransport) and the parallel engine
// transport (runtime::EngineColoringTransport) must charge identical
// CONGEST costs and produce identical values for identical call
// sequences — the property the Theorem 1.1 port rests on. The suite
// replays each primitive head-on: tree construction, the Lemma 2.6
// seed-fixing scenario (aggregate_pair + broadcast_bit per bit, chosen
// seeds compared), conflict-edge exchanges with and without payload
// collection, and the conflict-resolution MIS.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/linial.h"
#include "src/congest/bfs_tree.h"
#include "src/congest/network.h"
#include "src/graph/generators.h"
#include "src/runtime/theorem11_program.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

void expect_metrics_eq(const congest::Metrics& a, const congest::Metrics& b,
                       const std::string& where) {
  EXPECT_EQ(a.rounds, b.rounds) << where;
  EXPECT_EQ(a.messages, b.messages) << where;
  EXPECT_EQ(a.total_bits, b.total_bits) << where;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << where;
}

// Connected graphs only: build_tree floods a spanning BFS tree.
std::vector<test::NamedGraph> connected_corpus() {
  std::vector<test::NamedGraph> v;
  v.push_back({"cycle64", make_cycle(64)});
  v.push_back({"grid6x8", make_grid(6, 8)});
  v.push_back({"tree63", make_binary_tree(63)});
  v.push_back({"cliquepath6x5", make_path_of_cliques(6, 5)});
  v.push_back({"star24", make_star(24)});
  return v;
}

TEST(TransportConformance, SeedFixingScenarioMatches) {
  for (const auto& [name, g] : connected_corpus()) {
    const NodeId n = g.num_nodes();
    congest::Network net(g);
    NetworkColoringTransport ref(net);
    for (int threads : {1, 3}) {
      runtime::EngineColoringTransport eng(g, threads);
      ref.network().reset_metrics();
      eng.engine().reset_metrics();

      ref.build_tree(0);
      eng.build_tree(0);
      expect_metrics_eq(ref.metrics(), eng.metrics(), name + " after build_tree");

      // The same deterministic seed-fixing scenario on both transports:
      // per "seed bit" both sides aggregate a pair of per-node
      // conditional-expectation vectors, pick the minimizing bit, and
      // broadcast it. The values evolve with the chosen bits so any
      // divergence compounds and cannot cancel.
      auto rng = test::make_rng(0x5eedf1f);
      std::vector<long double> x0(n), x1(n);
      for (NodeId v = 0; v < n; ++v) {
        x0[v] = static_cast<long double>(rng.next_u64() % 1024) / 64.0L;
        x1[v] = static_cast<long double>(rng.next_u64() % 1024) / 64.0L;
      }
      std::vector<int> ref_bits, eng_bits;
      for (int j = 0; j < 24; ++j) {
        const auto [r0, r1] = ref.aggregate_pair(x0, x1);
        const auto [e0, e1] = eng.aggregate_pair(x0, x1);
        EXPECT_EQ(static_cast<double>(r0), static_cast<double>(e0)) << name << " bit " << j;
        EXPECT_EQ(static_cast<double>(r1), static_cast<double>(e1)) << name << " bit " << j;
        const int rb = r0 <= r1 ? 0 : 1;
        const int eb = e0 <= e1 ? 0 : 1;
        ref_bits.push_back(rb);
        eng_bits.push_back(eb);
        ref.broadcast_bit(rb);
        eng.broadcast_bit(eb);
        // Deterministic evolution driven by the chosen bit.
        for (NodeId v = 0; v < n; ++v) {
          x0[v] = rb ? x0[v] * 0.5L + x1[v] : x0[v] + 0.25L * v;
          x1[v] = rb ? x1[v] + 1.0L / (1 + v) : x1[v] * 0.75L;
        }
      }
      EXPECT_EQ(ref_bits, eng_bits) << name << " threads=" << threads;
      expect_metrics_eq(ref.metrics(), eng.metrics(), name + " after seed fixing");
    }
  }
}

TEST(TransportConformance, ExchangeAlongMatches) {
  const Graph g = make_gnp(60, 0.15, test::kTestSeed + 7);
  const NodeId n = g.num_nodes();

  // Alive-conflict-style targets: a deterministic subset of each node's
  // adjacency, ascending (a different subset per node).
  std::vector<std::vector<NodeId>> targets(n);
  std::vector<char> senders(n, 0);
  std::vector<std::uint64_t> payloads(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    senders[v] = (v % 3) != 0 ? 1 : 0;
    payloads[v] = static_cast<std::uint64_t>(v) * 17 + 3;
    int i = 0;
    for (NodeId u : g.neighbors(v)) {
      if ((v + u + i++) % 2 == 0) targets[v].push_back(u);
    }
  }

  congest::Network net(g);
  NetworkColoringTransport ref(net);
  for (int threads : {1, 4}) {
    runtime::EngineColoringTransport eng(g, threads);
    ref.network().reset_metrics();

    // Without collection, narrow payloads.
    ref.exchange_along(targets, senders, payloads, 12, nullptr);
    eng.exchange_along(targets, senders, payloads, 12, nullptr);
    expect_metrics_eq(ref.metrics(), eng.metrics(), "exchange 12-bit");

    // With collection and a payload wider than the bandwidth (chunked).
    std::vector<std::vector<NodeId>> ref_from(n), eng_from(n);
    const int wide = net.bandwidth_bits() + 9;
    ref.exchange_along(targets, senders, payloads, wide, &ref_from);
    eng.exchange_along(targets, senders, payloads, wide, &eng_from);
    EXPECT_EQ(ref_from, eng_from) << "threads=" << threads;
    expect_metrics_eq(ref.metrics(), eng.metrics(), "exchange chunked");

    // Sparse senders into sinks pre-filled with stale ids: the engine
    // dispatches only the receivers, and every other entry must still
    // come back empty, as on the Network transport.
    std::vector<char> few(n, 0);
    std::vector<char> receives(n, 0);
    for (NodeId v = 0; v < n; v += 7) {
      few[v] = 1;
      for (NodeId u : targets[v]) receives[u] = 1;
    }
    std::vector<std::vector<NodeId>> ref_stale(n, {n + 1, 3}), eng_stale(n, {n + 1, 3});
    ref.exchange_along(targets, few, payloads, 12, &ref_stale);
    eng.exchange_along(targets, few, payloads, 12, &eng_stale);
    EXPECT_EQ(ref_stale, eng_stale) << "threads=" << threads;
    int silent = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (receives[v]) continue;
      ++silent;
      EXPECT_TRUE(ref_stale[v].empty()) << "network sink " << v;
      EXPECT_TRUE(eng_stale[v].empty()) << "engine sink " << v << " threads=" << threads;
    }
    EXPECT_GT(silent, 0);
    expect_metrics_eq(ref.metrics(), eng.metrics(), "exchange sparse senders");
  }
}

// The engine's frontier-rostered BFS build against the Network flood on
// the shapes that stress it: deep (a 4096-path rooted at an end and in
// the middle), wide (a star from its center and from a leaf) and mixed
// (a grid, a caterpillar). Levels, parents, depth and every Metrics
// field must match at 1 and 4 threads, and at 4 threads with every
// phase forced through the pool (cutoff 0).
TEST(TransportConformance, BuildTreeMatchesOnDeepAndWideShapes) {
  struct Shape {
    std::string name;
    Graph g;
    NodeId root;
  };
  std::vector<Shape> shapes;
  shapes.push_back({"path4096@0", make_path(4096), 0});
  shapes.push_back({"path4096@mid", make_path(4096), 2048});
  shapes.push_back({"star300@center", make_star(300), 0});
  shapes.push_back({"star300@leaf", make_star(300), 17});
  shapes.push_back({"grid20x30", make_grid(20, 30), 0});
  shapes.push_back({"caterpillar200x3", make_caterpillar(200, 3), 0});
  struct Mode {
    int threads;
    const char* cutoff;  // DCOLOR_SERIAL_CUTOFF, or nullptr for the default
  };
  for (const Shape& s : shapes) {
    congest::Network net(s.g);
    const congest::BfsTree ref = congest::BfsTree::build(net, s.root);
    std::vector<NodeId> ref_parent(static_cast<std::size_t>(s.g.num_nodes()));
    for (NodeId v = 0; v < s.g.num_nodes(); ++v) ref_parent[v] = ref.parent(v);
    for (const Mode m : {Mode{1, nullptr}, Mode{4, nullptr}, Mode{4, "0"}}) {
      if (m.cutoff != nullptr) {
        ASSERT_EQ(setenv("DCOLOR_SERIAL_CUTOFF", m.cutoff, 1), 0);
      }
      runtime::ParallelEngine eng(s.g, m.threads);
      ASSERT_EQ(unsetenv("DCOLOR_SERIAL_CUTOFF"), 0);
      runtime::TreeData tree;
      runtime::build_tree_data(eng, s.root, &tree);
      const std::string where = s.name + " threads=" + std::to_string(m.threads) +
                                " cutoff=" + (m.cutoff ? m.cutoff : "default");
      EXPECT_EQ(tree.level, ref.levels()) << where;
      EXPECT_EQ(tree.parent, ref_parent) << where;
      EXPECT_EQ(tree.depth, ref.depth()) << where;
      expect_metrics_eq(net.metrics(), eng.metrics(), where);
    }
  }
}

// A disconnected graph has no spanning BFS tree: both builds refuse it
// in every build type (an unreached node used to keep level -1, which
// indexed out of bounds once NDEBUG removed the assert).
TEST(TransportConformance, BuildTreeRejectsDisconnectedGraph) {
  const Graph g = Graph::from_edges(7, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}});
  congest::Network net(g);
  EXPECT_THROW(congest::BfsTree::build(net, 0), std::invalid_argument);
  for (int threads : {1, 4}) {
    runtime::ParallelEngine eng(g, threads);
    runtime::TreeData tree;
    EXPECT_THROW(runtime::build_tree_data(eng, 0, &tree), std::invalid_argument)
        << "threads=" << threads;
  }
}

TEST(TransportConformance, ConflictMisMatches) {
  // A max-degree<=3 conflict graph restricted to a membership subset —
  // the exact shape the Lemma 2.1 conflict-resolution step produces.
  const Graph base = make_grid(7, 9);  // max degree 4; membership trims it
  const NodeId n = base.num_nodes();
  std::vector<std::pair<NodeId, NodeId>> edges;
  std::vector<bool> memb(n, false);
  for (NodeId v = 0; v < n; ++v) memb[v] = (v % 5) != 4;
  for (NodeId v = 0; v < n; ++v) {
    if (!memb[v]) continue;
    int kept = 0;
    for (NodeId u : base.neighbors(v)) {
      if (u > v && memb[u] && kept < 2) {
        edges.emplace_back(v, u);
        ++kept;
      }
    }
  }
  Graph conf = Graph::from_edges(n, std::move(edges));

  // Proper input coloring of the conflict graph: node ids (K = n).
  std::vector<std::int64_t> ids(n);
  for (NodeId v = 0; v < n; ++v) ids[v] = v;

  congest::Network net(base);
  NetworkColoringTransport ref(net);
  const std::vector<bool> ref_mis = ref.conflict_mis(conf, memb, ids, n);
  for (int threads : {1, 3}) {
    runtime::EngineColoringTransport eng(base, threads);
    const std::vector<bool> eng_mis = eng.conflict_mis(conf, memb, ids, n);
    EXPECT_EQ(ref_mis, eng_mis) << "threads=" << threads;
    // Only rounds are charged for the conflict step; they must agree.
    expect_metrics_eq(ref.metrics(), eng.metrics(), "conflict_mis");
    EXPECT_TRUE(test::valid_mis(InducedSubgraph(conf, memb), eng_mis));
  }
}

TEST(TransportConformance, LinialPrimitiveMatches) {
  for (const auto& [name, g] : connected_corpus()) {
    congest::Network net(g);
    NetworkColoringTransport ref(net);
    runtime::EngineColoringTransport eng(g, 2);
    const InducedSubgraph all = test::all_active(g);
    const LinialResult a = ref.linial(all, nullptr, 0);
    const LinialResult b = eng.linial(all, nullptr, 0);
    EXPECT_EQ(a.coloring, b.coloring) << name;
    EXPECT_EQ(a.num_colors, b.num_colors) << name;
    expect_metrics_eq(ref.metrics(), eng.metrics(), name + " linial");
  }
}

}  // namespace
}  // namespace dcolor
