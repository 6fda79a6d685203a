// Round-loop microbenchmarks: tiny per-round work over MANY rounds, so
// the engine's fixed per-round costs (roster dispatch, inbox epoch
// checks, flag-plane delivery, barrier + metrics merge) dominate the
// clock instead of algorithmic work. Two workloads:
//
//   engine.roundloop.convergecast — repeated Q32.32 pair waves over a
//     BFS tree of a connected G(n,p): the Lemma 2.6 inner loop in
//     isolation (dense per-wave rosters, per-node sums, pipelined-chunk
//     charging).
//
//   engine.roundloop.bitbroadcast — a color-class MIS from the identity
//     coloring (every class a single node): n rounds of near-empty
//     rosters whose only traffic is 1-bit flag-plane joins — the purest
//     per-round overhead probe the pipeline has.
//
//   engine.roundloop.bfsbuild — repeated BFS-tree builds by flooding on
//     a path from one end: n+1 rounds whose frontier is a single node, so
//     a build that dispatched every node each round (O(n * depth))
//     instead of the frontier (O(n + m)) shows up as a ~n-fold slowdown.
//
// All verify against straight sequential recomputation, so a dispatch
// or flag-plane bug fails the bench rather than shipping as a speedup.
#include <cstdint>
#include <memory>
#include <vector>

#include "bench/scenarios/scenario_common.h"
#include "src/benchkit/scenario.h"
#include "src/benchkit/verify.h"
#include "src/coloring/mis.h"
#include "src/congest/bfs_tree.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor {
namespace {

using benchkit::Outcome;
using benchkit::Prepared;
using benchkit::RunConfig;
using benchkit::Scenario;

// Enough waves that the convergecast loop, not engine setup, is timed.
constexpr int kWaves = 32;

REGISTER_SCENARIO(Scenario{
    "engine.roundloop.convergecast",
    "Repeated Q32.32 pair-sum convergecasts over a BFS tree (Lemma 2.6 inner loop)",
    "gnp", "roundloop", "engine", /*parity=*/"", /*scalable=*/true,
    [](const RunConfig& c) {
      const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 4000));
      auto g = std::make_shared<Graph>(bench_scenarios::connected_gnp(n, 8.0, c.seed));
      auto eng = std::make_shared<runtime::ParallelEngine>(*g, c.threads);
      auto tree = std::make_shared<runtime::TreeData>();
      runtime::build_tree_data(*eng, 0, tree.get());
      // Two value profiles so consecutive waves do not aggregate the
      // exact same operands; values in [0, 1) keep every encoding exact.
      auto v0 = std::make_shared<std::vector<long double>>(static_cast<std::size_t>(n));
      auto v1 = std::make_shared<std::vector<long double>>(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) {
        (*v0)[v] = static_cast<long double>(v % 97) / 128.0L;
        (*v1)[v] = static_cast<long double>(v % 41) / 64.0L;
      }
      // Sequential reference: the grand totals the tree sums must
      // reproduce bit-for-bit.
      std::uint64_t want0 = 0, want1 = 0;
      for (NodeId v = 0; v < n; ++v) {
        want0 += congest::to_fixed((*v0)[v]);
        want1 += congest::to_fixed((*v1)[v]);
      }
      return Prepared{[g, eng, tree, v0, v1, want0, want1, seed = c.seed] {
        eng->reset_metrics();
        runtime::AggregateScratch scratch;
        std::uint64_t acc = 0;
        bool ok = true;
        for (int w = 0; w < kWaves; ++w) {
          const auto [s0, s1] = runtime::aggregate_pair(*eng, *tree, *v0, *v1, &scratch);
          ok = ok && s0 == want0 && s1 == want1;
          acc ^= s0 + 0x9e3779b97f4a7c15ull * static_cast<std::uint64_t>(w + 1) + s1;
        }
        Outcome o;
        o.n = g->num_nodes();
        o.m = g->num_edges();
        o.seed = seed;
        o.metrics = eng->metrics();
        o.checksum = acc;
        o.verified = ok;
        return o;
      }};
    }});

REGISTER_SCENARIO(Scenario{
    "engine.roundloop.bitbroadcast",
    "Color-class MIS from the identity coloring: n rounds of 1-bit flag-plane joins",
    "gnp", "roundloop", "engine", /*parity=*/"", /*scalable=*/true,
    [](const RunConfig& c) {
      const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 4000));
      auto g = std::make_shared<Graph>(
          make_gnp(n, 8.0 / static_cast<double>(n), c.seed));
      // Identity coloring: trivially proper, and it maximizes rounds per
      // unit of work — each of the n classes is a single node.
      auto coloring = std::make_shared<std::vector<std::int64_t>>(static_cast<std::size_t>(n));
      for (NodeId v = 0; v < n; ++v) (*coloring)[v] = v;
      auto eng = std::make_shared<runtime::ParallelEngine>(*g, c.threads);
      auto active = std::make_shared<InducedSubgraph>(
          *g, std::vector<bool>(static_cast<std::size_t>(n), true));
      return Prepared{[g, eng, coloring, active, n, seed = c.seed] {
        eng->reset_metrics();
        runtime::MisColorClassesProgram prog(*active, *coloring, n);
        eng->run(prog);
        const std::vector<bool> in_mis = prog.in_mis();
        Outcome o;
        o.n = g->num_nodes();
        o.m = g->num_edges();
        o.seed = seed;
        o.metrics = eng->metrics();
        o.checksum = benchkit::checksum_bits(in_mis);
        o.verified = is_mis(*active, in_mis);
        return o;
      }};
    }});

// Builds per timed execution: one quick-size build is well under a
// millisecond once the flood costs O(n + m).
constexpr int kBuilds = 16;

REGISTER_SCENARIO(Scenario{
    "engine.roundloop.bfsbuild",
    "Repeated BFS-tree builds by flooding on a path from one end: n+1 one-node frontiers",
    "path", "roundloop", "engine", /*parity=*/"", /*scalable=*/true,
    [](const RunConfig& c) {
      const NodeId n = static_cast<NodeId>(benchkit::pick_n(c, 20000, 4000));
      auto g = std::make_shared<Graph>(make_path(n));
      auto eng = std::make_shared<runtime::ParallelEngine>(*g, c.threads);
      auto tree = std::make_shared<runtime::TreeData>();
      // Sequential reference: queue BFS from 0 whose parent is the
      // smallest-id neighbor one level up, as the flood picks it.
      auto want_level = std::make_shared<std::vector<int>>(static_cast<std::size_t>(n), -1);
      auto want_parent = std::make_shared<std::vector<NodeId>>(static_cast<std::size_t>(n), -1);
      std::vector<NodeId> queue = {0};
      (*want_level)[0] = 0;
      for (std::size_t i = 0; i < queue.size(); ++i) {
        const NodeId u = queue[i];
        for (const NodeId w : g->neighbors(u)) {
          if ((*want_level)[w] < 0) {
            (*want_level)[w] = (*want_level)[u] + 1;
            (*want_parent)[w] = u;
            queue.push_back(w);
          } else if ((*want_level)[w] == (*want_level)[u] + 1 && u < (*want_parent)[w]) {
            (*want_parent)[w] = u;
          }
        }
      }
      return Prepared{[g, eng, tree, want_level, want_parent, seed = c.seed] {
        eng->reset_metrics();
        bool ok = true;
        for (int b = 0; b < kBuilds; ++b) {
          runtime::build_tree_data(*eng, 0, tree.get());
          ok = ok && tree->level == *want_level && tree->parent == *want_parent;
        }
        std::vector<std::int64_t> flat(tree->level.begin(), tree->level.end());
        flat.insert(flat.end(), tree->parent.begin(), tree->parent.end());
        Outcome o;
        o.n = g->num_nodes();
        o.m = g->num_edges();
        o.seed = seed;
        o.metrics = eng->metrics();
        o.checksum = benchkit::checksum_values(flat);
        o.verified = ok;
        return o;
      }};
    }});

}  // namespace
}  // namespace dcolor
