// Shared derandomization NodePrograms: the engine-side building blocks of
// every seed-fixing pipeline (the derandomized MIS and the Theorem 1.1
// list coloring) — BFS-tree construction, level-synchronous tree
// pair wave and broadcast, one-round exchanges, and the color-class MIS.
//
// Each program is the NodeProgram form of one congest::Network primitive
// and charges the exact CONGEST costs of its reference implementation
// (congest::BfsTree, the Network exchange loops, mis_by_color_classes):
// identical rounds, messages, bit totals and max message size — the
// property the conformance suite in tests/derand_channel_test.cpp and
// the parity suite in tests/runtime_engine_test.cpp enforce.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "src/graph/graph.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

// A rooted tree in dense per-wave form: flat CSR arrays instead of
// vectors-of-vectors, so (a) the level-synchronous waves hand the engine
// per-level Roster views straight into `level_nodes` with zero per-phase
// work, (b) child iteration in the convergecast is a contiguous scan the
// hardware prefetches, and (c) a TreeData instance REBINDS to a new
// (cluster) tree touching only the new tree's nodes — the n-sized arrays
// are allocated once and never reset, because every consumer reads
// per-node entries only for nodes of the currently bound tree (rosters
// and child lists never lead outside it).
struct TreeData {
  NodeId root = 0;
  int depth = 0;
  std::int64_t num_tree_nodes = 0;

  // Per-node arrays (size n; only the bound tree's entries meaningful).
  std::vector<int> level;
  std::vector<NodeId> parent;
  std::vector<int> parent_nth;           // parent's index in v's adjacency
  std::vector<std::int64_t> child_off;   // v's children at children_flat[child_off[v]..)
  std::vector<std::int32_t> child_cnt;

  // Children CSR, ascending child id within each node.
  std::vector<NodeId> children_flat;
  std::vector<int> children_nth_flat;    // child's index in v's adjacency, aligned

  // Per-level rosters: level l = level_nodes[level_off[l], level_off[l+1]),
  // ascending ids within each level.
  std::vector<std::int64_t> level_off;   // depth + 2 entries
  std::vector<NodeId> level_nodes;

  Roster level_roster(int l) const {
    const std::int64_t b = level_off[l];
    return Roster::of(level_nodes.data() + b,
                      static_cast<std::size_t>(level_off[l + 1] - b));
  }

  // Rebind workspace (the ascending node list handed to
  // finalize_tree_positions); kept here so its capacity survives rebinds.
  std::vector<NodeId> sorted_scratch;
  // BFS build workspace (size n): the per-round frontiers, concatenated,
  // and their dedupe stamps. Kept here so a rebuild allocates nothing.
  std::vector<NodeId> bfs_frontier;
  std::vector<char> bfs_stamp;
};

// Builds `out` by synchronous flooding from `root` on the engine's graph,
// charging eccentricity(root) + 1 rounds and one send_all per node —
// exactly congest::BfsTree::build. Round r dispatches only the frontier
// (the unjoined neighbors of round r-1's joiners), so the simulation
// costs O(n + m) instead of O(n) per flooding round. Throws
// std::invalid_argument when the graph is not connected or `root` is
// not a node.
void build_tree_data(ParallelEngine& eng, NodeId root, TreeData* out);

// Fills the dispatch accelerators (per-level rosters, parent/children
// CSR positions) of a TreeData whose root/depth/level/parent are already
// set for every node in `nodes` (ascending ids, the full tree). Nodes
// outside the list get no roster slot and their per-node entries are
// left untouched (possibly stale from a previous bind — by design, see
// TreeData). Shared tail of the BFS (build_tree_data) and cluster-tree
// (cluster_tree_data) constructions.
void finalize_tree_positions(const Graph& g, TreeData* out, const std::vector<NodeId>& nodes);

// Reusable O(n) encode buffers of the pair wave: owned by the transports
// so the per-seed-bit waves of the Lemma 2.6 loop allocate nothing in the
// steady state.
struct AggregateScratch {
  std::vector<std::uint64_t> acc0, acc1;
};

// The pair wave over the tree (the engine form of
// congest::BfsTree::aggregate_pair, under the same congest::PairWave
// contract): sums the Q32.32 encodings of values0 and values1 over the
// tree's nodes with plain uint64 adds and returns both totals. Depth
// rounds plus ceil(2W/B) - 1 charged pipelined rounds, one min(W,B)-bit
// message per tree edge carrying the first sum's first chunk; the rest
// rides the charged chunks, summed across the phase barrier. Throws
// std::logic_error when a tree node's value encodes outside [0, (Delta+2)
// * 2^32], std::invalid_argument when n * (Delta+2) >= 2^32.
std::pair<std::uint64_t, std::uint64_t> aggregate_pair(ParallelEngine& eng, const TreeData& tree,
                                                       const std::vector<long double>& values0,
                                                       const std::vector<long double>& values1,
                                                       AggregateScratch* scratch);

// Root-to-all broadcast of one `bits`-bit value over the tree (the engine
// form of BfsTree::broadcast): depth rounds plus charged pipelining, one
// message per tree edge. 1-bit broadcasts ride the engine's flag plane
// (same charging; the value is globally known to the caller, so receivers
// never read the payload).
void tree_broadcast(ParallelEngine& eng, const TreeData& tree, std::uint64_t value, int bits);

// Roster workspace of AlongExchangeProgram (size-n arrays), owned by the
// transport so repeated exchanges allocate nothing once warm.
struct ExchangeScratch {
  std::vector<NodeId> senders;    // init roster
  std::vector<NodeId> receivers;  // delivery roster (with a `from` sink)
  std::vector<char> mark;         // receiver marks; all zero between runs
};

// One round of scatter along explicit per-node target lists (the alive
// conflict edges of a Lemma 2.1 phase, the active edges of an MIS
// iteration): each sender v delivers the first bandwidth-sized chunk of
// payloads[v] to every u in targets[v]. Each targets[v] must be an
// ascending subset of v's adjacency. If `from` is
// non-null, (*from)[v] collects the ids v received from, ascending, and
// every other entry is cleared.
// Callers charge extra pipelined chunks via ParallelEngine::tick.
class AlongExchangeProgram final : public NodeProgram {
 public:
  AlongExchangeProgram(const Graph& g, const std::vector<std::vector<NodeId>>& targets,
                       const std::vector<char>& senders,
                       const std::vector<std::uint64_t>& payloads, int first_chunk_bits,
                       std::vector<std::vector<NodeId>>* from, ExchangeScratch* scratch);

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override { return rounds == 1; }
  // Init dispatches the senders; delivery dispatches the union of their
  // targets when `from` is set, and nobody otherwise.
  Roster roster(std::int64_t round) override;

 private:
  const Graph* g_;
  const std::vector<std::vector<NodeId>>* targets_;
  const std::vector<char>* senders_;
  const std::vector<std::uint64_t>* payloads_;
  int first_chunk_bits_;
  std::uint64_t mask_;
  std::vector<std::vector<NodeId>>* from_;
  ExchangeScratch* scratch_;
};

// MIS by iterating the color classes of a proper coloring (the engine
// form of dcolor::mis_by_color_classes): class c joins in phase c and
// announces with a 1-bit flag-plane message; num_colors rounds total.
// Phases are rostered: round r dispatches exactly class r plus the
// active neighbors of the previous round's joiners (the only possible
// receivers), computed on the coordinator into reusable scratch — total
// dispatch work O(n + m) over the whole run instead of
// O(num_colors * n).
class MisColorClassesProgram final : public NodeProgram {
 public:
  MisColorClassesProgram(const InducedSubgraph& active,
                         const std::vector<std::int64_t>& coloring, std::int64_t num_colors);

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override { return rounds == num_colors_; }
  Roster roster(std::int64_t round) override;

  // Membership indicator after the run.
  std::vector<bool> in_mis() const;

 private:
  void join(NodeId v, Outbox& out);
  // Class c of the proper coloring: by_color_nodes[by_color_off[c]..).
  std::size_t class_begin(std::int64_t c) const {
    return static_cast<std::size_t>(by_color_off_[static_cast<std::size_t>(c)]);
  }
  std::size_t class_end(std::int64_t c) const {
    return static_cast<std::size_t>(by_color_off_[static_cast<std::size_t>(c) + 1]);
  }

  const InducedSubgraph* active_;
  const std::vector<std::int64_t>* coloring_;
  std::int64_t num_colors_;
  std::vector<char> in_mis_;
  std::vector<char> dominated_;
  std::vector<std::int64_t> by_color_off_;  // counting-sort CSR of active nodes
  std::vector<NodeId> by_color_nodes_;
  std::vector<NodeId> roster_scratch_;      // reserve(n): zero-alloc rosters
  std::vector<std::int64_t> seen_round_;    // roster dedupe stamps
};

}  // namespace dcolor::runtime
