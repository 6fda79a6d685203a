#include "src/runtime/derand_program.h"

#include <algorithm>
#include <stdexcept>

#include "src/congest/bfs_tree.h"  // PairWave
#include "src/util/bits.h"

namespace dcolor::runtime {
namespace {

// Synchronous flooding, the NodeProgram form of congest::BfsTree::build:
// a node joins the tree the round it first hears a joined neighbor
// (smallest sender id wins) and floods its own id once. Charges
// eccentricity(root) + 1 rounds, one send_all per node.
//
// Frontier roster. Proof obligation: in round r, on_round acts only on a
// node that is unjoined AND hears a message, i.e. an unjoined neighbor of
// a node that joined (and flooded) in phase r-1. Every other node is
// already joined and returns at the level check, or has an empty inbox
// and returns with best_parent < 0, before touching state. So round 0
// dispatches {root} and round r exactly those neighbors, ascending and
// deduplicated with the stamp array. Each of them hears its joiner, so
// it joins in that very round: the round-r roster is BFS level r, the
// rosters are disjoint, and their concatenation in tree->bfs_frontier
// costs O(n + m) over the build. The round after the deepest level has
// an empty frontier; it runs as Roster::none() and is still charged,
// which keeps the count at ecc + 1, and done() stops after it.
class BfsBuildProgram final : public NodeProgram {
 public:
  BfsBuildProgram(const Graph& g, NodeId root, TreeData* out)
      : g_(&g), root_(root), out_(out) {
    const std::size_t n = static_cast<std::size_t>(g.num_nodes());
    out_->root = root;
    out_->depth = 0;
    out_->level.assign(n, -1);
    out_->parent.assign(n, -1);
    out_->level[root] = 0;
    out_->bfs_frontier.resize(n);  // no-op after the first build
    out_->bfs_stamp.assign(n, 0);
    out_->bfs_frontier[0] = root;
    out_->bfs_stamp[static_cast<std::size_t>(root)] = 1;
    id_bits_ = bit_width_of(static_cast<std::uint64_t>(g.num_nodes()));
  }

  void init(NodeId v, Outbox& out) override {
    if (v != root_) return;
    out.send_all(static_cast<std::uint64_t>(v), id_bits_);
  }

  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override {
    if (out_->level[v] >= 0) return;
    NodeId best_parent = -1;
    in.for_each([&](NodeId, std::uint64_t payload) {
      const NodeId from = static_cast<NodeId>(payload);
      if (best_parent < 0 || from < best_parent) best_parent = from;
    });
    if (best_parent < 0) return;
    out_->level[v] = static_cast<int>(round);
    out_->parent[v] = best_parent;
    out.send_all(static_cast<std::uint64_t>(v), id_bits_);
  }

  // Every rostered node joins in its round, so no node joined in phase
  // `rounds` exactly when its roster was empty.
  bool done(std::int64_t rounds) override { return rounds > 0 && begin_ == end_; }

  Roster roster(std::int64_t round) override {
    NodeId* f = out_->bfs_frontier.data();
    if (round > 0) {
      std::size_t next = end_;
      for (std::size_t i = begin_; i < end_; ++i) {
        for (const NodeId w : g_->neighbors(f[i])) {
          char& seen = out_->bfs_stamp[static_cast<std::size_t>(w)];
          if (seen) continue;
          seen = 1;
          f[next++] = w;
        }
      }
      std::sort(f + end_, f + next);
      begin_ = end_;
      end_ = next;
    }
    if (begin_ == end_) return Roster::none();
    return Roster::of(f + begin_, end_ - begin_);
  }

  // Nodes that joined: n exactly when the graph is connected.
  std::size_t reached() const { return end_; }

 private:
  const Graph* g_;
  NodeId root_;
  TreeData* out_;
  int id_bits_ = 0;
  std::size_t begin_ = 0, end_ = 1;  // this round's frontier in bfs_frontier
};

// The pair wave (the NodeProgram form of congest::BfsTree::aggregate_pair):
// in phase r the nodes at level depth-r add their children's two
// accumulators and forward toward the root. Only the first accumulator's
// first chunk travels through the simulator — the parent reads the
// child's full accumulators across the phase barrier (a contiguous
// children-CSR scan; the staged messages stay for CONGEST accounting and
// contract checks), and the remaining chunks are charged by the caller
// via tick, exactly as on the Network.
class PairWaveProgram final : public NodeProgram {
 public:
  PairWaveProgram(const TreeData& t, std::uint64_t* acc0, std::uint64_t* acc1, int message_bits)
      : tree_(&t), acc0_(acc0), acc1_(acc1), bits_(message_bits) {
    mask_ = bits_ >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits_) - 1;
  }

  void init(NodeId v, Outbox& out) override {
    if (tree_->depth > 0 && tree_->level[v] == tree_->depth) send_up(v, out);
  }

  void on_round(std::int64_t round, NodeId v, const Inbox&, Outbox& out) override {
    if (tree_->level[v] != tree_->depth - static_cast<int>(round)) return;
    const std::int64_t off = tree_->child_off[v];
    const std::int32_t cnt = tree_->child_cnt[v];
    std::uint64_t s0 = acc0_[v], s1 = acc1_[v];
    for (std::int32_t j = 0; j < cnt; ++j) {
      const NodeId c = tree_->children_flat[off + j];
      s0 += acc0_[c];
      s1 += acc1_[c];
    }
    acc0_[v] = s0;
    acc1_[v] = s1;
    if (v != tree_->root) send_up(v, out);
  }

  bool done(std::int64_t rounds) override { return rounds == tree_->depth; }

  // Wave r only ever acts on level depth-r (and the init wave on the
  // deepest level): dispatch exactly that level.
  Roster roster(std::int64_t round) override {
    return tree_->level_roster(tree_->depth - static_cast<int>(round));
  }

 private:
  void send_up(NodeId v, Outbox& out) {
    out.send_nth(tree_->parent_nth[v], acc0_[v] & mask_, bits_);
  }

  const TreeData* tree_;
  std::uint64_t* acc0_;
  std::uint64_t* acc1_;
  int bits_;
  std::uint64_t mask_;
};

// Root-to-all broadcast over the tree (NodeProgram form of
// congest::BfsTree::broadcast): level-r nodes forward to their children
// in phase r; depth rounds, one message per tree edge. 1-bit broadcasts
// go over the flag plane (identical charging; no receiver ever reads the
// payload — the broadcast value is known to the caller).
class TreeBroadcastProgram final : public NodeProgram {
 public:
  TreeBroadcastProgram(const TreeData& t, std::uint64_t value, int bits, int bandwidth)
      : tree_(&t) {
    first_chunk_bits_ = std::min(bits, bandwidth);
    first_chunk_ = first_chunk_bits_ >= 64
                       ? value
                       : (value & ((std::uint64_t{1} << first_chunk_bits_) - 1));
  }

  void init(NodeId v, Outbox& out) override {
    if (v == tree_->root && tree_->depth > 0) forward(v, out);
  }

  void on_round(std::int64_t round, NodeId v, const Inbox&, Outbox& out) override {
    if (tree_->level[v] == static_cast<int>(round)) forward(v, out);
  }

  bool done(std::int64_t rounds) override { return rounds == tree_->depth; }

  // Wave r forwards from level r (init from the root): dispatch exactly
  // that level.
  Roster roster(std::int64_t round) override {
    return tree_->level_roster(static_cast<int>(round));
  }

 private:
  void forward(NodeId v, Outbox& out) {
    const std::int64_t off = tree_->child_off[v];
    const std::int32_t cnt = tree_->child_cnt[v];
    if (first_chunk_bits_ == 1) {
      for (std::int32_t j = 0; j < cnt; ++j) out.send_flag_nth(tree_->children_nth_flat[off + j]);
    } else {
      for (std::int32_t j = 0; j < cnt; ++j) {
        out.send_nth(tree_->children_nth_flat[off + j], first_chunk_, first_chunk_bits_);
      }
    }
  }

  const TreeData* tree_;
  std::uint64_t first_chunk_;
  int first_chunk_bits_;
};

}  // namespace

void build_tree_data(ParallelEngine& eng, NodeId root, TreeData* out) {
  const Graph& g = eng.graph();
  if (root < 0 || root >= g.num_nodes()) {
    throw std::invalid_argument("build_tree_data: root out of range");
  }
  BfsBuildProgram prog(g, root, out);
  eng.run(prog);
  // An unreached node would keep level -1 and index level_off[-1] below.
  if (prog.reached() != static_cast<std::size_t>(g.num_nodes())) {
    throw std::invalid_argument("build_tree_data requires a connected graph");
  }
  out->sorted_scratch.resize(static_cast<std::size_t>(g.num_nodes()));
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    out->depth = std::max(out->depth, out->level[v]);
    out->sorted_scratch[static_cast<std::size_t>(v)] = v;
  }
  finalize_tree_positions(g, out, out->sorted_scratch);
}

void finalize_tree_positions(const Graph& g, TreeData* out, const std::vector<NodeId>& nodes) {
  const NodeId n = g.num_nodes();
  out->num_tree_nodes = static_cast<std::int64_t>(nodes.size());
  out->level.resize(static_cast<std::size_t>(n));  // no-op after first bind
  out->parent.resize(static_cast<std::size_t>(n));
  out->parent_nth.resize(static_cast<std::size_t>(n));
  out->child_off.resize(static_cast<std::size_t>(n));
  out->child_cnt.resize(static_cast<std::size_t>(n));
  out->children_flat.resize(nodes.size());
  out->children_nth_flat.resize(nodes.size());
  out->level_off.assign(static_cast<std::size_t>(out->depth) + 2, 0);
  out->level_nodes.resize(nodes.size());

  // Counting sorts over the tree's own nodes only: per-level rosters and
  // the children CSR, both ascending-id within a group because `nodes`
  // is ascending.
  for (const NodeId v : nodes) {
    ++out->level_off[static_cast<std::size_t>(out->level[v]) + 1];
    out->child_cnt[v] = 0;
  }
  for (std::size_t l = 1; l < out->level_off.size(); ++l) {
    out->level_off[l] += out->level_off[l - 1];
  }
  for (const NodeId v : nodes) {
    if (out->parent[v] >= 0) ++out->child_cnt[out->parent[v]];
  }
  {
    std::int64_t off = 0;
    for (const NodeId v : nodes) {
      out->child_off[v] = off;
      off += out->child_cnt[v];
      out->child_cnt[v] = 0;  // reused as the fill cursor below
    }
  }

  auto nth_of = [&g](NodeId v, NodeId u) {
    const auto nb = g.neighbors(v);
    return static_cast<int>(std::lower_bound(nb.begin(), nb.end(), u) - nb.begin());
  };
  // One cursor array per level would cost O(depth); reuse level_off as
  // cursors and rebuild it afterwards instead.
  for (const NodeId v : nodes) {
    out->level_nodes[static_cast<std::size_t>(
        out->level_off[static_cast<std::size_t>(out->level[v])]++)] = v;
    const NodeId p = out->parent[v];
    if (p >= 0) {
      const std::int64_t slot = out->child_off[p] + out->child_cnt[p]++;
      out->children_flat[static_cast<std::size_t>(slot)] = v;
      out->children_nth_flat[static_cast<std::size_t>(slot)] = nth_of(p, v);
      out->parent_nth[v] = nth_of(v, p);
    } else {
      out->parent_nth[v] = -1;
    }
  }
  for (std::size_t l = out->level_off.size() - 1; l > 0; --l) {
    out->level_off[l] = out->level_off[l - 1];
  }
  out->level_off[0] = 0;
}

std::pair<std::uint64_t, std::uint64_t> aggregate_pair(ParallelEngine& eng, const TreeData& tree,
                                                       const std::vector<long double>& values0,
                                                       const std::vector<long double>& values1,
                                                       AggregateScratch* scratch) {
  const congest::PairWave wave(eng.graph());
  const std::size_t n = static_cast<std::size_t>(eng.graph().num_nodes());
  scratch->acc0.resize(n);
  scratch->acc1.resize(n);
  for (const NodeId v : tree.level_nodes) {
    scratch->acc0[v] = wave.encode(values0[v]);
    scratch->acc1[v] = wave.encode(values1[v]);
  }
  const int bw = eng.bandwidth_bits();
  PairWaveProgram prog(tree, scratch->acc0.data(), scratch->acc1.data(), wave.message_bits(bw));
  eng.run(prog);
  eng.tick(wave.pipelined_rounds(bw));
  return {scratch->acc0[tree.root], scratch->acc1[tree.root]};
}

void tree_broadcast(ParallelEngine& eng, const TreeData& tree, std::uint64_t value, int bits) {
  TreeBroadcastProgram prog(tree, value, bits, eng.bandwidth_bits());
  eng.run(prog);
  const int chunks = (bits + eng.bandwidth_bits() - 1) / eng.bandwidth_bits();
  if (chunks > 1) eng.tick(chunks - 1);
}

AlongExchangeProgram::AlongExchangeProgram(const Graph& g,
                                           const std::vector<std::vector<NodeId>>& targets,
                                           const std::vector<char>& senders,
                                           const std::vector<std::uint64_t>& payloads,
                                           int first_chunk_bits,
                                           std::vector<std::vector<NodeId>>* from,
                                           ExchangeScratch* scratch)
    : g_(&g), targets_(&targets), senders_(&senders), payloads_(&payloads),
      first_chunk_bits_(first_chunk_bits), from_(from), scratch_(scratch) {
  mask_ = first_chunk_bits_ >= 64 ? ~std::uint64_t{0}
                                  : ((std::uint64_t{1} << first_chunk_bits_) - 1);
  const std::size_t n = static_cast<std::size_t>(g.num_nodes());
  scratch_->senders.reserve(n);  // no-ops once warm
  scratch_->receivers.reserve(n);
  scratch_->mark.resize(n, 0);
}

void AlongExchangeProgram::init(NodeId v, Outbox& out) {
  if (!(*senders_)[v]) return;
  // Two-pointer merge over the sorted adjacency: targets[v] is an
  // ascending subset of it, so each send is O(1) instead of the O(log
  // deg) edge lookup of Outbox::send. A target outside the adjacency is
  // a non-edge send and must throw exactly as the Network transport
  // does, not silently hit a neighboring slot.
  const auto nb = g_->neighbors(v);
  std::size_t j = 0;
  for (NodeId u : (*targets_)[v]) {
    while (j < nb.size() && nb[j] < u) ++j;
    if (j >= nb.size() || nb[j] != u) {
      throw congest::CongestViolation("exchange target is not a neighbor (send over non-edge)");
    }
    out.send_nth(static_cast<int>(j), (*payloads_)[v] & mask_, first_chunk_bits_);
    ++j;
  }
}

void AlongExchangeProgram::on_round(std::int64_t, NodeId v, const Inbox& in, Outbox&) {
  if (from_ == nullptr) return;
  auto& fv = (*from_)[v];
  fv.clear();
  in.for_each([&](NodeId from, std::uint64_t) { fv.push_back(from); });
}

Roster AlongExchangeProgram::roster(std::int64_t round) {
  // Proof obligation: init returns at once for a non-sender, and in the
  // delivery round a node that no sender targeted has an empty inbox, so
  // its on_round only clears (*from_)[v] — done here on the coordinator
  // instead, which keeps the sink contract of the Network transport.
  // Without a sink the delivery round is a no-op for every node.
  const NodeId n = g_->num_nodes();
  if (round == 0) {
    scratch_->senders.clear();
    for (NodeId v = 0; v < n; ++v) {
      if ((*senders_)[v]) scratch_->senders.push_back(v);
    }
    return Roster::of(scratch_->senders);
  }
  if (from_ == nullptr) return Roster::none();
  char* mark = scratch_->mark.data();
  for (const NodeId v : scratch_->senders) {
    for (const NodeId u : (*targets_)[v]) mark[u] = 1;
  }
  // The ascending scan yields the receivers sorted and deduplicated, and
  // resets the marks for the next exchange.
  scratch_->receivers.clear();
  for (NodeId v = 0; v < n; ++v) {
    if (mark[v]) {
      mark[v] = 0;
      scratch_->receivers.push_back(v);
    } else {
      (*from_)[v].clear();
    }
  }
  return Roster::of(scratch_->receivers);
}

MisColorClassesProgram::MisColorClassesProgram(const InducedSubgraph& active,
                                               const std::vector<std::int64_t>& coloring,
                                               std::int64_t num_colors)
    : active_(&active), coloring_(&coloring), num_colors_(num_colors) {
  const NodeId n = active.base().num_nodes();
  in_mis_.assign(n, 0);
  dominated_.assign(n, 0);
  // Counting-sort CSR of the active nodes by color, ascending ids within
  // a class; plus the roster scratch, reserved so the per-round roster
  // builds below never allocate.
  by_color_off_.assign(static_cast<std::size_t>(std::max<std::int64_t>(num_colors, 0)) + 1, 0);
  seen_round_.assign(static_cast<std::size_t>(n), -1);
  std::int64_t active_count = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (active.contains(v)) {
      ++by_color_off_[static_cast<std::size_t>(coloring[v]) + 1];
      ++active_count;
    }
  }
  for (std::size_t c = 1; c < by_color_off_.size(); ++c) by_color_off_[c] += by_color_off_[c - 1];
  by_color_nodes_.resize(static_cast<std::size_t>(active_count));
  std::vector<std::int64_t> cursor(by_color_off_.begin(), by_color_off_.end() - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (active.contains(v)) {
      by_color_nodes_[static_cast<std::size_t>(cursor[static_cast<std::size_t>(coloring[v])]++)] =
          v;
    }
  }
  roster_scratch_.reserve(static_cast<std::size_t>(n));
}

void MisColorClassesProgram::join(NodeId v, Outbox& out) {
  in_mis_[v] = 1;
  dominated_[v] = 1;
  const auto nb = active_->base().neighbors(v);
  for (std::size_t j = 0; j < nb.size(); ++j) {
    if (active_->contains(nb[j])) out.send_flag_nth(static_cast<int>(j));
  }
}

void MisColorClassesProgram::init(NodeId v, Outbox& out) {
  if (num_colors_ > 0 && active_->contains(v) && (*coloring_)[v] == 0) join(v, out);
}

void MisColorClassesProgram::on_round(std::int64_t round, NodeId v, const Inbox& in,
                                      Outbox& out) {
  if (!active_->contains(v)) return;
  if (!in.empty()) dominated_[v] = 1;
  if ((*coloring_)[v] == round && !dominated_[v]) join(v, out);
}

Roster MisColorClassesProgram::roster(std::int64_t round) {
  if (num_colors_ == 0) return Roster::none();
  if (round == 0) {
    // Only class 0 can act in init.
    return Roster::of(by_color_nodes_.data() + class_begin(0),
                      class_end(0) - class_begin(0));
  }
  // Round r touches exactly class r (join candidates) plus the active
  // neighbors of round r-1's joiners (the only nodes with live inboxes);
  // everyone else provably stages nothing and changes nothing.
  roster_scratch_.clear();
  if (round < num_colors_) {
    for (std::size_t i = class_begin(round); i < class_end(round); ++i) {
      const NodeId v = by_color_nodes_[i];
      seen_round_[static_cast<std::size_t>(v)] = round;
      roster_scratch_.push_back(v);
    }
  }
  for (std::size_t i = class_begin(round - 1); i < class_end(round - 1); ++i) {
    const NodeId u = by_color_nodes_[i];
    if (!in_mis_[u]) continue;
    for (const NodeId w : active_->base().neighbors(u)) {
      if (!active_->contains(w)) continue;
      if (seen_round_[static_cast<std::size_t>(w)] == round) continue;
      seen_round_[static_cast<std::size_t>(w)] = round;
      roster_scratch_.push_back(w);
    }
  }
  std::sort(roster_scratch_.begin(), roster_scratch_.end());
  return Roster::of(roster_scratch_);
}

std::vector<bool> MisColorClassesProgram::in_mis() const {
  std::vector<bool> out(in_mis_.size());
  for (std::size_t v = 0; v < in_mis_.size(); ++v) out[v] = in_mis_[v] != 0;
  return out;
}

}  // namespace dcolor::runtime
