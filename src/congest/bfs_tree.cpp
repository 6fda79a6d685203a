#include "src/congest/bfs_tree.h"

#include <algorithm>
#include <stdexcept>

#include "src/util/bits.h"

namespace dcolor::congest {

PairWave::PairWave(std::int64_t n, int max_degree) {
  const std::uint64_t per_node = static_cast<std::uint64_t>(max_degree) + 2;
  const std::uint64_t span = static_cast<std::uint64_t>(n) * per_node;
  if (span >= (std::uint64_t{1} << 32)) {
    throw std::invalid_argument("pair wave: n * (max degree + 2) >= 2^32, the sums exceed 64 bits");
  }
  width = 32 + bit_width_of(span);
  limit = per_node << 32;
}

void PairWave::reject() {
  throw std::logic_error("pair wave: a per-node value encodes outside [0, (max degree + 2) * 2^32]");
}

BfsTree BfsTree::build(Network& net, NodeId root) {
  const Graph& g = net.graph();
  const NodeId n = g.num_nodes();
  if (root < 0 || root >= n) throw std::invalid_argument("BfsTree::build: root out of range");
  BfsTree t;
  t.root_ = root;
  t.parent_.assign(n, -1);
  t.level_.assign(n, -1);
  t.level_[root] = 0;

  const int id_bits = bit_width_of(static_cast<std::uint64_t>(n));
  std::vector<NodeId> frontier = {root};
  int level = 0;
  while (!frontier.empty()) {
    for (NodeId v : frontier) net.send_all(v, static_cast<std::uint64_t>(v), id_bits);
    net.advance_round();
    std::vector<NodeId> next;
    for (NodeId v = 0; v < n; ++v) {
      if (t.level_[v] >= 0) continue;
      NodeId best_parent = -1;
      for (const Incoming& msg : net.inbox(v)) {
        const NodeId from = static_cast<NodeId>(msg.payload);
        if (best_parent < 0 || from < best_parent) best_parent = from;
      }
      if (best_parent >= 0) {
        t.level_[v] = level + 1;
        t.parent_[v] = best_parent;
        next.push_back(v);
      }
    }
    ++level;
    frontier = std::move(next);
  }
  for (NodeId v = 0; v < n; ++v) {
    if (t.level_[v] < 0) throw std::invalid_argument("BfsTree requires a connected graph");
    t.depth_ = std::max(t.depth_, t.level_[v]);
  }
  t.index_levels();
  return t;
}

BfsTree BfsTree::from_parents(NodeId n, const std::vector<NodeId>& nodes,
                              const std::vector<NodeId>& parents, int min_depth) {
  BfsTree t;
  t.parent_.assign(n, -1);
  t.level_.assign(n, -1);
  t.depth_ = min_depth;
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const NodeId v = nodes[i];
    const NodeId p = parents[i];
    if (p >= 0 && t.level_[p] < 0) {
      throw std::invalid_argument("BfsTree::from_parents: a parent is listed after its child");
    }
    t.parent_[v] = p;
    t.level_[v] = p < 0 ? 0 : t.level_[p] + 1;
    if (p < 0) t.root_ = v;
    t.depth_ = std::max(t.depth_, t.level_[v]);
  }
  t.index_levels();
  return t;
}

void BfsTree::index_levels() {
  // Counting sort by level over an ascending scan: ascending ids within
  // each level.
  level_off_.assign(static_cast<std::size_t>(depth_) + 2, 0);
  for (const int l : level_) {
    if (l >= 0) ++level_off_[static_cast<std::size_t>(l) + 1];
  }
  for (std::size_t l = 1; l < level_off_.size(); ++l) level_off_[l] += level_off_[l - 1];
  level_nodes_.resize(static_cast<std::size_t>(level_off_.back()));
  std::vector<std::int64_t> cursor(level_off_.begin(), level_off_.end() - 1);
  for (NodeId v = 0; v < static_cast<NodeId>(level_.size()); ++v) {
    if (level_[v] >= 0) level_nodes_[static_cast<std::size_t>(cursor[level_[v]]++)] = v;
  }
}

std::pair<std::uint64_t, std::uint64_t> BfsTree::aggregate_pair(
    Network& net, const std::vector<long double>& values0,
    const std::vector<long double>& values1) const {
  const PairWave wave(net.graph());
  std::vector<std::uint64_t> acc0(level_.size()), acc1(level_.size());
  for (const NodeId v : level_nodes_) {
    acc0[v] = wave.encode(values0[v]);
    acc1[v] = wave.encode(values1[v]);
  }
  // Level-synchronous convergecast: in wave w (w = depth..1) the nodes at
  // level w send to their parents. Only the first chunk of the first sum
  // travels through the simulator, one message per tree edge; the rest of
  // both sums rides the pipelined rounds charged after the loop.
  const int bw = net.bandwidth_bits();
  const int bits = wave.message_bits(bw);
  const std::uint64_t mask = bits >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << bits) - 1;
  for (int lev = depth_; lev >= 1; --lev) {
    for (const NodeId v : level_nodes(lev)) net.send(v, parent_[v], acc0[v] & mask, bits);
    net.advance_round();
    for (const NodeId v : level_nodes(lev)) {
      acc0[parent_[v]] += acc0[v];
      acc1[parent_[v]] += acc1[v];
    }
  }
  net.tick(wave.pipelined_rounds(bw));
  return {acc0[root_], acc1[root_]};
}

void BfsTree::broadcast(Network& net, std::uint64_t value, int bits) const {
  const int bw = net.bandwidth_bits();
  const int chunks = (bits + bw - 1) / bw;
  const int first_chunk_bits = std::min(bits, bw);
  const std::uint64_t first_chunk =
      first_chunk_bits >= 64 ? value : (value & ((std::uint64_t{1} << first_chunk_bits) - 1));
  for (int lev = 1; lev <= depth_; ++lev) {
    for (const NodeId v : level_nodes(lev)) net.send(parent_[v], v, first_chunk, first_chunk_bits);
    net.advance_round();
  }
  if (chunks > 1) net.tick(chunks - 1);
}

}  // namespace dcolor::congest
