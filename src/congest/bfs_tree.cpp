#include "src/congest/bfs_tree.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/util/bits.h"

namespace dcolor::congest {

BfsTree BfsTree::build(Network& net, NodeId root) {
  const Graph& g = net.graph();
  const NodeId n = g.num_nodes();
  if (root < 0 || root >= n) throw std::invalid_argument("BfsTree::build: root out of range");
  BfsTree t;
  t.root_ = root;
  t.parent_.assign(n, -1);
  t.level_.assign(n, -1);
  t.children_.assign(n, {});
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
    if (t.parent_[v] >= 0) t.children_[t.parent_[v]].push_back(v);
  }
  return t;
}

std::uint64_t BfsTree::aggregate(
    Network& net, const std::vector<std::uint64_t>& values, int bits_per_value,
    const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine) const {
  const Graph& g = net.graph();
  const NodeId n = g.num_nodes();
  assert(static_cast<NodeId>(values.size()) == n);
  const int bw = net.bandwidth_bits();
  const int chunks = (bits_per_value + bw - 1) / bw;

  std::vector<std::uint64_t> acc = values;
  // Level-synchronous convergecast: in wave w (w = depth..1), nodes at
  // level w send their accumulated value to their parent. Only the first
  // bandwidth-sized chunk travels through the simulator (one message per
  // tree edge per wave); additional chunks are pipelined and charged below.
  for (int lev = depth_; lev >= 1; --lev) {
    for (NodeId v = 0; v < n; ++v) {
      if (level_[v] != lev) continue;
      const int first_chunk_bits = std::min(bits_per_value, bw);
      const std::uint64_t first_chunk =
          first_chunk_bits >= 64 ? acc[v] : (acc[v] & ((std::uint64_t{1} << first_chunk_bits) - 1));
      net.send(v, parent_[v], first_chunk, first_chunk_bits);
    }
    net.advance_round();
    for (NodeId p = 0; p < n; ++p) {
      if (level_[p] != lev - 1) continue;
      for (const Incoming& msg : net.inbox(p)) {
        // Combine with the child's true value (the simulator transported
        // the first chunk for accounting; remaining chunks ride the
        // pipelined rounds charged after the loop).
        acc[p] = combine(acc[p], acc[msg.from]);
      }
    }
  }
  if (chunks > 1) net.tick(chunks - 1);
  return acc[root_];
}

void BfsTree::broadcast(Network& net, std::uint64_t value, int bits) const {
  const Graph& g = net.graph();
  const NodeId n = g.num_nodes();
  const int bw = net.bandwidth_bits();
  const int chunks = (bits + bw - 1) / bw;
  const int first_chunk_bits = std::min(bits, bw);
  const std::uint64_t first_chunk =
      first_chunk_bits >= 64 ? value : (value & ((std::uint64_t{1} << first_chunk_bits) - 1));
  for (int lev = 0; lev < depth_; ++lev) {
    for (NodeId v = 0; v < n; ++v) {
      if (level_[v] != lev) continue;
      for (NodeId c : children_[v]) net.send(v, c, first_chunk, first_chunk_bits);
    }
    net.advance_round();
  }
  if (chunks > 1) net.tick(chunks - 1);
}

std::uint64_t to_fixed(long double x) {
  assert(x >= 0.0L);
  const long double scaled = x * 4294967296.0L;  // 2^32
  if (scaled >= 18446744073709551615.0L) return ~std::uint64_t{0};
  return static_cast<std::uint64_t>(llroundl(scaled));
}

long double from_fixed(std::uint64_t f) {
  return static_cast<long double>(f) / 4294967296.0L;
}

std::uint64_t aggregate_fixed_sum(Network& net, const BfsTree& tree,
                                  const std::vector<long double>& values) {
  std::vector<std::uint64_t> enc(values.size());
  for (std::size_t i = 0; i < values.size(); ++i) enc[i] = to_fixed(values[i]);
  return tree.aggregate(net, enc, 64, sat_add_u64);
}

}  // namespace dcolor::congest
