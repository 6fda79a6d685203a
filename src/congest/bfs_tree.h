// Rooted aggregation trees on the CONGEST simulator, and the one pair
// wave of the derandomization (Lemma 2.6): fixing one seed bit costs one
// convergecast of two conditional-expectation sums plus a one-bit
// broadcast, i.e. O(depth) rounds. A tree is either flooded as a BFS
// tree of the whole graph (Theorem 1.1, the MIS) or taken from a given
// parent array, such as a network-decomposition cluster's associated
// tree (Corollary 1.2).
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "src/congest/network.h"

namespace dcolor::congest {

static_assert(std::numeric_limits<long double>::digits == 64,
              "to_fixed reads the 80-bit extended format: a 64-bit mantissa with an explicit "
              "integer bit");

// Fixed-point codec of the pair wave: Q32.32, rounded half away from
// zero. Defined for 0 <= x < 2^32; bit-identical to llroundl(x * 2^32)
// wherever that fits a long, but integer-only: x = mant * 2^(e - 16383 -
// 63), so x * 2^32 = mant >> (16414 - e), and rounding half away from
// zero adds the first dropped bit.
inline std::uint64_t to_fixed(long double x) {
  std::uint64_t mant;
  std::uint16_t sign_exp;
  std::memcpy(&mant, &x, sizeof mant);
  std::memcpy(&sign_exp, reinterpret_cast<const char*>(&x) + sizeof mant, sizeof sign_exp);
  const int shift = 16414 - (sign_exp & 0x7fff);
  assert(shift >= 0 && "to_fixed: x >= 2^32");
  if (shift == 0) return mant;
  if (shift > 64) return 0;
  if (shift == 64) return mant >> 63;
  return (mant >> shift) + ((mant >> (shift - 1)) & 1);
}

inline long double from_fixed(std::uint64_t f) {
  return static_cast<long double>(f) / 4294967296.0L;
}

// The contract of the pair wave on a graph with n nodes and max degree
// Delta, shared by both executors. Every per-node value must encode
// inside [0, (Delta+2) * 2^32]: a node's coloring potential is at most
// its degree and its MIS estimator share at most Delta + 2. So no sum of
// at most n encodings reaches 2^W, W = 32 + bit_width(n * (Delta+2)),
// and plain uint64 adds are exact. The two W-bit sums travel pipelined
// in min(W, B)-bit chunks: one message per tree edge, depth +
// ceil(2W/B) - 1 rounds.
struct PairWave {
  int width = 0;            // W
  std::uint64_t limit = 0;  // (Delta+2) * 2^32, the largest encoding allowed

  // Throws std::invalid_argument when n * (Delta+2) >= 2^32 (W > 64).
  PairWave(std::int64_t n, int max_degree);
  explicit PairWave(const Graph& g) : PairWave(g.num_nodes(), g.max_degree()) {}

  // to_fixed(x); throws std::logic_error when the encoding falls outside
  // [0, limit] (negative, NaN or too large), in every build type.
  std::uint64_t encode(long double x) const {
    if (x >= 0.0L && x < 4294967296.0L) {
      const std::uint64_t f = to_fixed(x);
      if (f <= limit) return f;
    }
    reject();
  }

  int message_bits(int bandwidth) const { return width < bandwidth ? width : bandwidth; }
  // Rounds charged after the depth-round wave for the remaining chunks.
  int pipelined_rounds(int bandwidth) const { return (2 * width + bandwidth - 1) / bandwidth - 1; }

 private:
  [[noreturn]] static void reject();
};

class BfsTree {
 public:
  // Builds a BFS tree rooted at `root` by synchronous flooding, charging
  // the actual flooding rounds (eccentricity(root) + 1) to `net`.
  // Throws std::invalid_argument when the graph is not connected or
  // `root` is not a node.
  static BfsTree build(Network& net, NodeId root);

  // The given rooted tree on nodes of an n-node graph, charging nothing:
  // parents[i] is nodes[i]'s parent (-1 for the root), and every parent
  // is listed before its children. Its depth is the larger of
  // `min_depth` (a depth the tree's owner already accounts for) and the
  // deepest level. Nodes outside the list are not in the tree.
  static BfsTree from_parents(NodeId n, const std::vector<NodeId>& nodes,
                              const std::vector<NodeId>& parents, int min_depth = 0);

  NodeId root() const { return root_; }
  int depth() const { return depth_; }
  NodeId parent(NodeId v) const { return parent_[v]; }
  // Per node; -1 outside the tree.
  const std::vector<int>& levels() const { return level_; }
  // The tree's nodes at level l, ascending ids.
  std::span<const NodeId> level_nodes(int l) const {
    return {level_nodes_.data() + level_off_[l],
            static_cast<std::size_t>(level_off_[l + 1] - level_off_[l])};
  }

  // The pair wave (see PairWave, whose contract it enforces): sums the
  // Q32.32 encodings of values0 and values1 over the tree's nodes and
  // returns both fixed-point totals. Values of nodes outside the tree
  // are ignored.
  std::pair<std::uint64_t, std::uint64_t> aggregate_pair(
      Network& net, const std::vector<long double>& values0,
      const std::vector<long double>& values1) const;

  // Root-to-all broadcast of one value. Cost: depth() rounds, plus
  // ceil(bits/B) - 1 charged rounds for wide values.
  void broadcast(Network& net, std::uint64_t value, int bits) const;

 private:
  // Fills level_off_/level_nodes_ from level_ and depth_.
  void index_levels();

  NodeId root_ = 0;
  int depth_ = 0;
  std::vector<NodeId> parent_;
  std::vector<int> level_;
  std::vector<std::int64_t> level_off_;  // depth + 2 entries
  std::vector<NodeId> level_nodes_;
};

}  // namespace dcolor::congest
