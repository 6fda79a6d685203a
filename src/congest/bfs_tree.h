// Distributed BFS tree construction plus convergecast / broadcast
// primitives over the tree. These are the global-aggregation workhorses
// of the derandomization (Lemma 2.6): fixing one seed bit costs one
// aggregation + one broadcast, i.e. O(D) rounds.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/congest/network.h"

namespace dcolor::congest {

class BfsTree {
 public:
  // Builds a BFS tree rooted at `root` by synchronous flooding, charging
  // the actual flooding rounds (eccentricity(root) + 1) to `net`.
  // Throws std::invalid_argument when the graph is not connected or
  // `root` is not a node.
  static BfsTree build(Network& net, NodeId root);

  NodeId root() const { return root_; }
  int depth() const { return depth_; }
  NodeId parent(NodeId v) const { return parent_[v]; }
  const std::vector<int>& levels() const { return level_; }

  // Convergecast: every node holds an encoded value `values[v]` of
  // `bits_per_value` bits; `combine` is associative and size-preserving
  // (the combined value still fits in bits_per_value). Values move level
  // by level toward the root; result is the combination of all values.
  //
  // Round cost: depth() rounds when bits_per_value <= bandwidth; wider
  // values are split into ceil(bits/B) chunks and pipelined, costing
  // depth() + chunks - 1 rounds (the extra rounds are charged via tick,
  // with the chunk messages themselves carried on the first wave).
  std::uint64_t aggregate(
      Network& net, const std::vector<std::uint64_t>& values, int bits_per_value,
      const std::function<std::uint64_t(std::uint64_t, std::uint64_t)>& combine) const;

  // Root-to-all broadcast of one value. Cost: depth() rounds (+ pipelining
  // for wide values, as in aggregate).
  void broadcast(Network& net, std::uint64_t value, int bits) const;

 private:
  NodeId root_ = 0;
  int depth_ = 0;
  std::vector<NodeId> parent_;
  std::vector<int> level_;
  std::vector<std::vector<NodeId>> children_;
};

// Convenience: aggregate a sum of non-negative Q32.32 fixed-point values
// (saturating), as used for conditional-expectation sums.
std::uint64_t aggregate_fixed_sum(Network& net, const BfsTree& tree,
                                  const std::vector<long double>& values);

// Fixed-point codec shared by aggregation users. 32 fractional bits.
std::uint64_t to_fixed(long double x);
long double from_fixed(std::uint64_t f);

}  // namespace dcolor::congest
