// The communication abstraction of the seed-fixing pipelines (Theorem 1.1,
// Corollary 1.2 and the derandomized MIS).
//
// ColoringTransport is every communication primitive the shared cores
// (color_one_eighth, list_color_subset, derandomized_mis_core) issue: the
// Linial input coloring, the aggregation tree, one-round exchanges along
// explicit edge lists, the Lemma 2.6 pair wave and bit broadcast over the
// tree, and the conflict-resolution MIS. The cores are written once over
// this interface; congest::Network provides the sequential reference
// execution (NetworkColoringTransport below) and runtime::ParallelEngine
// the parallel one (runtime::EngineColoringTransport in
// src/runtime/theorem11_program.h).
//
// The tree is a BFS tree of the whole graph (Theorem 1.1, the MIS:
// O(D) rounds per seed bit), built by build_tree, or a network-
// decomposition cluster's associated tree bound at construction
// (Corollary 1.2: O(log^3 n) rounds per bit, the decomposition's
// congestion factor charged by the caller). Either way one pair wave
// (congest::PairWave) sums both conditional expectations.
// Implementations must charge identical CONGEST costs for identical call
// sequences — the conformance suite in tests/derand_channel_test.cpp
// holds them to it.
#pragma once

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "src/coloring/linial.h"
#include "src/congest/bfs_tree.h"
#include "src/congest/network.h"

namespace dcolor {

class ColoringTransport {
 public:
  virtual ~ColoringTransport() = default;

  virtual const Graph& graph() const = 0;
  virtual int bandwidth_bits() const = 0;

  // Proper input coloring of the active subgraph, Linial-style (from ids
  // when `initial` is null, otherwise from the given proper coloring).
  virtual LinialResult linial(const InducedSubgraph& active,
                              const std::vector<std::int64_t>* initial,
                              std::int64_t initial_colors) = 0;

  // Build the aggregation tree rooted at `root` (graph must be
  // connected); later aggregate_pair/broadcast_bit calls run over it.
  // Transports bound to an external tree (a cluster tree) already have
  // one and must not be asked to build another.
  virtual void build_tree(NodeId root) = 0;

  // One round: every node v with senders[v] != 0 sends payloads[v],
  // declared `bits` wide, to every u in targets[v]. Each targets[v] must
  // be an ascending subset of v's adjacency. Wide payloads are split into
  // ceil(bits/B) pipelined chunks: only the first chunk travels through
  // the simulator, the extra chunks are charged as idle rounds, and
  // receivers observe the sender's full payload. If `from` is non-null,
  // (*from)[v] is set to the ids v received from, in ascending order.
  virtual void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                              const std::vector<char>& senders,
                              const std::vector<std::uint64_t>& payloads, int bits,
                              std::vector<std::vector<NodeId>>* from) = 0;

  // Lemma 2.6, over the tree from build_tree (or the bound tree): one
  // pair wave summing both per-node values (congest::PairWave: each must
  // encode inside [0, (Delta+2) * 2^32], else std::logic_error), and the
  // broadcast of the chosen bit.
  virtual std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) = 0;
  virtual void broadcast_bit(int bit) = 0;

  // Conflict resolution of Lemma 2.1: on the materialized conflict graph
  // `conf` (max degree <= 3) restricted to `membership`, run Linial from
  // the phase's input coloring and then the color-class MIS. Only rounds
  // are charged to this transport (the conflict graph is a subgraph of G,
  // so its messages travel on G's edges inside the same rounds).
  virtual std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                         const std::vector<std::int64_t>& input_coloring,
                                         std::int64_t input_colors) = 0;

  // Charged idle rounds (pipelined chunks, conservative accounting).
  virtual void tick(std::int64_t rounds) = 0;

  virtual const congest::Metrics& metrics() const = 0;
};

// Reference transport: the sequential CONGEST simulator. Every primitive
// is exactly the call sequence the pre-transport implementation issued,
// so metrics are unchanged and the parallel engine has a golden model.
class NetworkColoringTransport final : public ColoringTransport {
 public:
  // Self-managed aggregation: build_tree floods a BFS tree and binds it
  // (the Theorem 1.1 configuration).
  explicit NetworkColoringTransport(congest::Network& net) : net_(&net) {}

  // Bound to an external tree (e.g. a network-decomposition cluster's
  // tree, as in Corollary 1.2); build_tree must not be called.
  NetworkColoringTransport(congest::Network& net, const congest::BfsTree& tree)
      : net_(&net), tree_(&tree) {}

  const Graph& graph() const override { return net_->graph(); }
  int bandwidth_bits() const override { return net_->bandwidth_bits(); }

  LinialResult linial(const InducedSubgraph& active, const std::vector<std::int64_t>* initial,
                      std::int64_t initial_colors) override;
  void build_tree(NodeId root) override;
  void exchange_along(const std::vector<std::vector<NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<NodeId>>* from) override;
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override;
  void broadcast_bit(int bit) override;
  std::vector<bool> conflict_mis(const Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override;
  void tick(std::int64_t rounds) override { net_->tick(rounds); }
  const congest::Metrics& metrics() const override { return net_->metrics(); }

  congest::Network& network() { return *net_; }

 private:
  congest::Network* net_;
  const congest::BfsTree* tree_ = nullptr;
  std::optional<congest::BfsTree> owned_tree_;  // when self-built
};

}  // namespace dcolor
