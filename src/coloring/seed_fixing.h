// Lemma 2.6: fix a shared seed bit by bit with the method of conditional
// expectations. This is the one seed-fixing loop of the CONGEST
// pipelines: Lemma 2.1 (color_one_eighth) minimizes the coloring
// potential, the derandomized MIS maximizes its pessimistic estimator.
//
// Before fixing bit j, every node v evaluates its share of the objective
// conditioned on "bits < j as fixed, bit j = 0" (x0[v]) and "bit j = 1"
// (x1[v]). The transport sums both over its aggregation tree
// (aggregate_pair), the root picks the better bit (ties pick 0) and
// broadcasts it (broadcast_bit), and every node fixes it.
//
// A node's share is a sum of per-edge terms over the conflict edges, so
// the objective enters as `edge_term(e, J, x)`: add edge e's contribution
// under the joint coin distribution J into x. It may write only
// x[edges[e].u] and x[edges[e].v]. For each edge in order it is called for
// candidate 0 (x = x0), then candidate 1 (x = x1); the per-node
// `node_offset` is added after the edge pass. Every long double addition
// therefore happens in one fixed order on every transport.
//
// Per-bit cost is O(edges + their endpoints), not O(n): only the entries
// the edge pass writes are reset between bits. Every other entry holds
// 0.0L + node_offset for the whole phase — exactly the value a full reset
// followed by the offset pass computed for it, so the aggregated sums are
// bit-identical.
#pragma once

#include <cstddef>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/coloring/pair_prob.h"

namespace dcolor {

enum class SeedGoal { kMinimize, kMaximize };

// Starts the phase (engine.begin_phase(specs, edges)) and fixes all of
// its seed bits. `edge_term` is a template parameter so the per-edge
// objective inlines into the loop that dominates a solve.
template <typename EdgeTerm>
void fix_seed_bits(ColoringTransport& t, PairProbEngine& engine,
                   const std::vector<CoinSpec>& specs, const std::vector<ConflictEdge>& edges,
                   SeedGoal goal, long double node_offset, EdgeTerm&& edge_term) {
  engine.begin_phase(specs, edges);
  const std::size_t n = static_cast<std::size_t>(t.graph().num_nodes());
  std::vector<long double> x0(n, 0.0L + node_offset), x1(n, 0.0L + node_offset);
  std::vector<NodeId> written;  // edge endpoints, each once
  {
    std::vector<char> seen(n, 0);
    for (const ConflictEdge& e : edges) {
      for (NodeId v : {e.u, e.v}) {
        if (!seen[v]) {
          seen[v] = 1;
          written.push_back(v);
        }
      }
    }
  }
  const int d = engine.num_seed_bits();
  for (int j = 0; j < d; ++j) {
    for (NodeId v : written) x0[v] = x1[v] = 0.0L;
    for (std::size_t e = 0; e < edges.size(); ++e) {
      const JointDist J0 = engine.edge_joint(static_cast<int>(e), 0);
      const JointDist J1 = engine.edge_joint(static_cast<int>(e), 1);
      edge_term(e, J0, x0);
      edge_term(e, J1, x1);
    }
    if (node_offset != 0.0L) {
      for (NodeId v : written) {
        x0[v] += node_offset;
        x1[v] += node_offset;
      }
    }
    const auto [sum0, sum1] = t.aggregate_pair(x0, x1);
    const bool keep0 = goal == SeedGoal::kMinimize ? sum0 <= sum1 : sum0 >= sum1;
    const int bit = keep0 ? 0 : 1;
    t.broadcast_bit(bit);
    engine.fix_next_bit(bit);
  }
}

}  // namespace dcolor
