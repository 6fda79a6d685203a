#include "src/clique/clique_coloring.h"

#include <algorithm>

#include "src/coloring/baselines.h"
#include "src/coloring/segment_derand.h"
#include "src/util/bits.h"

namespace dcolor::clique {

CliqueColoringResult clique_list_coloring(const Graph& g, ListInstance inst) {
  const NodeId n = g.num_nodes();
  CliqueColoringResult res;
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;
  CliqueNetwork net(n);
  const int cbits = std::max(inst.color_bits(), 1);
  const int id_bits = bit_width_of(static_cast<std::uint64_t>(n));
  const int lambda = std::max(1, floor_log2(static_cast<std::uint64_t>(n)));
  const NodeId leader = 0;
  std::vector<bool> active(n, true);

  // Round charges of a commit cycle (the cycle itself is
  // section4_commit_cycle, shared with MPC).
  CommitCycleHooks hooks;
  // Lenzen routing ships each node's 2^i subrange bounds to its conflict
  // neighbors: 2^i values per conflict neighbor fit the budget.
  hooks.on_pass = [&](const std::vector<MultiwaySpec>& specs,
                      const std::vector<std::vector<NodeId>>& conflict, int b) {
    std::vector<CliqueNetwork::RoutedMessage> msgs;
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId u : conflict[v]) {
        for (std::size_t gval = 1; gval < specs[v].bounds.size(); ++gval) {
          msgs.push_back({v, u, specs[v].bounds[gval], b + 1});
        }
      }
    }
    net.route(msgs);
  };
  // Each fixed segment costs 3 direct rounds: x-values to the responsible
  // nodes, their sums to the leader, the leader's broadcast.
  hooks.on_segment = [&] { net.tick(3); };
  // One round of direct sends to the still-uncolored neighbors.
  hooks.on_announce = [&](const std::vector<NodeId>& newly) {
    for (NodeId v : newly) {
      for (NodeId u : g.neighbors(v)) {
        if (active[u]) net.send(v, u, static_cast<std::uint64_t>(res.colors[v]), cbits);
      }
    }
    net.advance_round();
  };

  NodeId uncolored = n;
  const int delta_g = std::max(g.max_degree(), 2);
  while (uncolored > std::max<NodeId>(1, n / delta_g)) {
    ++res.commit_cycles;
    // The i-bit speedup: i = floor(log(n/uncolored)) + 1 in [2, 6].
    const int i_bits = std::min(
        floor_log2(static_cast<std::uint64_t>(std::max<NodeId>(2, n / uncolored))) + 1, 6);
    const CommitCycleResult cycle =
        section4_commit_cycle(g, active, inst, res.colors, i_bits, lambda, hooks);
    res.derand_passes += cycle.derand_passes;
    uncolored -= static_cast<NodeId>(cycle.newly.size());
  }

  // Final stage: ship the residual instance to the leader (Lenzen
  // routing), which colors it greedily and announces the colors.
  if (uncolored > 0) {
    res.final_subgraph_size = uncolored;
    std::vector<CliqueNetwork::RoutedMessage> edge_msgs, list_msgs;
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      for (NodeId u : g.neighbors(v)) {
        if (active[u] && v < u) {
          edge_msgs.push_back({v, leader, (static_cast<std::uint64_t>(v) << id_bits) |
                                              static_cast<std::uint64_t>(u),
                               2 * id_bits});
        }
      }
      for (Color c : inst.list(v)) {
        list_msgs.push_back({v, leader, (static_cast<std::uint64_t>(v) << cbits) |
                                            static_cast<std::uint64_t>(c),
                             id_bits + cbits});
      }
    }
    net.route(edge_msgs);
    net.route(list_msgs);
    greedy_complete(g, inst, res.colors);
    // One round, <= n-1 direct messages.
    for (NodeId v = 1; v < n; ++v) {
      net.send(leader, v, static_cast<std::uint64_t>(std::max<Color>(res.colors[v], 0)), cbits);
    }
    net.advance_round();
  }
  res.metrics = net.metrics();
  return res;
}

}  // namespace dcolor::clique
