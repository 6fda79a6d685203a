#include "src/coloring/derand_mis.h"

#include <algorithm>

#include "src/coloring/pair_prob.h"
#include "src/coloring/seed_fixing.h"
#include "src/congest/network.h"
#include "src/graph/properties.h"
#include "src/hash/bitwise_family.h"
#include "src/util/bits.h"

namespace dcolor {

DerandMisResult derandomized_mis_core(ColoringTransport& t) {
  const Graph& g = t.graph();
  const NodeId n = g.num_nodes();
  DerandMisResult res;
  res.in_mis.assign(n, false);
  if (n == 0) return res;

  // Input coloring for the coins (adjacent nodes must hash independently).
  LinialResult lin = t.linial(InducedSubgraph(g, std::vector<bool>(n, true)), nullptr, 0);
  t.build_tree(0);

  std::vector<char> active(n, 1);
  NodeId remaining = n;

  while (remaining > 0) {
    ++res.iterations;
    // Active degrees; isolated active nodes join immediately.
    std::vector<std::vector<NodeId>> adj(n);
    int delta = 1;
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      for (NodeId u : g.neighbors(v)) {
        if (active[u]) adj[v].push_back(u);
      }
      delta = std::max(delta, static_cast<int>(adj[v].size()));
    }
    std::vector<NodeId> joined;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && adj[v].empty()) {
        res.in_mis[v] = true;
        active[v] = 0;
        --remaining;
      }
    }
    if (remaining == 0) break;

    // Coins: p = 1/(2*Delta), precision such that the epsilon loss cannot
    // erase the n/(4*Delta) progress margin (Lemma 2.3-style slack).
    const int b = std::max(4, ceil_log2(64ull * static_cast<std::uint64_t>(delta) * delta));
    std::vector<CoinSpec> specs(n);
    for (NodeId v = 0; v < n; ++v) {
      specs[v] = (active[v] && !adj[v].empty())
                     ? CoinSpec{static_cast<std::uint64_t>(lin.coloring[v]),
                                threshold_for(1, 2ull * static_cast<std::uint64_t>(delta), b)}
                     : CoinSpec{0, 0};
    }
    std::vector<ConflictEdge> edges;
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      for (NodeId u : adj[v]) {
        if (v < u) edges.push_back(ConflictEdge{v, u});
      }
    }
    // One round: exchange thresholds (b+1 bits) so neighbors can evaluate
    // each other's conditional join probabilities.
    {
      std::vector<char> senders(n, 0);
      std::vector<std::uint64_t> payloads(n, 0);
      for (NodeId v = 0; v < n; ++v) {
        if (active[v] && !adj[v].empty()) {
          senders[v] = 1;
          payloads[v] = specs[v].threshold;
        }
      }
      t.exchange_along(adj, senders, payloads, b + 1, nullptr);
    }

    // Fix the seed, MAXIMIZING the conditional estimator
    //   F = sum_v Pr[C_v=1] - sum_{(u,v) in E} Pr[C_u=1 and C_v=1].
    // Each node owns its marginal, taken from its first incident edge's
    // joint (nodes without edges were handled above), and the lower
    // endpoint of each edge owns its joint term; the SUM is what matters.
    // The terms can be negative (joint mass exceeding the marginal on
    // high-degree nodes) while the fixed-point aggregation codec is
    // non-negative, so every node is shifted by +1 — the same offset on
    // both candidate sums leaves the argmax unchanged.
    std::vector<std::size_t> first_edge(n, edges.size());
    for (std::size_t e = edges.size(); e-- > 0;) {
      first_edge[edges[e].u] = e;
      first_edge[edges[e].v] = e;
    }
    auto engine =
        make_fast_bitwise_pair_prob(static_cast<std::uint64_t>(lin.num_colors), b);
    fix_seed_bits(t, *engine, specs, edges, SeedGoal::kMaximize, 1.0L,
                  [&](std::size_t e, const JointDist& J, std::vector<long double>& x) {
                    const NodeId u = edges[e].u;
                    const NodeId v = edges[e].v;
                    if (first_edge[u] == e) x[u] += J[1][0] + J[1][1];
                    if (first_edge[v] == e) x[v] += J[0][1] + J[1][1];
                    x[u] -= J[1][1];
                  });

    // Apply: candidates = coin 1; enter MIS if no candidate neighbor.
    std::vector<char> candidate(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && !adj[v].empty()) candidate[v] = engine->coin(v) == 1 ? 1 : 0;
    }
    // One round: candidates announce themselves.
    {
      std::vector<std::uint64_t> ones(n, 1);
      t.exchange_along(adj, candidate, ones, 1, nullptr);
    }
    for (NodeId v = 0; v < n; ++v) {
      if (!candidate[v]) continue;
      bool lonely = true;
      for (NodeId u : adj[v]) lonely &= !candidate[u];
      if (lonely) joined.push_back(v);
    }
    // Deterministic fallback: the estimator guarantees progress in
    // expectation >= n_active/(4 Delta) > 0, and the derandomized value is
    // an integer >= it — but guard against a violated assumption anyway.
    if (joined.empty()) {
      NodeId best = -1;
      for (NodeId v = 0; v < n; ++v) {
        if (active[v] && (best < 0 || adj[v].size() < adj[best].size())) best = v;
      }
      joined.push_back(best);
      t.tick(1);
    }
    // MIS nodes announce; they and their neighbors deactivate.
    std::vector<std::vector<NodeId>> heard(n);
    {
      std::vector<char> senders(n, 0);
      std::vector<std::uint64_t> ones(n, 1);
      for (NodeId v : joined) {
        res.in_mis[v] = true;
        senders[v] = 1;
      }
      t.exchange_along(adj, senders, ones, 1, &heard);
    }
    std::vector<char> deact(n, 0);
    for (NodeId v : joined) deact[v] = 1;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && !heard[v].empty()) deact[v] = 1;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] && deact[v]) {
        active[v] = 0;
        --remaining;
      }
    }
  }
  res.metrics = t.metrics();
  return res;
}

DerandMisResult derandomized_mis_per_component(
    const Graph& g, const std::function<DerandMisResult(const Graph&)>& solve_connected) {
  const NodeId n = g.num_nodes();
  DerandMisResult res;
  res.in_mis.assign(n, false);
  if (n == 0) return res;

  int num_comp = 0;
  const std::vector<int> comp = connected_components(g, &num_comp);
  if (num_comp == 1) return solve_connected(g);

  for (const ComponentGraph& c : component_graphs(g, comp, num_comp)) {
    const DerandMisResult sub_res = solve_connected(c.graph);
    for (std::size_t i = 0; i < c.global.size(); ++i) res.in_mis[c.global[i]] = sub_res.in_mis[i];
    res.iterations = std::max(res.iterations, sub_res.iterations);
    res.metrics.merge_parallel(sub_res.metrics);
  }
  return res;
}

DerandMisResult derandomized_mis(const Graph& g) {
  return derandomized_mis_per_component(g, [](const Graph& sub) {
    congest::Network net(sub);
    NetworkColoringTransport transport(net);
    return derandomized_mis_core(transport);
  });
}

}  // namespace dcolor
