#include "src/coloring/theorem11.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "src/coloring/linial.h"
#include "src/congest/bfs_tree.h"
#include "src/graph/properties.h"
#include "src/obs/obs.h"

namespace dcolor {

int list_color_subset(ColoringTransport& t, InducedSubgraph& active, ListInstance& inst,
                      std::vector<Color>& colors,
                      const std::vector<std::int64_t>& input_coloring, std::int64_t K,
                      const PartialColoringOptions& opts,
                      std::vector<PartialColoringStats>* stats) {
  NodeId remaining = 0;
  for (NodeId v = 0; v < t.graph().num_nodes(); ++v) remaining += active.contains(v) ? 1 : 0;
  int iterations = 0;
  while (remaining > 0) {
    obs::Span iter_span(obs::kCatPhase, "theorem11.iteration");
    PartialColoringStats st =
        color_one_eighth(t, active, inst, colors, input_coloring, K, opts);
    if (stats != nullptr) stats->push_back(st);
    ++iterations;
    if (st.newly_colored < 1) {
      // Lemma 2.1 guarantees progress; without it this loop never ends.
      throw std::logic_error("Lemma 2.1 iteration made no progress");
    }
    remaining -= st.newly_colored;
    if (iter_span.live()) {
      iter_span.arg("iteration", iterations);
      iter_span.arg("newly_colored", st.newly_colored);
      iter_span.arg("remaining", remaining);
      // Progress-per-iteration distribution (Lemma 2.1 floor vs typical);
      // deterministic, so identical at every thread count.
      obs::value(obs::kCatMetric, "theorem11.newly_colored", st.newly_colored);
    }
  }
  return iterations;
}

Theorem11Result theorem11_run(ColoringTransport& t, ListInstance inst,
                              const PartialColoringOptions& opts) {
  Theorem11Result res;
  const Graph& g = t.graph();
  const NodeId n = g.num_nodes();
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;

  InducedSubgraph active(g, std::vector<bool>(n, true));

  // Initial K = O(Delta^2 polylog) coloring via Linial (from ids).
  LinialResult lin;
  {
    obs::Span linial_span(obs::kCatPhase, "theorem11.linial");
    lin = t.linial(active, nullptr, 0);
    linial_span.arg("num_colors", lin.num_colors);
  }
  res.input_colors = lin.num_colors;

  // Aggregation tree (rooted at node 0; any designated leader works).
  {
    obs::Span tree_span(obs::kCatPhase, "theorem11.tree");
    t.build_tree(0);
  }

  res.iterations = list_color_subset(t, active, inst, res.colors, lin.coloring,
                                     lin.num_colors, opts, &res.per_iteration);
  res.metrics = t.metrics();
  return res;
}

Theorem11Result theorem11_solve(const Graph& g, ListInstance inst,
                                const PartialColoringOptions& opts) {
  if (g.num_nodes() == 0) return Theorem11Result{};
  congest::Network net(g, opts.bandwidth_bits);
  NetworkColoringTransport transport(net);
  return theorem11_run(transport, std::move(inst), opts);
}

Theorem11Result theorem11_solve_components(
    const Graph& g, ListInstance inst,
    const std::function<Theorem11Result(const Graph&, ListInstance)>& solve_connected) {
  int num_comp = 0;
  const std::vector<int> comp = connected_components(g, &num_comp);
  if (num_comp <= 1) return solve_connected(g, std::move(inst));

  Theorem11Result res;
  res.colors.assign(g.num_nodes(), kUncolored);
  for (const ComponentGraph& c : component_graphs(g, comp, num_comp)) {
    std::vector<std::vector<Color>> lists(c.global.size());
    for (std::size_t i = 0; i < c.global.size(); ++i) lists[i] = inst.list(c.global[i]);
    ListInstance sub_inst(c.graph, inst.color_space(), std::move(lists));
    Theorem11Result sub_res = solve_connected(c.graph, std::move(sub_inst));
    for (std::size_t i = 0; i < c.global.size(); ++i) res.colors[c.global[i]] = sub_res.colors[i];
    res.metrics.merge_parallel(sub_res.metrics);
    res.iterations = std::max(res.iterations, sub_res.iterations);
    res.input_colors = std::max(res.input_colors, sub_res.input_colors);
  }
  return res;
}

Theorem11Result theorem11_solve_per_component(const Graph& g, ListInstance inst,
                                              const PartialColoringOptions& opts) {
  return theorem11_solve_components(
      g, std::move(inst), [&opts](const Graph& sub, ListInstance sub_inst) {
        return theorem11_solve(sub, std::move(sub_inst), opts);
      });
}

}  // namespace dcolor
