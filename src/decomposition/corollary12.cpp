#include "src/decomposition/corollary12.h"

#include <algorithm>
#include <cassert>
#include <optional>

#include "src/coloring/linial.h"
#include "src/obs/obs.h"

namespace dcolor {

congest::BfsTree cluster_tree(NodeId n, const Cluster& cluster) {
  return congest::BfsTree::from_parents(n, cluster.tree_nodes, cluster.tree_parent,
                                        cluster.tree_depth);
}

void Corollary12Transports::run_cluster_class(const std::vector<const Cluster*>& batch,
                                              const ClusterWork& work,
                                              std::vector<congest::Metrics>* out_metrics) {
  // Sequential reference semantics: one fresh transport after another, in
  // batch order. Concurrent backends override this and must produce the
  // identical out_metrics slots.
  out_metrics->assign(batch.size(), congest::Metrics{});
  for (std::size_t i = 0; i < batch.size(); ++i) {
    ColoringTransport& ct = cluster(*batch[i]);
    work(*batch[i], ct);
    (*out_metrics)[i] = ct.metrics();
  }
}

Corollary12Result corollary12_run(const Graph& g, ListInstance inst,
                                  Corollary12Transports& transports,
                                  const PartialColoringOptions& opts) {
  const NodeId n = g.num_nodes();
  Corollary12Result res;
  res.colors.assign(n, kUncolored);
  if (n == 0) return res;

  {
    obs::Span span(obs::kCatPhase, "corollary12.decompose");
    res.decomposition = decompose(g);
    span.arg("clusters", static_cast<std::int64_t>(res.decomposition.clusters.size()));
    span.arg("classes", res.decomposition.num_colors);
  }
  res.decomposition_rounds = res.decomposition.rounds_charged;
  const int kappa = std::max(1, res.decomposition.max_congestion(g));

  // Global input coloring (Linial over the whole graph).
  ColoringTransport& gt = transports.global();
  InducedSubgraph all(g, std::vector<bool>(n, true));
  LinialResult lin;
  {
    obs::Span span(obs::kCatPhase, "corollary12.linial");
    lin = gt.linial(all, nullptr, 0);
    span.arg("num_colors", lin.num_colors);
  }

  const int cbits = std::max(inst.color_bits(), 1);
  std::vector<bool> uncolored(n, true);
  // Rounds charged for the per-cluster runs: within a class the max over
  // its clusters, times kappa (pipelining up to kappa trees per edge).
  std::int64_t cluster_rounds = 0;
  congest::Metrics traffic;  // messages/bits of every transport, summed

  // Pruning-exchange buffers (global transport), reused across classes.
  std::vector<std::vector<NodeId>> targets(n);
  std::vector<char> senders(n, 0);
  std::vector<std::uint64_t> payloads(n, 0);
  std::vector<std::vector<NodeId>> heard(n);

  for (int k = 0; k < res.decomposition.num_colors; ++k) {
    std::vector<const Cluster*> batch;
    for (const Cluster& c : res.decomposition.clusters) {
      if (c.color == k) batch.push_back(&c);
    }
    // Hand the whole class to the backend at once: same-class clusters
    // are non-adjacent, so the per-cluster runs write disjoint entries of
    // `colors` and `inst` and only read state no concurrent run mutates
    // (g, lin, opts, other classes' lists) — a backend may execute them
    // on concurrent simulators. The per-class cost stays the max over
    // clusters times the congestion factor.
    std::vector<congest::Metrics> cluster_metrics;
    {
      // Span scoped to the cluster runs only: the pruning exchange below
      // gets its own phase span, and two live cat="phase" spans on one
      // thread would double-charge the breakdown.
      obs::Span class_span(obs::kCatPhase, "corollary12.class");
      class_span.arg("class", k);
      class_span.arg("clusters", static_cast<std::int64_t>(batch.size()));
      transports.run_cluster_class(
          batch,
          [&](const Cluster& c, ColoringTransport& ct) {
            // kCatCluster (not kCatPhase): cluster spans nest inside the
            // class span and run concurrently on worker threads — counting
            // them in the phase breakdown would double-charge the class.
            obs::Span cluster_span(obs::kCatCluster, "corollary12.cluster");
            cluster_span.arg("class", c.color);
            cluster_span.arg("root", c.root);
            cluster_span.arg("members", static_cast<std::int64_t>(c.members.size()));
            if (cluster_span.live()) {
              // Cluster-size distribution: recorded on whichever worker
              // runs the cluster, but the multiset of sizes is fixed by
              // the decomposition — the merged histogram is identical at
              // every thread count.
              obs::value(obs::kCatMetric, "corollary12.cluster_members",
                         static_cast<std::int64_t>(c.members.size()));
            }
            std::vector<bool> memb(n, false);
            for (NodeId v : c.members) memb[v] = true;
            InducedSubgraph active(g, memb);
            assert(inst.feasible_for(active));
            list_color_subset(ct, active, inst, res.colors, lin.coloring, lin.num_colors,
                              opts);
          },
          &cluster_metrics);
    }

    std::int64_t max_cluster_rounds = 0;
    std::vector<NodeId> class_nodes;
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const congest::Metrics& cm = cluster_metrics[i];
      max_cluster_rounds = std::max(max_cluster_rounds, cm.rounds);
      traffic.messages += cm.messages;
      traffic.total_bits += cm.total_bits;
      traffic.max_message_bits = std::max(traffic.max_message_bits, cm.max_message_bits);
      class_nodes.insert(class_nodes.end(), batch[i]->members.begin(),
                         batch[i]->members.end());
    }
    cluster_rounds += kappa * max_cluster_rounds;

    // Cross-cluster pruning (one global round): freshly colored nodes
    // announce their color to every neighbor; uncolored neighbors outside
    // the cluster drop it from their lists.
    obs::Span prune_span(obs::kCatPhase, "corollary12.prune");
    prune_span.arg("class", k);
    prune_span.arg("colored", static_cast<std::int64_t>(class_nodes.size()));
    for (NodeId v : class_nodes) {
      uncolored[v] = false;
      senders[v] = 1;
      payloads[v] = static_cast<std::uint64_t>(res.colors[v]);
      const auto nb = g.neighbors(v);
      targets[v].assign(nb.begin(), nb.end());
    }
    gt.exchange_along(targets, senders, payloads, cbits, &heard);
    for (NodeId v = 0; v < n; ++v) {
      if (!uncolored[v]) continue;
      for (NodeId u : heard[v]) inst.remove_color(v, res.colors[u]);
    }
    for (NodeId v : class_nodes) {
      senders[v] = 0;
      targets[v].clear();
    }
  }
  res.coloring_rounds = gt.metrics().rounds + cluster_rounds;
  res.total_rounds = res.decomposition_rounds + res.coloring_rounds;
  traffic.messages += gt.metrics().messages;
  traffic.total_bits += gt.metrics().total_bits;
  traffic.max_message_bits = std::max(traffic.max_message_bits, gt.metrics().max_message_bits);
  res.metrics = traffic;
  res.metrics.rounds = res.total_rounds;
  return res;
}

namespace {

// Sequential reference backend: a congest::Network over the whole graph
// for the global phases, and per cluster a private Network paired with the
// cluster's associated tree.
class NetworkCorollary12Transports final : public Corollary12Transports {
 public:
  NetworkCorollary12Transports(const Graph& g, int bandwidth_bits)
      : g_(&g), gnet_(g, bandwidth_bits), global_(gnet_) {}

  ColoringTransport& global() override { return global_; }

  ColoringTransport& cluster(const Cluster& c) override {
    cluster_transport_.reset();
    cluster_net_.emplace(*g_, gnet_.bandwidth_bits());
    cluster_tree_ = cluster_tree(g_->num_nodes(), c);
    cluster_transport_.emplace(*cluster_net_, *cluster_tree_);
    return *cluster_transport_;
  }

 private:
  const Graph* g_;
  congest::Network gnet_;
  NetworkColoringTransport global_;
  std::optional<congest::Network> cluster_net_;
  std::optional<congest::BfsTree> cluster_tree_;
  std::optional<NetworkColoringTransport> cluster_transport_;
};

}  // namespace

Corollary12Result corollary12_solve(const Graph& g, ListInstance inst,
                                    const PartialColoringOptions& opts) {
  NetworkCorollary12Transports transports(g, opts.bandwidth_bits);
  return corollary12_run(g, std::move(inst), transports, opts);
}

}  // namespace dcolor
