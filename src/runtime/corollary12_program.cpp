#include "src/runtime/corollary12_program.h"

#include <algorithm>
#include <memory>


namespace dcolor::runtime {

void cluster_tree_data(const Graph& g, const Cluster& cluster, TreeData* out) {
  const NodeId n = g.num_nodes();
  out->root = cluster.root;
  out->depth = cluster.tree_depth;
  // Resize-once, never reset: rebinding writes only the new tree's
  // entries (see TreeData — stale entries are unreachable through the
  // rosters and children CSR).
  if (static_cast<NodeId>(out->level.size()) != n) {
    out->level.resize(static_cast<std::size_t>(n));
    out->parent.resize(static_cast<std::size_t>(n));
  }
  // tree_nodes lists a parent before its children, so one forward sweep
  // settles every level (mirroring congest::BfsTree::from_parents).
  for (std::size_t i = 0; i < cluster.tree_nodes.size(); ++i) {
    const NodeId v = cluster.tree_nodes[i];
    const NodeId p = cluster.tree_parent[i];
    out->parent[static_cast<std::size_t>(v)] = p;
    const int lv = (p < 0) ? 0 : out->level[static_cast<std::size_t>(p)] + 1;
    out->level[static_cast<std::size_t>(v)] = lv;
    out->depth = std::max(out->depth, lv);
  }
  out->sorted_scratch.assign(cluster.tree_nodes.begin(), cluster.tree_nodes.end());
  std::sort(out->sorted_scratch.begin(), out->sorted_scratch.end());
  finalize_tree_positions(g, out, out->sorted_scratch);
}

EngineCorollary12Transports::EngineCorollary12Transports(const Graph& g, int num_threads,
                                                         int bandwidth_bits)
    : g_(&g), num_threads_(num_threads), global_(g, num_threads, bandwidth_bits) {
  cluster_pool_.resize(static_cast<std::size_t>(global_.engine().pool().num_threads()));
}

EngineCorollary12Transports::ClusterSlot& EngineCorollary12Transports::slot(int worker) {
  ClusterSlot& s = cluster_pool_[static_cast<std::size_t>(worker)];
  if (!s.transport) {
    // Built once, then reused for every later cluster this worker runs:
    // ParallelEngine::run is reusable (each run gets a fresh stamp
    // space) and resetting Metrics cannot alias stale inbox stamps, so
    // rebinding the tree + zeroing the counters gives a bit-identical
    // fresh transport without rebuilding the CSR buffers or respawning
    // threads per cluster. The TreeData is likewise reused: rebinding
    // touches only the new cluster's nodes.
    s.transport = std::make_unique<EngineColoringTransport>(*g_, 1, global_.bandwidth_bits());
    s.tree = std::make_unique<TreeData>();
    s.transport->bind_tree(*s.tree);
  } else {
    s.transport->engine().reset_metrics();
  }
  return s;
}

ColoringTransport& EngineCorollary12Transports::cluster(const Cluster& c) {
  ClusterSlot& s = slot(0);
  cluster_tree_data(*g_, c, s.tree.get());
  return *s.transport;
}

void EngineCorollary12Transports::run_cluster_class(const std::vector<const Cluster*>& batch,
                                                    const ClusterWork& work,
                                                    std::vector<congest::Metrics>* out_metrics) {
  // Clusters of one class share no nodes or edges (Definition 3.1), so
  // the per-cluster runs write disjoint entries of every driver-side
  // array; up to num_threads of them execute at once on the global
  // engine's pool, each on the worker's own single-threaded transport.
  // Each cluster's result is independent of which worker ran it and
  // lands at its batch index, so the timing-dependent task→worker
  // assignment never shows in colors, rounds or Metrics.
  out_metrics->assign(batch.size(), congest::Metrics{});
  global_.engine().pool().run_tasks(batch.size(), [&](std::size_t i, int worker) {
    ClusterSlot& s = slot(worker);
    cluster_tree_data(*g_, *batch[i], s.tree.get());
    work(*batch[i], *s.transport);
    (*out_metrics)[i] = s.transport->metrics();
  });
}

Corollary12Result corollary12_coloring(const Graph& g, ListInstance inst, int num_threads,
                                       const PartialColoringOptions& opts) {
  EngineCorollary12Transports transports(g, num_threads, opts.bandwidth_bits);
  return corollary12_run(g, std::move(inst), transports, opts);
}

}  // namespace dcolor::runtime
