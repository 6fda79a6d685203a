// Corollary 1.2 on the parallel engine: the Corollary12Transports backend
// whose per-cluster EngineColoringTransports are bound (bind_tree) to a
// TreeData of one network-decomposition cluster's associated tree
// (build_tree is never called — the decomposition already supplies the
// tree), and which runs the clusters of one decomposition color class
// CONCURRENTLY over the shared thread pool.
//
// The cluster tree and its pair waves charge the exact CONGEST costs of
// the Network reference (congest::BfsTree over dcolor::cluster_tree):
// identical rounds, messages, bit totals and max message size. Combined
// with the shared driver corollary12_run this yields
// runtime::corollary12_coloring with bit-identical colors,
// decomposition, round accounting (including the kappa congestion factor
// and the per-class global pruning round) and Metrics at every thread
// count — tests/corollary12_engine_test.cpp holds it to that.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "src/decomposition/corollary12.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/theorem11_program.h"

namespace dcolor::runtime {

// (Re)binds `out` to a cluster's associated tree: levels recomputed from
// the parent arrays (a parent always precedes its children in
// tree_nodes), rosters/CSR positions restricted to the tree's nodes so
// the level-synchronous waves skip the rest of the graph. Steiner nodes
// are tree nodes like any other. Depth mirrors dcolor::cluster_tree:
// max(cluster.tree_depth, deepest level). Rebinding touches only
// O(cluster size log cluster size) work — the n-sized TreeData arrays
// are written only at the new tree's nodes and never reset (see
// TreeData), which is what makes one TreeData reusable across the
// thousands of clusters a decomposition produces.
void cluster_tree_data(const Graph& g, const Cluster& cluster, TreeData* out);

// Parallel backend for corollary12_run: an EngineColoringTransport over
// the whole graph for the global phases (Linial + pruning exchanges) and
// per-cluster EngineColoringTransports bound to the clusters' trees.
//
// Clusters of one decomposition color class actually run concurrently:
// run_cluster_class dispatches the class over the global engine's thread
// pool (ThreadPool::run_tasks — work-stolen, no thread respawn), and
// each pool worker owns one reusable single-threaded cluster transport
// (built lazily on first use, reused across clusters and classes — no
// per-cluster CSR rebuild beyond the tree restriction). Wall clock now
// tracks the paper's charged rounds, which bill a class as the MAX over
// its clusters; Metrics land per batch index, so colors, round
// accounting and Metrics stay bit-identical to the Network reference at
// every thread count.
class EngineCorollary12Transports final : public Corollary12Transports {
 public:
  EngineCorollary12Transports(const Graph& g, int num_threads, int bandwidth_bits = 0);

  ColoringTransport& global() override { return global_; }
  ColoringTransport& cluster(const Cluster& c) override;
  void run_cluster_class(const std::vector<const Cluster*>& batch, const ClusterWork& work,
                         std::vector<congest::Metrics>* out_metrics) override;

 private:
  // One single-threaded per-cluster transport + rebindable tree per
  // pool worker: parallelism comes from running many independent
  // clusters at once, not from splitting one (small) cluster across
  // threads. The TreeData and the transport's scratch persist across
  // clusters, so the steady state allocates nothing per cluster.
  struct ClusterSlot {
    std::unique_ptr<EngineColoringTransport> transport;
    std::unique_ptr<TreeData> tree;
  };

  // Worker `worker`'s reusable slot, metrics reset; built on first use.
  // Each pool worker owns its slot for a whole run_cluster_class call,
  // so slots never contend.
  ClusterSlot& slot(int worker);

  const Graph* g_;
  int num_threads_;
  EngineColoringTransport global_;
  std::vector<ClusterSlot> cluster_pool_;
};

// Drop-in parallel counterpart of dcolor::corollary12_solve (same
// defaults, same results, same round accounting and Metrics), executed
// by the parallel engine at the given thread count.
Corollary12Result corollary12_coloring(const Graph& g, ListInstance inst, int num_threads,
                                       const PartialColoringOptions& opts = {});

}  // namespace dcolor::runtime
