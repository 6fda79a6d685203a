// Corollary 1.2: deterministic (degree+1)-list coloring of ANY graph in
// polylog n CONGEST rounds, via a network decomposition.
//
// Pipeline: compute an (O(log n), O(log^2 n))-decomposition with
// congestion O(log n) (src/decomposition/netdecomp.h), compute one global
// Linial input coloring, then iterate through the decomposition's color
// classes; for every class, run the Theorem 1.1 loop on each cluster in
// parallel, aggregating over the cluster's associated tree instead of a
// global BFS tree. After each class one global round lets freshly colored
// nodes prune their colors from neighbors' lists across cluster borders.
//
// Round accounting follows the paper: clusters of one class run in
// parallel, so a class costs (max over its clusters) * kappa (the
// congestion factor pays for pipelining messages of up to kappa trees
// sharing an edge), plus one global pruning round.
//
// Like Theorem 1.1 (theorem11_run), the driver is written once over the
// ColoringTransport abstraction: corollary12_run issues every
// communication step (global Linial, per-cluster Lemma 2.1 loops over a
// cluster's tree, the cross-cluster pruning exchange) through
// transports supplied by a Corollary12Transports backend.
// corollary12_solve runs it on the sequential congest::Network backend;
// runtime::corollary12_coloring (src/runtime/corollary12_program.h) runs
// the identical call sequence on the ParallelEngine with bit-identical
// colors, decomposition, round accounting and Metrics.
#pragma once

#include <functional>

#include "src/coloring/theorem11.h"
#include "src/decomposition/netdecomp.h"

namespace dcolor {

struct Corollary12Result {
  std::vector<Color> colors;
  NetworkDecomposition decomposition;
  std::int64_t total_rounds = 0;      // decomposition + coloring, charged
  std::int64_t decomposition_rounds = 0;
  std::int64_t coloring_rounds = 0;
  // Coloring-phase traffic (global Linial + pruning + every per-cluster
  // run; cluster messages travel on G's edges, so totals add up).
  // `metrics.rounds` equals total_rounds, i.e. it includes the kappa
  // congestion factor and the decomposition's charged rounds.
  congest::Metrics metrics;
};

// Supplies the transports the shared Corollary 1.2 driver runs over: one
// long-lived global transport (Linial input coloring + the per-class
// cross-cluster pruning exchange) and private per-cluster transports,
// whose pair waves run over each cluster's associated tree. Clusters of
// one color class are pairwise non-adjacent (Definition 3.1), so each
// gets its own simulator and a backend may run a whole class
// CONCURRENTLY; the driver charges the max of their rounds times the
// congestion factor either way.
class Corollary12Transports {
 public:
  virtual ~Corollary12Transports() = default;

  virtual ColoringTransport& global() = 0;

  // What the driver runs on one cluster: color it through the supplied
  // transport (bound to the cluster's tree).
  using ClusterWork = std::function<void(const Cluster&, ColoringTransport&)>;

  // Runs `work` on every cluster of `batch` — all clusters of ONE
  // decomposition color class. Same-class clusters share no nodes or
  // edges, so their runs touch disjoint per-node state and backends may
  // execute them concurrently (the engine backend dispatches them over
  // the shared thread pool). `out_metrics` is resized to the batch and
  // slot i receives cluster i's transport Metrics regardless of the
  // execution interleaving, keeping the driver's charged-round
  // accounting (kappa * max over the class) and traffic sums
  // deterministic and bit-identical across backends and thread counts.
  // The base implementation runs the batch sequentially via cluster().
  virtual void run_cluster_class(const std::vector<const Cluster*>& batch,
                                 const ClusterWork& work,
                                 std::vector<congest::Metrics>* out_metrics);

  // Fresh transport for one cluster, same bandwidth as global(), bound
  // to the cluster's tree (build_tree is never called).
  // The reference is invalidated by the next cluster() or
  // run_cluster_class() call on the same backend.
  virtual ColoringTransport& cluster(const Cluster& c) = 0;
};

// The shared driver: decomposition, global Linial, per-class cluster
// coloring with kappa-charged rounds, cross-cluster pruning.
Corollary12Result corollary12_run(const Graph& g, ListInstance inst,
                                  Corollary12Transports& transports,
                                  const PartialColoringOptions& opts = {});

// Solves the instance on the sequential congest::Network backend
// (honoring opts.bandwidth_bits, default model bandwidth when 0).
Corollary12Result corollary12_solve(const Graph& g, ListInstance inst,
                                    const PartialColoringOptions& opts = {});

// A cluster's associated tree (Steiner nodes included) as an aggregation
// tree on an n-node graph. Its depth is the larger of cluster.tree_depth
// and the deepest level.
congest::BfsTree cluster_tree(NodeId n, const Cluster& cluster);

}  // namespace dcolor
