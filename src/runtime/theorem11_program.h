// Theorem 1.1 on the parallel engine: a ColoringTransport whose
// primitives (Linial input coloring, BFS aggregation tree, conflict-edge
// exchanges, the Lemma 2.6 seed-fixing channel, the color-class MIS of
// the conflict-resolution step) are the shared derandomization
// NodePrograms (derand_program.h) executed by the ParallelEngine,
// charging the exact CONGEST costs of the NetworkColoringTransport
// reference. Combined with the shared core in
// src/coloring/partial_coloring.cpp / theorem11.cpp this yields
// bit-identical colors, iteration counts, per-iteration stats and
// Metrics at every thread count. The derandomized MIS runs on the same
// transport (runtime::derandomized_mis, mis_program.h).
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/theorem11.h"
#include "src/runtime/derand_program.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

class EngineColoringTransport final : public ColoringTransport {
 public:
  // Self-managed aggregation: build_tree floods a BFS TreeData and
  // installs a TreeEngineChannel over it (the Theorem 1.1
  // configuration). A cluster-scoped transport (Corollary 1.2) instead
  // injects its cluster-tree channel via set_channel and skips
  // build_tree.
  EngineColoringTransport(const Graph& g, int num_threads, int bandwidth_bits = 0);

  const Graph& graph() const override { return *g_; }
  int bandwidth_bits() const override { return eng_.bandwidth_bits(); }

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
  void tick(std::int64_t rounds) override { eng_.tick(rounds); }
  const congest::Metrics& metrics() const override { return eng_.metrics(); }

  // Point the transport at an externally owned aggregation channel (a
  // rebindable ClusterEngineChannel for the per-cluster transports of
  // EngineCorollary12Transports). Non-owning: the caller keeps the
  // channel alive, which is what lets one channel + TreeData be reused
  // across every cluster a pool worker runs.
  void set_channel(EngineChannel* channel) { channel_ = channel; }

  ParallelEngine& engine() { return eng_; }
  const TreeData& tree() const { return tree_; }

 private:
  const Graph* g_;
  int num_threads_;
  ParallelEngine eng_;
  TreeData tree_;
  TreeEngineChannel bfs_channel_{tree_};  // bound by build_tree
  ExchangeScratch exchange_scratch_;
  EngineChannel* channel_ = nullptr;
};

// Drop-in parallel counterpart of dcolor::theorem11_solve_per_component
// (same defaults, same results, same Metrics), executed by the parallel
// engine at the given thread count.
Theorem11Result theorem11_coloring(const Graph& g, ListInstance inst, int num_threads,
                                   const PartialColoringOptions& opts = {});

}  // namespace dcolor::runtime
