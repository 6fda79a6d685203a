// Structural graph properties needed by experiments and validity checks.
#pragma once

#include <vector>

#include "src/graph/graph.h"

namespace dcolor {

// BFS distances from `src`; unreachable nodes get -1.
std::vector<int> bfs_distances(const Graph& g, NodeId src);

// Exact diameter of the (assumed connected) graph; -1 if disconnected.
// O(n * m): fine at simulation scales.
int diameter(const Graph& g);

// 2-approximate diameter via double-sweep BFS (lower bound, exact on
// trees). Used where exact diameter is too slow.
int diameter_double_sweep(const Graph& g);

// Connected component id per node (ids are 0..k-1 in discovery order).
std::vector<int> connected_components(const Graph& g, int* num_components);

bool is_connected(const Graph& g);

// A connected component as a standalone graph with local ids: global[i]
// is the id in the parent graph of local node i (ascending).
struct ComponentGraph {
  Graph graph;
  std::vector<NodeId> global;
};

// The components labeled `comp` by connected_components, as standalone
// graphs in component-id order. O(n + m).
std::vector<ComponentGraph> component_graphs(const Graph& g, const std::vector<int>& comp,
                                             int num_components);

// Degeneracy (max over subgraphs of min degree) via peeling.
int degeneracy(const Graph& g);

// True iff `colors` is a proper coloring (adjacent nodes differ).
bool is_proper_coloring(const Graph& g, const std::vector<int>& colors);

}  // namespace dcolor
