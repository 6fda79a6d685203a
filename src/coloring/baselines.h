// Baseline coloring algorithms for the comparison experiments.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/list_instance.h"
#include "src/congest/metrics.h"
#include "src/graph/graph.h"

namespace dcolor {

// Colors every uncolored node of g (colors[v] == kUncolored) in id order
// with the first color of its list that no neighbor holds. Throws
// std::logic_error when a node's list has no free color left, which a
// (degree+1) instance whose lists lost only their colored neighbors'
// colors never causes.
void greedy_complete(const Graph& g, const ListInstance& inst, std::vector<Color>& colors);

// Sequential greedy list coloring (the trivial centralized baseline the
// paper's introduction mentions): greedy_complete from no colors.
std::vector<Color> greedy_list_coloring(const ListInstance& inst);

struct RandomizedColoringResult {
  std::vector<Color> colors;
  congest::Metrics metrics;
  int iterations = 0;
};

// Johansson-style randomized distributed list coloring [Joh99]: every
// uncolored node picks a uniform color from its (pruned) list; a node
// keeps the color if no neighbor picked the same one. O(log n) rounds
// w.h.p. The randomized process Theorem 1.1 derandomizes.
RandomizedColoringResult randomized_list_coloring(const Graph& g, ListInstance inst,
                                                  std::uint64_t seed);

// Kuhn–Wattenhofer style color reduction [KW06]: from a proper K-coloring,
// iteratively recolor the highest color class greedily (one class per
// round) down to Delta+1 colors. O(K) rounds — the classic slow-but-simple
// deterministic CONGEST baseline.
struct ColorReductionResult {
  std::vector<Color> colors;
  congest::Metrics metrics;
};
ColorReductionResult color_reduction_baseline(const Graph& g);

}  // namespace dcolor
