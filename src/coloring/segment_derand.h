// Segment-granular derandomization of one multiway prefix-extension step.
//
// Shared by the CONGESTED CLIQUE (Theorem 1.3) and MPC (Theorems 1.4/1.5)
// algorithms: both fix whole SEGMENTS of the seed at once (a segment is a
// block of consecutive bits inside one seed chunk), choosing for each
// segment the assignment minimizing the conditional expectation of the
// potential. Because a fully fixed chunk makes the corresponding hash
// digit a deterministic integer, and unfixed future chunks contribute
// independent uniform digits (distinct input ids), conditional interval
// probabilities reduce to O(1) interval-intersection arithmetic.
//
// Per-chunk caches. While chunk t is being fixed, a node's interval
// probability Pr[h in subrange g | fixed digits, digit t = x] depends on
// neither the candidate segment assignment nor the neighbor, so it is
// tabulated once per (node, subrange, digit) per chunk; a candidate is
// substituted into each node's chunk form once per (candidate, node), not
// once per directed edge. Both passes run over the nodes the objective
// reads (active nodes and their conflict neighbors) only. Proof
// obligation: the tables hold the very values the per-edge evaluation
// computed, and the summation order (candidate, v, j, g, x, y) is
// unchanged, so every candidate's sum — and every choice — is
// bit-identical (tests/golden_test.cpp pins the clique and MPC results).
//
// This module is pure math — no communication. The caller owns round
// accounting and invokes `on_segment` once per fixed segment (clique: 3
// direct rounds; MPC: one aggregation-tree pass).
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/graph/graph.h"

namespace dcolor {

struct MultiwaySpec {
  bool active = false;
  std::uint64_t id = 0;  // input color (unique id), < 2^w
  // Interval boundaries over [2^b]: subrange g is selected when the hash
  // value lands in [bounds[g], bounds[g+1]); bounds[0] = 0,
  // bounds[fanout] = 2^b. Empty subranges have equal boundaries.
  std::vector<std::uint64_t> bounds;
  // Number of candidate colors in each subrange (weights 1/k_g).
  std::vector<int> counts;
};

struct SegmentDerandResult {
  std::vector<int> selected;  // chosen subrange per node (-1 if inactive)
  int segments_fixed = 0;
};

// One conflicting pair of subrange selections on a directed edge (v,u):
// selecting g_v at v and g_u at u contributes `weight` to the potential.
struct ConflictPair {
  int g_v;
  int g_u;
  long double weight;
};

// Per-directed-edge conflict structure: pairs(v, j) describes the edge
// (v, conflict[v][j]). nullptr => the DIAGONAL objective g_v == g_u with
// weight 1/counts[g] (the prefix-extension potential). Lemma 4.2 supplies
// color-value matchings instead.
using EdgePairsFn =
    std::function<const std::vector<ConflictPair>&(NodeId v, std::size_t j)>;

// Runs one derandomized multiway step over the given conflict adjacency.
//  * w          — id bits (seed chunk = w+1 bits: a_t then c_t)
//  * b          — hash precision bits (chunks)
//  * lambda     — max segment length in bits (<= machine/clique capacity)
//  * on_segment — called after each segment is fixed (for round charging)
// Throws std::logic_error if an active node's hash lands in no subrange
// with a positive count (its bounds do not cover [0, 2^b) or every count
// is 0) — callers never build such specs.
SegmentDerandResult segment_derand_step(const std::vector<MultiwaySpec>& specs,
                                        const std::vector<std::vector<NodeId>>& conflict,
                                        int w, int b, int lambda,
                                        const std::function<void()>& on_segment,
                                        const EdgePairsFn& edge_pairs = nullptr);

// Builds interval boundaries for a node's subrange counts:
// bounds[g] = ceil(cum_g / size * 2^b), exactly 0/2^b at the extremes.
std::vector<std::uint64_t> multiway_bounds(const std::vector<int>& counts, int b);

}  // namespace dcolor
