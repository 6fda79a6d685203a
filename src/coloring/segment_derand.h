// The Section-4 commit cycle of the CONGESTED CLIQUE (Theorem 1.3) and MPC
// (Theorems 1.4/1.5) algorithms, and the segment-granular derandomization
// of its multiway prefix-extension steps.
//
// Both models run one algorithm and differ only in what a step costs:
// prefix extension with boosted coin accuracy (no MIS), seeds fixed whole
// SEGMENTS at a time (a segment is a block of consecutive bits inside one
// seed chunk, its assignment chosen to minimize the conditional
// expectation of the potential), and the commit rule "at most one
// conflict, higher id wins". `section4_commit_cycle` owns all of it; the
// caller passes only its round charges as `CommitCycleHooks` (clique:
// Lenzen routing and direct rounds; MPC: S-word exchanges and
// aggregation-tree passes). The Lemma 4.2 finisher reuses the conflict
// setup and the commit.
//
// The hash digits' conditional distribution is the multiway case of
// BitwiseChunkState (chunk_state.h): its per-chunk tables hold
// Pr[h in subrange g | fixed digits, digit t = x], and a candidate is
// substituted into each node's digit form once per (candidate, node).
// Candidates are summed in the order (candidate, v, j, g, x, y);
// tests/segment_derand_test.cpp and tests/golden_test.cpp pin the exact
// choices.
//
// Nothing here communicates: every message and round is charged by the
// caller's hooks.
#pragma once

#include <cstdint>
#include <functional>
#include <vector>

#include "src/coloring/list_instance.h"
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
// weight 1/counts[g] (the prefix-extension potential), which requires
// conflict neighbors to have equal fanouts (segment_derand_step throws
// std::invalid_argument otherwise). Lemma 4.2 supplies color-value
// matchings instead.
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

// --- The Section-4 commit cycle ------------------------------------------

// The Section-4 commit rule: a node keeps its candidate color when no
// conflict is left, or when its one conflict is with a lower id.
inline bool section4_keeps(NodeId v, const std::vector<NodeId>& conflicts) {
  return conflicts.empty() || (conflicts.size() == 1 && v > conflicts[0]);
}

// The conflict adjacency at the start of a cycle: each active node's
// active neighbors, ascending (empty for inactive nodes). Trims every
// active list to conflict degree + 1, the Section-4 precondition
// |L(v)| <= deg(v)+1, and stores the max conflict degree in *delta_c.
std::vector<std::vector<NodeId>> section4_conflicts(const Graph& g,
                                                    const std::vector<bool>& active,
                                                    ListInstance& inst, int* delta_c);

// Announces the newly colored nodes' colors to their neighbors.
using AnnounceFn = std::function<void(const std::vector<NodeId>& newly)>;

// Commits the active nodes that `section4_keeps` selects among their
// conflict neighbors holding the same candidate color (`conflict` is
// narrowed to those in place): colors[v] = candidate[v], active[v] =
// false, then `announce(newly)`, then every new color leaves its active
// neighbors' lists. Returns the newly colored nodes, ascending. Throws
// std::logic_error when no node commits (the potential bound failed).
std::vector<NodeId> section4_commit(const Graph& g, std::vector<std::vector<NodeId>>& conflict,
                                    const std::vector<Color>& candidate,
                                    std::vector<bool>& active, ListInstance& inst,
                                    std::vector<Color>& colors, const AnnounceFn& announce);

// What one commit cycle costs in a model; each hook charges, none decides.
struct CommitCycleHooks {
  // Once per pass, after the subrange specs are built: each active node
  // ships its interval bounds (specs[v].bounds, b+1 bits each) to its
  // conflict neighbors.
  std::function<void(const std::vector<MultiwaySpec>& specs,
                     const std::vector<std::vector<NodeId>>& conflict, int b)>
      on_pass;
  std::function<void()> on_segment;  // once per fixed seed segment
  AnnounceFn on_announce;            // once, for the committed nodes
};

struct CommitCycleResult {
  std::vector<NodeId> newly;  // colored by this cycle, ascending
  int derand_passes = 0;      // multiway prefix-extension passes
};

// One Section-4 commit cycle over the active nodes, with the node ids as
// the coins' input colors: conflict setup and list trimming, coin precision
// b = precision_bits_for(Delta_c, max(W,1), /*avoid_mis=*/true), then
// ceil(W/step) passes that each split every candidate range into the
// 2^step subranges of the next `step` color bits and select one per node
// with `segment_derand_step` (segments of <= lambda bits), then
// `section4_commit`. Throws std::logic_error when no node commits.
CommitCycleResult section4_commit_cycle(const Graph& g, std::vector<bool>& active,
                                        ListInstance& inst, std::vector<Color>& colors,
                                        int step, int lambda, const CommitCycleHooks& hooks);

}  // namespace dcolor
