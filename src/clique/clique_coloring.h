// Theorem 1.3: deterministic (degree+1)-list coloring in the UNICAST
// CONGESTED CLIQUE.
//
// The algorithm is the Section-4 commit cycle shared with MPC
// (`section4_commit_cycle`, src/coloring/segment_derand.h); this file
// holds only what the clique makes it cost and when it stops:
//  * The nodes' unique ids serve as the input coloring (K = n) — no
//    Linial step is needed.
//  * Each seed segment of lambda <= log n bits is fixed in 3 direct
//    rounds: 2^lambda "responsible" nodes each collect
//    Sum_u E[Phi(u) | segment := R] (all-to-all messaging), forward their
//    sums to a leader, and the leader broadcasts the minimizing
//    assignment.
//  * The i-bit speedup: once at most n/2^i nodes are uncolored, a pass
//    fixes i >= 2 candidate bits — nodes split their candidate ranges
//    into 2^i subranges, and Lenzen routing ships the subrange bounds to
//    conflict neighbors in O(1) rounds. Conflict resolution is the
//    Section-4 accuracy boost (no MIS): >= half the nodes end with <= 1
//    conflict, the higher id wins; one direct round announces the colors.
//  * Once <= n/Delta nodes remain uncolored, the residual subgraph and
//    lists are shipped to a leader via Lenzen routing and colored
//    greedily there (`greedy_complete`).
//
// The bitwise coin family's longer seed costs an extra O(log Delta)
// factor per pass relative to the paper's O(log n)-bit seed — the same
// documented substitution as in CONGEST (docs/ARCHITECTURE.md,
// "Departures from the paper").
#pragma once

#include <cstdint>
#include <vector>

#include "src/clique/clique_network.h"
#include "src/coloring/list_instance.h"
#include "src/congest/metrics.h"

namespace dcolor::clique {

struct CliqueColoringResult {
  std::vector<Color> colors;
  congest::Metrics metrics;
  int commit_cycles = 0;        // constant-fraction coloring cycles
  int derand_passes = 0;        // multiway prefix-extension passes
  int final_subgraph_size = 0;  // nodes shipped to the leader at the end
};

CliqueColoringResult clique_list_coloring(const Graph& g, ListInstance inst);

}  // namespace dcolor::clique
