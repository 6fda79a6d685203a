// Conditional-probability engines for the seed-fixing loop.
//
// During one prefix-extension phase the derandomizer fixes the d seed bits
// one by one; before fixing bit j it needs, for every alive conflict edge
// {u,v}, the joint conditional distribution of the endpoint coins given
// "bits 0..j-1 as already fixed, bit j = cand". PairProbEngine abstracts
// this:
//
//  * GenericPairProb wraps any CoinFamily and recomputes distributions
//    from scratch (O(seed queries) — used for the GF family and as the
//    reference implementation in tests).
//  * FastBitwisePairProb evaluates the bitwise family over
//    BitwiseChunkState (chunk_state.h): each participant (0 < tau < 2^b)
//    is the one subrange [0, tau), whose per-chunk table already
//    holds the probability for either value of the current digit. Cost
//    per (edge, seed bit, candidate): O(1), with no libm call; the per-bit
//    pass visits participants only. It matches the generic engine to
//    long-double noise; FastBitwiseEngine.ExactBitsDigest
//    (tests/pair_prob_test.cpp) pins its exact bits.
//
// Both engines are exact (up to long-double rounding, see
// docs/ARCHITECTURE.md, "Departures from the paper").
#pragma once

#include <memory>
#include <vector>

#include "src/graph/graph.h"
#include "src/hash/coin_family.h"

namespace dcolor {

struct ConflictEdge {
  NodeId u;
  NodeId v;
};

class PairProbEngine {
 public:
  virtual ~PairProbEngine() = default;

  // Starts a phase. specs[v] is meaningful for participating nodes; edges
  // index into `edges`. Resets all fixed seed bits. Both vectors are
  // borrowed, not copied: they must stay alive and unchanged until the
  // phase's last coin() call.
  virtual void begin_phase(const std::vector<CoinSpec>& specs,
                           const std::vector<ConflictEdge>& edges) = 0;

  virtual int num_seed_bits() const = 0;

  // Joint distribution of (C_u, C_v) for edge e, conditioned on the fixed
  // prefix extended by one candidate bit `cand`.
  virtual JointDist edge_joint(int e, int cand) = 0;

  // Permanently fixes the next seed bit.
  virtual void fix_next_bit(int bit) = 0;

  // After all seed bits are fixed: the (now deterministic) coin of v.
  virtual int coin(NodeId v) const = 0;
};

std::unique_ptr<PairProbEngine> make_generic_pair_prob(const CoinFamily& family);
std::unique_ptr<PairProbEngine> make_fast_bitwise_pair_prob(std::uint64_t num_input_colors,
                                                            int b);

}  // namespace dcolor
