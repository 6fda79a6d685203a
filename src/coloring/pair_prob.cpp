#include "src/coloring/pair_prob.h"

#include <algorithm>
#include <cassert>

#include "src/coloring/chunk_state.h"
#include "src/util/bits.h"

namespace dcolor {

// ---------------------------------------------------------------------------
// Generic engine: defers to CoinFamily, recomputing per query.
// ---------------------------------------------------------------------------
namespace {

class GenericPairProb final : public PairProbEngine {
 public:
  explicit GenericPairProb(const CoinFamily& family) : family_(&family) {}

  void begin_phase(const std::vector<CoinSpec>& specs,
                   const std::vector<ConflictEdge>& edges) override {
    specs_ = &specs;
    edges_ = &edges;
    fixed_.clear();
  }

  int num_seed_bits() const override { return family_->seed_length(); }

  JointDist edge_joint(int e, int cand) override {
    fixed_.push_back(static_cast<std::uint8_t>(cand));
    const ConflictEdge& ce = (*edges_)[e];
    const JointDist d = family_->pair_dist((*specs_)[ce.u], (*specs_)[ce.v], fixed_);
    fixed_.pop_back();
    return d;
  }

  void fix_next_bit(int bit) override { fixed_.push_back(static_cast<std::uint8_t>(bit)); }

  int coin(NodeId v) const override {
    assert(static_cast<int>(fixed_.size()) == family_->seed_length());
    return family_->coin((*specs_)[v], fixed_);
  }

 private:
  const CoinFamily* family_;
  const std::vector<CoinSpec>* specs_ = nullptr;  // borrowed for the phase
  const std::vector<ConflictEdge>* edges_ = nullptr;
  std::vector<std::uint8_t> fixed_;
};

// ---------------------------------------------------------------------------
// Fast engine for the bitwise family: BitwiseChunkState, one seed bit at
// a time.
// ---------------------------------------------------------------------------
//
// Only participants (0 < tau < 2^b) are added to the state, each as the
// one subrange [0, tau); a forced coin is a constant.
//
// A settled participant (its fixed digits already decide its comparison
// with tau) has a constant row: its coin is as constant as a forced one,
// so p11 = pu * pv. Only two unsettled coins need the digit-pair sum. (A
// row {0, 0} is settled even where the digits still equal tau's, since
// tau's remaining digits are 0; the digit-pair sum would give the same
// +0.0.)
class FastBitwisePairProb final : public PairProbEngine {
 public:
  FastBitwisePairProb(std::uint64_t num_input_colors, int b)
      : w_(ceil_log2(std::max<std::uint64_t>(num_input_colors, 2))), b_(b), chunks_(w_, b) {}

  void begin_phase(const std::vector<CoinSpec>& specs,
                   const std::vector<ConflictEdge>& edges) override {
    specs_ = &specs;
    edges_ = &edges;
    chunks_.reset(static_cast<NodeId>(specs.size()));
    const std::uint64_t full = std::uint64_t{1} << b_;
    for (std::size_t v = 0; v < specs.size(); ++v) {
      const std::uint64_t tau = specs[v].threshold;
      if (tau == 0 || tau >= full) continue;
      const std::uint64_t bounds[2] = {0, tau};
      chunks_.add(static_cast<NodeId>(v), specs[v].input_color, bounds);
    }
  }

  int num_seed_bits() const override { return b_ * (w_ + 1); }

  JointDist edge_joint(int e, int cand) override {
    const ConflictEdge& ce = (*edges_)[e];
    const int su = chunks_.slot(ce.u);
    const int sv = chunks_.slot(ce.v);
    const long double pu = coin_prob(ce.u, su, cand);
    const long double pv = coin_prob(ce.v, sv, cand);
    const long double p11 =
        su >= 0 && sv >= 0 && !chunks_.settled(su) && !chunks_.settled(sv)
            ? BitwiseChunkState::pair_prob(
                  BitwiseChunkState::digit_pair(tentative(su, cand), tentative(sv, cand)),
                  chunks_.probs(su, 0), chunks_.probs(sv, 0))
            : pu * pv;
    JointDist d;
    d[1][1] = p11;
    d[1][0] = pu - p11;
    d[0][1] = pv - p11;
    d[0][0] = 1.0L - pu - pv + p11;
    return d;
  }

  void fix_next_bit(int bit) override { chunks_.fix(1, static_cast<std::uint64_t>(bit)); }

  int coin(NodeId v) const override {
    assert(chunks_.done());
    const int s = chunks_.slot(v);
    if (s < 0) return (*specs_)[v].threshold != 0 ? 1 : 0;
    return chunks_.landed(s) == 0 ? 1 : 0;
  }

 private:
  // Digit t of participant s with the tentative bit substituted.
  BitwiseChunkState::Form tentative(int s, int cand) const {
    return BitwiseChunkState::substitute(chunks_.form(s), chunks_.offset(), 1,
                                         static_cast<std::uint64_t>(cand));
  }

  // Pr[C_v = 1 | fixed prefix + cand] for node v at slot s.
  long double coin_prob(NodeId v, int s, int cand) const {
    if (s < 0) return (*specs_)[v].threshold ? 1.0L : 0.0L;
    return BitwiseChunkState::marginal(tentative(s, cand), chunks_.probs(s, 0));
  }

  int w_;
  int b_;
  const std::vector<CoinSpec>* specs_ = nullptr;  // borrowed for the phase
  const std::vector<ConflictEdge>* edges_ = nullptr;
  BitwiseChunkState chunks_;
};

}  // namespace

std::unique_ptr<PairProbEngine> make_generic_pair_prob(const CoinFamily& family) {
  return std::make_unique<GenericPairProb>(family);
}

std::unique_ptr<PairProbEngine> make_fast_bitwise_pair_prob(std::uint64_t num_input_colors,
                                                            int b) {
  return std::make_unique<FastBitwisePairProb>(num_input_colors, b);
}

}  // namespace dcolor
