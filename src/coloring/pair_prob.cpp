#include "src/coloring/pair_prob.h"

#include <cassert>
#include <cmath>

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
// Fast engine for the bitwise family.
// ---------------------------------------------------------------------------
//
// Seed layout: chunk t (t = 0..b-1, the MSB-first output digit) owns bits
// [t*(w+1), (t+1)*(w+1)); within a chunk, bits 0..w-1 are a_t (a_t[i]
// pairs with color bit i) and bit w is c_t. Digit t of color x is
// <a_t, bits(x)> ^ c_t.
//
// Invariant maintained across fix_next_bit calls: all digits < cur_chunk_
// are constants; digit cur_chunk_ is partially substituted; digits >
// cur_chunk_ are fully free and therefore (for any two distinct colors)
// independent uniform.
//
// Only participants — nodes with a random coin, 0 < tau < 2^b — carry
// state, in `nodes_` at slot `slot_[v]` (-1 for a forced coin, a
// constant). Every per-bit pass therefore costs O(participants), however
// large the graph around them is.
//
// Since the fixed digits are constants, a participant's comparison of its
// value against tau is a point mass: still tight (every fixed digit equals
// tau's), or decided below (coin 1) or not below (coin 0). A decided coin
// is as constant as a forced one. So p11 = pu * pv unless both endpoints
// are tight, and no per-edge state exists. This is bit-identical to
// carrying the probabilities as long doubles (less, tight per node; A..D
// per edge): those only ever held exact 0s and 1s, so less + tight * x
// evaluated to exactly x, 1 or 0, and D + B*u + C*v + A*both to exactly
// one of its terms — and with one endpoint decided, that term (u or v)
// equals the other endpoint's marginal bit for bit.
//
// Per-chunk caches. While chunk t is being fixed, a tight participant's
// threshold digit tau_t, its tail ldexpl(tau mod 2^r, -r) (r = b-1-t) and
// its marginal while c_t is free are constant; refresh_cache() computes
// them at begin_phase and after each c_t fix, with the expressions a
// query used to evaluate, on the same operands in the same order. Once
// c_t is the tentative bit the marginal is digit_tail() of the then
// constant digit, a selection with no arithmetic. No query calls libm.
class FastBitwisePairProb final : public PairProbEngine {
 public:
  FastBitwisePairProb(std::uint64_t num_input_colors, int b)
      : w_(ceil_log2(std::max<std::uint64_t>(num_input_colors, 2))), b_(b) {}

  void begin_phase(const std::vector<CoinSpec>& specs,
                   const std::vector<ConflictEdge>& edges) override {
    specs_ = &specs;
    edges_ = &edges;
    cur_chunk_ = 0;
    cur_offset_ = 0;
    slot_.assign(specs.size(), -1);
    nodes_.clear();
    const std::uint64_t full = std::uint64_t{1} << b_;
    for (std::size_t v = 0; v < specs.size(); ++v) {
      if (specs[v].threshold == 0 || specs[v].threshold >= full) continue;
      slot_[v] = static_cast<int>(nodes_.size());
      Node p;
      p.color = specs[v].input_color;
      p.threshold = specs[v].threshold;
      refresh_cache(p);
      nodes_.push_back(p);
    }
  }

  int num_seed_bits() const override { return b_ * (w_ + 1); }

  JointDist edge_joint(int e, int cand) override {
    const ConflictEdge& ce = (*edges_)[e];
    const int su = slot_[ce.u];
    const int sv = slot_[ce.v];
    const long double pu = marg_prob(ce.u, su, cand);
    const long double pv = marg_prob(ce.v, sv, cand);
    const long double p11 = su >= 0 && sv >= 0 && nodes_[su].state == kTight &&
                                    nodes_[sv].state == kTight
                                ? joint_prob(nodes_[su], nodes_[sv], cand)
                                : pu * pv;
    JointDist d;
    d[1][1] = p11;
    d[1][0] = pu - p11;
    d[0][1] = pv - p11;
    d[0][0] = 1.0L - pu - pv + p11;
    return d;
  }

  void fix_next_bit(int bit) override {
    if (cur_offset_ < w_) {
      // Fixing a_t[cur_offset_]: folds into `known` of nodes whose color
      // has that bit set.
      if (bit) {
        for (Node& p : nodes_) {
          if (p.color >> cur_offset_ & 1) p.known ^= 1;
        }
      }
      ++cur_offset_;
      return;
    }
    // Fixing c_t: the digit becomes the constant known ^ bit for every
    // node; it decides every tight node whose digit differs from tau_t.
    // After the last digit a still-tight value equals tau: not below.
    ++cur_chunk_;
    for (Node& p : nodes_) {
      const int digit = p.known ^ bit;
      p.known = 0;
      if (p.state != kTight) continue;
      if (digit != p.tau) {
        p.state = digit < p.tau ? kBelow : kNotBelow;
      } else if (cur_chunk_ == b_) {
        p.state = kNotBelow;
      } else {
        refresh_cache(p);
      }
    }
    cur_offset_ = 0;
  }

  int coin(NodeId v) const override {
    assert(cur_chunk_ == b_);
    const int s = slot_[v];
    if (s < 0) return (*specs_)[v].threshold != 0 ? 1 : 0;
    return nodes_[s].state == kBelow ? 1 : 0;
  }

 private:
  enum State : std::uint8_t { kTight, kBelow, kNotBelow };
  struct Node {
    // Per-chunk cache of a tight node (see the class comment).
    long double tail = 0.0L;    // ldexpl(tau mod 2^r, -r)
    long double m_free = 0.0L;  // Pr[value < tau] while c_t is free
    std::uint64_t color = 0;      // input color
    std::uint64_t threshold = 0;  // tau, 0 < tau < 2^b
    std::uint8_t known = 0;       // folded-in part of the current chunk's digit
    State state = kTight;
    std::uint8_t tau = 0;  // threshold digit tau_t
  };

  // Recomputes a tight node's caches for chunk cur_chunk_ < b_.
  void refresh_cache(Node& p) const {
    const int t = cur_chunk_;
    p.tau = static_cast<std::uint8_t>(p.threshold >> (b_ - 1 - t) & 1);
    const int r = b_ - t - 1;  // digits after t
    const std::uint64_t tau_low = p.threshold & ((r == 0) ? 0 : ((std::uint64_t{1} << r) - 1));
    p.tail = ldexpl(static_cast<long double>(tau_low), -r);
    // c_t still free: digit t is a fresh uniform bit regardless of cand.
    const long double p1 = 0.5L;
    const long double p0 = 1.0L - p1;
    p.m_free = (p.tau == 1 ? p0 : 0.0L) + (p.tau == 1 ? p1 : p0) * p.tail;
  }

  // Pr[suffix from digit t < tau suffix from digit t | digit t = x].
  static long double digit_tail(int x, const Node& p) {
    if (x < p.tau) return 1.0L;
    if (x > p.tau) return 0.0L;
    return p.tail;
  }

  // Pr[C_v = 1 | fixed prefix + cand] for node v at slot s. When the
  // tentative bit is c_t the current digit is the constant known ^ cand;
  // otherwise c_t is still free and the digit is uniform whatever cand is.
  long double marg_prob(NodeId v, int s, int cand) const {
    if (s < 0) return (*specs_)[v].threshold ? 1.0L : 0.0L;
    const Node& p = nodes_[s];
    if (p.state != kTight) return p.state == kBelow ? 1.0L : 0.0L;
    return cur_offset_ == w_ ? digit_tail(p.known ^ cand, p) : p.m_free;
  }

  // Pr[value_u < tau_u AND value_v < tau_v | fixed prefix + cand] for two
  // tight nodes.
  long double joint_prob(const Node& pu, const Node& pv, int cand) const {
    // Joint distribution of the current digit pair given the tentative bit.
    // Colors of adjacent nodes differ; whether the two digit forms share
    // the same remaining variable set decides correlation.
    JointDist q{};
    if (cur_offset_ == w_) {
      // Tentative bit is c_t: both digits are constants.
      q[pu.known ^ cand][pv.known ^ cand] = 1.0L;
    } else {
      // c_t is still free for both, so both digits are uniform; they are
      // equal up to the xor of the remaining a_t-part parities. They are
      // perfectly correlated iff the remaining color-bit sets coincide.
      const std::uint64_t rem_mask = cur_offset_ >= 64 ? 0 : (~std::uint64_t{0} << cur_offset_);
      std::uint64_t rem_u = pu.color & rem_mask;
      std::uint64_t rem_v = pv.color & rem_mask;
      int ku = pu.known;
      int kv = pv.known;
      // Account for the tentative bit cand at position cur_offset_ (an
      // a_t bit, since the branch above covers c_t).
      if (cand && (rem_u >> cur_offset_ & 1)) ku ^= 1;
      if (cand && (rem_v >> cur_offset_ & 1)) kv ^= 1;
      rem_u &= ~(std::uint64_t{1} << cur_offset_);
      rem_v &= ~(std::uint64_t{1} << cur_offset_);
      if (rem_u == rem_v) {
        // digit_u ^ digit_v = ku ^ kv always; digit_u uniform (c_t free).
        const int delta = ku ^ kv;
        q[0][delta] = 0.5L;
        q[1][1 ^ delta] = 0.5L;
      } else {
        // Two distinct nonempty remaining variable sets (they differ in
        // some a_t bit; both contain c_t): uniform on {0,1}^2.
        q[0][0] = q[0][1] = q[1][0] = q[1][1] = 0.25L;
      }
    }

    // Tail factors: after digit t all chunks are free, so the two suffixes
    // are independent uniform r-bit values.
    long double both_tail = 0.0L;
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) {
        both_tail += q[x][y] * digit_tail(x, pu) * digit_tail(y, pv);
      }
    }
    return both_tail;
  }

  int w_;
  int b_;
  int cur_chunk_ = 0;
  int cur_offset_ = 0;
  const std::vector<CoinSpec>* specs_ = nullptr;  // borrowed for the phase
  const std::vector<ConflictEdge>* edges_ = nullptr;
  std::vector<int> slot_;    // per node: index into nodes_, -1 if forced
  std::vector<Node> nodes_;  // participants, ascending node id
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
