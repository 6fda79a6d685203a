// The bitwise coin family under seed fixing: one state for both ways the
// method of conditional expectations walks its seed (Theorem 2.4 /
// Lemma 2.5). Lemma 2.6 (FastBitwisePairProb, pair_prob.cpp) fixes the
// seed one bit at a time, and a coin is the one subrange [0, tau).
// Sections 4-5 (segment_derand_step) fix lambda-bit segments of multiway
// subranges.
//
// Seed layout: chunk t (t = 0..b-1, the MSB-first output digit) owns w+1
// bits; within a chunk, bits 0..w-1 are a_t (a_t[i] pairs with id bit i)
// and bit w is c_t. Digit t of id x is <a_t, bits(x)> ^ c_t.
//
// For every node the state holds digit t's affine form (its free seed
// variables and the parity of the fixed ones), the digits fixed so far
// (the hash value's top t digits), and the per-chunk table
// Pr[h in subrange g | fixed digits, digit t = x] for x = 0, 1. Digits
// after t are fully free and, for distinct ids, independent uniform, so
// the table is O(1) interval arithmetic. It changes only when a chunk is
// complete, so a query reads it and makes no libm call. Every pass runs
// over the added nodes only, never over all n.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "src/graph/graph.h"
#include "src/hash/coin_family.h"

namespace dcolor {

class BitwiseChunkState {
 public:
  // Digit t's affine form over the current chunk's seed variables.
  struct Form {
    std::uint64_t free = 0;  // bit i: a_t[i] (i < w) or c_t (i = w) is unfixed
    int known = 0;           // parity of the fixed variables in the digit
  };

  // w: id bits; b: output digits (hash precision).
  BitwiseChunkState(int w, int b) : w_(w), b_(b) {}

  // Starts over at seed bit 0 with no nodes; ids index [0, n).
  void reset(NodeId n) {
    slot_.assign(static_cast<std::size_t>(n), -1);
    nodes_.clear();
    bounds_.clear();
    probs_.clear();
    chunk_ = 0;
    offset_ = 0;
    scale_ = ldexpl(1.0L, -(b_ - 1));
  }

  // Adds node v with input id `id` (< 2^w) and ascending subrange bounds
  // in [0, 2^b]: subrange g is [bounds[g], bounds[g+1]). Only before the
  // first fix().
  void add(NodeId v, std::uint64_t id, std::span<const std::uint64_t> bounds) {
    slot_[v] = static_cast<int>(nodes_.size());
    Node p;
    p.vars = (id & ((std::uint64_t{1} << w_) - 1)) | (std::uint64_t{1} << w_);
    p.bounds = static_cast<std::uint32_t>(bounds_.size());
    p.probs = static_cast<std::uint32_t>(probs_.size());
    p.fanout = static_cast<std::uint32_t>(bounds.empty() ? 0 : bounds.size() - 1);
    bounds_.insert(bounds_.end(), bounds.begin(), bounds.end());
    probs_.resize(probs_.size() + 2 * std::size_t{p.fanout});
    tabulate(p);
    nodes_.push_back(p);
  }

  int slot(NodeId v) const { return slot_[v]; }  // -1 if not added
  int size() const { return static_cast<int>(nodes_.size()); }
  int offset() const { return offset_; }  // next unfixed bit of the chunk
  bool done() const { return chunk_ == b_; }
  // Seed bits are fixed in order, so digit t's free variables are the
  // node's chunk variables from offset() on.
  Form form(int s) const {
    return {nodes_[s].vars & (~std::uint64_t{0} << offset_), nodes_[s].known};
  }
  // Whether every row of node s is {0, 0} or {1, 1} for the rest of the
  // step: its fixed digits already decide which subrange h lands in.
  bool settled(int s) const { return nodes_[s].settled; }
  // {Pr[h in subrange g | fixed digits, digit t = 0], ... digit t = 1}.
  const long double* probs(int s, int g) const {
    return &probs_[nodes_[s].probs + 2 * static_cast<std::size_t>(g)];
  }

  // Fixes the chunk's next `count` seed bits to the bits of r (bit k of
  // r is seed bit offset()+k) at every node. Completing a chunk appends
  // its digit to every node's prefix and tabulates the next chunk.
  void fix(int count, std::uint64_t r) {
    const int from = offset_;
    offset_ += count;
    if (offset_ < w_ + 1) {
      if (r == 0) return;  // zeros change no parity
      for (Node& p : nodes_) p.known = substitute({p.vars, p.known}, from, count, r).known;
      return;
    }
    ++chunk_;
    offset_ = 0;
    if (!done()) scale_ = ldexpl(1.0L, -(b_ - 1 - chunk_));
    for (Node& p : nodes_) {
      const int digit = substitute({p.vars, p.known}, from, count, r).known;
      p.prefix = (p.prefix << 1) | static_cast<std::uint64_t>(digit);
      p.known = 0;
      if (!done() && !p.settled) tabulate(p);
    }
  }

  // After the last chunk: the subrange holding node s's hash value, or -1.
  int landed(int s) const {
    const Node& p = nodes_[s];
    for (std::uint32_t g = 0; g < p.fanout; ++g) {
      if (p.prefix >= bounds_[p.bounds + g] && p.prefix < bounds_[p.bounds + g + 1]) {
        return static_cast<int>(g);
      }
    }
    return -1;
  }

  // Form f with seed bits [from, from+count) set to the bits of r.
  static Form substitute(Form f, int from, int count, std::uint64_t r) {
    const std::uint64_t seg = count >= 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << count) - 1;
    f.known ^= std::popcount((f.free >> from) & seg & r) & 1;
    f.free &= ~(seg << from);
    return f;
  }

  // q[x][y] = Pr[digit of form a = x, digit of form b = y] for two nodes
  // with distinct ids. Both forms keep c_t free until the chunk's last
  // bit is substituted, so they turn constant together.
  static JointDist digit_pair(const Form& a, const Form& b) {
    assert((a.free == 0) == (b.free == 0));
    JointDist q{};
    if (a.free == 0) {
      q[a.known][b.known] = 1.0L;
    } else if (a.free == b.free) {
      // The digits differ by the known parities' xor: perfectly correlated.
      const int delta = a.known ^ b.known;
      q[0][delta] = q[1][1 ^ delta] = 0.5L;
    } else {
      // Two distinct nonzero forms over uniform bits: uniform on {0,1}^2.
      q[0][0] = q[0][1] = q[1][0] = q[1][1] = 0.25L;
    }
    return q;
  }

  // Which of the two known parities digit_pair(a, b) reads, from the free
  // sets alone: kConstant both, kCorrelated only their xor, kUniform
  // neither. digit_pair's precondition, checked in every build: both
  // forms keep c_t free until the chunk's last bit, so exactly one
  // constant form throws std::logic_error.
  enum class PairShape { kConstant, kCorrelated, kUniform };
  static PairShape pair_shape(const Form& a, const Form& b) {
    if ((a.free == 0) != (b.free == 0)) {
      throw std::logic_error("BitwiseChunkState: exactly one digit form of a pair is constant");
    }
    if (a.free == 0) return PairShape::kConstant;
    return a.free == b.free ? PairShape::kCorrelated : PairShape::kUniform;
  }

  // Sum over x, y (x-major) of q[x][y] * first[x] * second[y], where first
  // and second are probs() rows. Zero q terms are skipped: each would add
  // +0.0 to a non-negative sum, which is exact.
  static long double pair_prob(const JointDist& q, const long double* first,
                               const long double* second) {
    long double p = 0.0L;
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) {
        if (q[x][y] == 0.0L) continue;
        p += q[x][y] * first[x] * second[y];
      }
    }
    return p;
  }

  // Pr[h in the subrange of probs() row p] under form f: digit t is the
  // constant f.known once f has no free variable, else a uniform bit.
  static long double marginal(const Form& f, const long double* p) {
    return f.free == 0 ? p[f.known] : 0.5L * p[0] + 0.5L * p[1];
  }

 private:
  struct Node {
    std::uint64_t vars = 0;    // the chunk's variables in the digit: a_t[i] for id bit i, c_t
    std::uint64_t prefix = 0;  // digits fixed so far
    int known = 0;             // parity of the fixed variables in digit t
    std::uint32_t bounds = 0;  // fanout+1 entries of bounds_ from here
    std::uint32_t probs = 0;   // 2*fanout entries of probs_ from here
    std::uint32_t fanout = 0;
    bool settled = false;  // every row constant for the rest of the step
  };

  // Tabulates p's subranges for chunk chunk_, given the digits fixed so
  // far. Once the fixed digits place every subrange wholly inside or
  // outside h's remaining range, every row is {0, 0} or {1, 1} and stays
  // so for each later digit: p is settled and not tabulated again.
  void tabulate(Node& p) {
    const int r = b_ - 1 - chunk_;  // digits after t
    const std::uint64_t span = std::uint64_t{1} << r;
    bool settled = true;
    for (std::uint32_t g = 0; g < p.fanout; ++g) {
      const std::uint64_t lo = bounds_[p.bounds + g];
      const std::uint64_t hi = bounds_[p.bounds + g + 1];
      std::uint64_t cover[2];
      for (std::uint64_t x = 0; x < 2; ++x) {
        // Pr[h in [lo, hi) | h's top t+1 digits = prefix, x]: the overlap
        // with that prefix's 2^r values, times 2^-r (exact: a power of 2).
        const std::uint64_t base = ((p.prefix << 1) | x) << r;
        const std::uint64_t a = std::max(lo, base);
        const std::uint64_t e = std::min(hi, base + span);
        cover[x] = a < e ? e - a : 0;
        probs_[p.probs + 2 * g + x] =
            cover[x] != 0 ? static_cast<long double>(cover[x]) * scale_ : 0.0L;
      }
      settled = settled && cover[0] == cover[1] && (cover[0] == 0 || cover[0] == span);
    }
    p.settled = settled;
  }

  int w_;
  int b_;
  int chunk_ = 0;    // t: digits < t are fixed
  int offset_ = 0;   // seed bits of chunk t fixed so far
  long double scale_ = 0.0L;  // 2^-r for chunk t, r = b-1-t
  std::vector<int> slot_;     // per node id: index into nodes_, -1 if absent
  std::vector<Node> nodes_;
  std::vector<std::uint64_t> bounds_;
  std::vector<long double> probs_;
};

}  // namespace dcolor
