#include "src/coloring/segment_derand.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "src/coloring/chunk_state.h"
#include "src/coloring/partial_coloring.h"  // precision_bits_for
#include "src/hash/coin_family.h"           // threshold_for
#include "src/util/bits.h"

namespace dcolor {

std::vector<std::uint64_t> multiway_bounds(const std::vector<int>& counts, int b) {
  std::uint64_t size = 0;
  for (int c : counts) size += static_cast<std::uint64_t>(c);
  std::vector<std::uint64_t> bounds(counts.size() + 1, 0);
  std::uint64_t cum = 0;
  for (std::size_t g = 0; g < counts.size(); ++g) {
    cum += static_cast<std::uint64_t>(counts[g]);
    bounds[g + 1] = threshold_for(cum, size, b);
  }
  return bounds;
}

SegmentDerandResult segment_derand_step(const std::vector<MultiwaySpec>& specs,
                                        const std::vector<std::vector<NodeId>>& conflict,
                                        int w, int b, int lambda,
                                        const std::function<void()>& on_segment,
                                        const EdgePairsFn& edge_pairs) {
  const NodeId n = static_cast<NodeId>(specs.size());
  SegmentDerandResult res;
  res.selected.assign(n, -1);

  // The nodes the objective reads: active nodes and their conflict
  // neighbors, ascending. Per-chunk and per-segment work runs over them
  // only. The diagonal objective reads a neighbor's table at every
  // subrange of the node's own fanout, so the fanouts must match.
  BitwiseChunkState chunks(w, b);
  chunks.reset(n);
  {
    std::vector<char> mark(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!specs[v].active) continue;
      mark[v] = 1;
      for (NodeId u : conflict[v]) {
        mark[u] = 1;
        if (edge_pairs == nullptr && specs[u].counts.size() != specs[v].counts.size()) {
          throw std::invalid_argument(
              "segment_derand_step: the diagonal objective needs equal fanouts on every "
              "conflict edge");
        }
      }
    }
    for (NodeId v = 0; v < n; ++v) {
      if (mark[v]) chunks.add(v, specs[v].id, specs[v].bounds);
    }
  }

  // Term-major: within a segment, term (v, j, g) depends on the candidate
  // R only through the endpoints' known parities, known ^ parity(mask & R).
  // Substitution clears the same free bits for every R, so the digit-pair
  // shape is fixed for the segment, and the probs() tables change only in
  // fix(). So each term's <= 4 parity cases are evaluated once, and every
  // candidate's sum adds the case it selects, in (v, j, g) order: the same
  // values in the same order as summing one candidate at a time. A term
  // whose cases are all +0.0 is skipped: adding +0.0 to a non-negative sum
  // is exact.
  using Form = BitwiseChunkState::Form;
  using Shape = BitwiseChunkState::PairShape;
  std::vector<long double> sums(std::size_t{1} << std::min(lambda, w + 1));
  std::vector<std::uint8_t> parity(sums.size(), 0);  // parity[R] = popcount(R) & 1
  for (std::size_t r = 1; r < parity.size(); ++r) parity[r] = parity[r >> 1] ^ (r & 1);
  while (!chunks.done()) {
    const int from = chunks.offset();
    const int seg = std::min(lambda, w + 1 - from);
    const std::size_t cands = std::size_t{1} << seg;
    const std::uint64_t seg_mask = cands - 1;
    std::fill_n(sums.begin(), cands, 0.0L);
    for (NodeId v = 0; v < n; ++v) {
      if (!specs[v].active) continue;
      const int sv = chunks.slot(v);
      const Form fv = chunks.form(sv);
      const Form rv = BitwiseChunkState::substitute(fv, from, seg, 0);
      for (std::size_t j = 0; j < conflict[v].size(); ++j) {
        const int su = chunks.slot(conflict[v][j]);
        const Form fu = chunks.form(su);
        const Form ru = BitwiseChunkState::substitute(fu, from, seg, 0);
        // Candidate R flips case index bit 1 by parity[xm & R] and bit 0 by
        // parity[ym & R]: v's and u's parities, or for a correlated pair
        // their xor (bit 0 then stays 0).
        std::uint64_t xm = 0, ym = 0;
        switch (BitwiseChunkState::pair_shape(rv, ru)) {
          case Shape::kConstant:
            xm = (fv.free >> from) & seg_mask;
            ym = (fu.free >> from) & seg_mask;
            break;
          case Shape::kCorrelated:
            xm = ((fv.free ^ fu.free) >> from) & seg_mask;
            break;
          case Shape::kUniform:
            break;
        }
        const int xs = xm != 0 ? 2 : 1;
        const int ys = ym != 0 ? 2 : 1;
        JointDist q[4];
        for (int x = 0; x < xs; ++x) {
          for (int y = 0; y < ys; ++y) {
            q[2 * x + y] = BitwiseChunkState::digit_pair({rv.free, rv.known ^ x},
                                                         {ru.free, ru.known ^ y});
          }
        }
        auto add_term = [&](int gv, int gu, int kg) {
          long double c[4] = {};
          bool zero = true;
          for (int x = 0; x < xs; ++x) {
            for (int y = 0; y < ys; ++y) {
              const long double p = BitwiseChunkState::pair_prob(
                                        q[2 * x + y], chunks.probs(sv, gv), chunks.probs(su, gu)) /
                                    kg;
              c[2 * x + y] = p;
              zero = zero && p == 0.0L;
            }
          }
          if (zero) return;
          for (std::size_t r = 0; r < cands; ++r) {
            sums[r] += c[2 * parity[xm & r] + parity[ym & r]];
          }
        };
        if (edge_pairs != nullptr) {
          // Weight 1: dividing by 1 is exact.
          for (const ConflictPair& cp : edge_pairs(v, j)) add_term(cp.g_v, cp.g_u, 1);
        } else {
          const int fanout = static_cast<int>(specs[v].counts.size());
          for (int g = 0; g < fanout; ++g) {
            if (specs[v].counts[g] != 0) add_term(g, g, specs[v].counts[g]);
          }
        }
      }
    }
    // The first minimum wins.
    std::size_t best_r = 0;
    for (std::size_t r = 1; r < cands; ++r) {
      if (sums[r] < sums[best_r]) best_r = r;
    }
    chunks.fix(seg, static_cast<std::uint64_t>(best_r));
    ++res.segments_fixed;
    on_segment();
  }

  for (NodeId v = 0; v < n; ++v) {
    if (!specs[v].active) continue;
    res.selected[v] = chunks.landed(chunks.slot(v));
    if (res.selected[v] < 0 || specs[v].counts[res.selected[v]] == 0) {
      throw std::logic_error(
          "segment_derand_step: an active node's hash selected no subrange with a positive "
          "count");
    }
  }
  return res;
}

std::vector<std::vector<NodeId>> section4_conflicts(const Graph& g,
                                                    const std::vector<bool>& active,
                                                    ListInstance& inst, int* delta_c) {
  const NodeId n = g.num_nodes();
  std::vector<std::vector<NodeId>> conflict(n);
  *delta_c = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    for (NodeId u : g.neighbors(v)) {
      if (active[u]) conflict[v].push_back(u);
    }
    *delta_c = std::max(*delta_c, static_cast<int>(conflict[v].size()));
    inst.trim_list(v, conflict[v].size() + 1);
  }
  return conflict;
}

std::vector<NodeId> section4_commit(const Graph& g, std::vector<std::vector<NodeId>>& conflict,
                                    const std::vector<Color>& candidate,
                                    std::vector<bool>& active, ListInstance& inst,
                                    std::vector<Color>& colors, const AnnounceFn& announce) {
  std::vector<NodeId> newly;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!active[v]) continue;
    std::erase_if(conflict[v], [&](NodeId u) { return candidate[u] != candidate[v]; });
    if (section4_keeps(v, conflict[v])) newly.push_back(v);
  }
  if (newly.empty()) {
    throw std::logic_error("Section-4 commit cycle made no progress (potential bound violated)");
  }
  for (NodeId v : newly) {
    colors[v] = candidate[v];
    active[v] = false;
  }
  announce(newly);
  for (NodeId v : newly) {
    for (NodeId u : g.neighbors(v)) {
      if (active[u]) inst.remove_color(u, colors[v]);
    }
  }
  return newly;
}

CommitCycleResult section4_commit_cycle(const Graph& g, std::vector<bool>& active,
                                        ListInstance& inst, std::vector<Color>& colors,
                                        int step, int lambda, const CommitCycleHooks& hooks) {
  const NodeId n = g.num_nodes();
  const int W = inst.color_bits();
  const int w = ceil_log2(std::max<std::uint64_t>(static_cast<std::uint64_t>(n), 2));
  int delta_c = 0;
  std::vector<std::vector<NodeId>> conflict = section4_conflicts(g, active, inst, &delta_c);
  const int b = precision_bits_for(delta_c, std::max(W, 1), /*avoid_mis=*/true);

  CommitCycleResult res;
  // Candidate range [lo, hi) of each sorted list: the entries sharing the
  // color prefix fixed so far.
  std::vector<int> lo(n, 0), hi(n, 0);
  std::vector<MultiwaySpec> specs(n);
  for (NodeId v = 0; v < n; ++v) {
    hi[v] = static_cast<int>(inst.list(v).size());
    specs[v].active = active[v];
    specs[v].id = static_cast<std::uint64_t>(v);
  }
  for (int ell = 0; ell < W; ell += step) {
    ++res.derand_passes;
    const int s = std::min(step, W - ell);
    // The range's entries share bits [0, ell), so their bits [ell, ell+s)
    // are ascending: subrange g is a contiguous block of the range.
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const auto& L = inst.list(v);
      specs[v].counts.assign(std::size_t{1} << s, 0);
      for (int i = lo[v]; i < hi[v]; ++i) {
        ++specs[v].counts[msb_prefix(static_cast<std::uint64_t>(L[i]), ell + s, W) &
                          ((std::uint64_t{1} << s) - 1)];
      }
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    hooks.on_pass(specs, conflict, b);
    const SegmentDerandResult der =
        segment_derand_step(specs, conflict, w, b, lambda, hooks.on_segment);
    // The seed is public, so every node knows its conflict neighbors'
    // subranges: edges survive only between equal selections.
    for (NodeId v = 0; v < n; ++v) {
      if (!active[v]) continue;
      const int sel = der.selected[v];
      for (int gval = 0; gval < sel; ++gval) lo[v] += specs[v].counts[gval];
      hi[v] = lo[v] + specs[v].counts[sel];
      std::erase_if(conflict[v], [&](NodeId u) { return der.selected[u] != sel; });
    }
  }

  // Full-width prefixes: every candidate range is one color.
  std::vector<Color> candidate(n, kUncolored);
  for (NodeId v = 0; v < n; ++v) {
    if (!active[v]) continue;
    assert(hi[v] - lo[v] == 1);
    candidate[v] = inst.list(v)[lo[v]];
  }
  res.newly = section4_commit(g, conflict, candidate, active, inst, colors, hooks.on_announce);
  return res;
}

}  // namespace dcolor
