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
  // neighbors, ascending. Per-chunk and per-candidate work runs over them
  // only.
  BitwiseChunkState chunks(w, b);
  chunks.reset(n);
  {
    std::vector<char> mark(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!specs[v].active) continue;
      mark[v] = 1;
      for (NodeId u : conflict[v]) mark[u] = 1;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (mark[v]) chunks.add(v, specs[v].id, specs[v].bounds);
    }
  }

  // Per node slot: digit t's form with the candidate segment substituted.
  std::vector<BitwiseChunkState::Form> cand(static_cast<std::size_t>(chunks.size()));
  while (!chunks.done()) {
    const int from = chunks.offset();
    const int seg = std::min(lambda, w + 1 - from);
    long double best_val = 0;
    int best_r = -1;
    for (int R = 0; R < (1 << seg); ++R) {
      for (int s = 0; s < chunks.size(); ++s) {
        cand[s] = BitwiseChunkState::substitute(chunks.form(s), from, seg,
                                                static_cast<std::uint64_t>(R));
      }
      long double sum = 0;
      for (NodeId v = 0; v < n; ++v) {
        if (!specs[v].active) continue;
        const int sv = chunks.slot(v);
        for (std::size_t j = 0; j < conflict[v].size(); ++j) {
          const int su = chunks.slot(conflict[v][j]);
          const JointDist q = BitwiseChunkState::digit_pair(cand[sv], cand[su]);
          auto joint_pg = [&](int gv, int gu) {
            return BitwiseChunkState::pair_prob(q, chunks.probs(sv, gv), chunks.probs(su, gu));
          };
          if (edge_pairs != nullptr) {
            for (const ConflictPair& cp : edge_pairs(v, j)) {
              sum += joint_pg(cp.g_v, cp.g_u) * cp.weight;
            }
          } else {
            const int fanout = static_cast<int>(specs[v].counts.size());
            assert(specs[conflict[v][j]].counts.size() == specs[v].counts.size());
            for (int g = 0; g < fanout; ++g) {
              const int kg = specs[v].counts[g];
              if (kg == 0) continue;
              sum += joint_pg(g, g) / kg;
            }
          }
        }
      }
      if (best_r < 0 || sum < best_val) {
        best_val = sum;
        best_r = R;
      }
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
