#include "src/coloring/segment_derand.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "src/coloring/partial_coloring.h"  // precision_bits_for
#include "src/hash/coin_family.h"           // threshold_for
#include "src/util/bits.h"

namespace dcolor {
namespace {

struct ChunkForm {
  std::uint64_t free_mask = 0;
  int known = 0;
};

// Pr[h in [lo,hi)] given determined output digits `prefix` (there are
// b - r of them) and r uniform digits to come.
inline long double interval_prob(std::uint64_t lo, std::uint64_t hi, std::uint64_t prefix,
                                 int r) {
  const std::uint64_t lo_range = prefix << r;
  const std::uint64_t hi_range = lo_range + (std::uint64_t{1} << r);
  const std::uint64_t a = lo > lo_range ? lo : lo_range;
  const std::uint64_t b2 = hi < hi_range ? hi : hi_range;
  if (a >= b2) return 0.0L;
  return ldexpl(static_cast<long double>(b2 - a), -r);
}

inline void substitute(ChunkForm& f, int from_var, int count, int assignment) {
  for (int k = 0; k < count; ++k) {
    const int var = from_var + k;
    if (f.free_mask >> var & 1) {
      f.free_mask &= ~(std::uint64_t{1} << var);
      if (assignment >> k & 1) f.known ^= 1;
    }
  }
}

}  // namespace

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
  std::vector<NodeId> involved;
  {
    std::vector<char> mark(n, 0);
    for (NodeId v = 0; v < n; ++v) {
      if (!specs[v].active) continue;
      mark[v] = 1;
      for (NodeId u : conflict[v]) mark[u] = 1;
    }
    for (NodeId v = 0; v < n; ++v) {
      if (mark[v]) involved.push_back(v);
    }
  }
  // prob[first[v] + 2*g + x] = Pr[h_v in subrange g | digits fixed so far,
  // digit t = x], tabulated once per chunk t.
  std::vector<std::size_t> first(n, 0);
  std::size_t table_size = 0;
  for (NodeId v : involved) {
    first[v] = table_size;
    table_size += 2 * specs[v].counts.size();
  }
  std::vector<long double> prob(table_size);

  std::vector<std::uint64_t> hash_prefix(n, 0);
  std::vector<ChunkForm> form(n);
  std::vector<ChunkForm> cand_form(n);
  const std::uint64_t a_mask = (w >= 64) ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);

  for (int t = 0; t < b; ++t) {
    const int r_after = b - t - 1;
    for (NodeId v : involved) {
      form[v].free_mask = (specs[v].id & a_mask) | (std::uint64_t{1} << w);
      form[v].known = 0;
      const std::vector<std::uint64_t>& bounds = specs[v].bounds;
      for (std::size_t g = 0; g < specs[v].counts.size(); ++g) {
        for (int x = 0; x < 2; ++x) {
          prob[first[v] + 2 * g + static_cast<std::size_t>(x)] =
              interval_prob(bounds[g], bounds[g + 1],
                            (hash_prefix[v] << 1) | static_cast<unsigned>(x), r_after);
        }
      }
    }
    int bit_pos = 0;
    while (bit_pos < w + 1) {
      const int seg = std::min(lambda, w + 1 - bit_pos);
      const int num_cand = 1 << seg;
      long double best_val = 0;
      int best_r = -1;
      for (int R = 0; R < num_cand; ++R) {
        for (NodeId v : involved) {
          cand_form[v] = form[v];
          substitute(cand_form[v], bit_pos, seg, R);
        }
        long double sum = 0;
        for (NodeId v = 0; v < n; ++v) {
          if (!specs[v].active) continue;
          const ChunkForm& fv = cand_form[v];
          for (std::size_t j = 0; j < conflict[v].size(); ++j) {
            const NodeId u = conflict[v][j];
            const ChunkForm& fu = cand_form[u];
            long double q[2][2] = {{0, 0}, {0, 0}};
            if (fv.free_mask == 0 && fu.free_mask == 0) {
              q[fv.known][fu.known] = 1.0L;
            } else if (fv.free_mask == 0) {
              q[fv.known][0] = q[fv.known][1] = 0.5L;
            } else if (fu.free_mask == 0) {
              q[0][fu.known] = q[1][fu.known] = 0.5L;
            } else if (fv.free_mask == fu.free_mask) {
              const int delta = fv.known ^ fu.known;
              q[0][delta] = q[1][1 ^ delta] = 0.5L;
            } else {
              q[0][0] = q[0][1] = q[1][0] = q[1][1] = 0.25L;
            }
            auto joint_pg = [&](std::size_t gv, std::size_t gu) {
              const long double* pv = &prob[first[v] + 2 * gv];
              const long double* pu = &prob[first[u] + 2 * gu];
              long double p_both = 0;
              for (int x = 0; x < 2; ++x) {
                for (int y = 0; y < 2; ++y) {
                  if (q[x][y] == 0.0L) continue;
                  p_both += q[x][y] * pv[x] * pu[y];
                }
              }
              return p_both;
            };
            if (edge_pairs != nullptr) {
              for (const ConflictPair& cp : edge_pairs(v, j)) {
                sum += joint_pg(static_cast<std::size_t>(cp.g_v),
                                static_cast<std::size_t>(cp.g_u)) *
                       cp.weight;
              }
            } else {
              const std::size_t fanout = specs[v].counts.size();
              for (std::size_t g = 0; g < fanout; ++g) {
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
      for (NodeId v : involved) substitute(form[v], bit_pos, seg, best_r);
      bit_pos += seg;
      ++res.segments_fixed;
      on_segment();
    }
    for (NodeId v : involved) {
      assert(form[v].free_mask == 0);
      hash_prefix[v] = (hash_prefix[v] << 1) | static_cast<unsigned>(form[v].known);
    }
  }

  for (NodeId v = 0; v < n; ++v) {
    if (!specs[v].active) continue;
    const std::uint64_t h = hash_prefix[v];
    for (std::size_t g = 0; g < specs[v].counts.size(); ++g) {
      if (h >= specs[v].bounds[g] && h < specs[v].bounds[g + 1]) {
        res.selected[v] = static_cast<int>(g);
        break;
      }
    }
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
