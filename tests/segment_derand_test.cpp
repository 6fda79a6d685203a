// Unit tests for the segment-granular derandomization and the Section-4
// commit step shared by the clique and MPC algorithms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/coloring/chunk_state.h"
#include "src/coloring/segment_derand.h"
#include "src/hash/coin_family.h"
#include "src/util/bits.h"
#include "src/util/rng.h"

namespace dcolor {
namespace {

TEST(MultiwayBounds, CoversAndRespectsEmptiness) {
  for (int b : {4, 8, 12}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    const std::vector<int> counts = {3, 0, 5, 1, 0, 7};
    auto bounds = multiway_bounds(counts, b);
    ASSERT_EQ(bounds.size(), counts.size() + 1);
    EXPECT_EQ(bounds.front(), 0u);
    EXPECT_EQ(bounds.back(), full);
    for (std::size_t g = 0; g < counts.size(); ++g) {
      EXPECT_LE(bounds[g], bounds[g + 1]);
      if (counts[g] == 0) {
        EXPECT_EQ(bounds[g], bounds[g + 1]);  // empty subranges are never hit
      } else {
        EXPECT_LT(bounds[g], bounds[g + 1]);  // nonempty subranges are hittable
      }
      // Interval length within 2^-b of the exact probability (Lemma 2.5).
      const long double p =
          static_cast<long double>(counts[g]) / 16.0L;  // total = 16
      const long double realized =
          static_cast<long double>(bounds[g + 1] - bounds[g]) / full;
      EXPECT_NEAR(static_cast<double>(realized), static_cast<double>(p), 2.0 / full);
    }
  }
}

TEST(MultiwayBounds, SingletonAndUniform) {
  auto b1 = multiway_bounds({5}, 6);
  EXPECT_EQ(b1, (std::vector<std::uint64_t>{0, 64}));
  auto b2 = multiway_bounds({1, 1, 1, 1}, 4);
  for (int g = 0; g < 4; ++g) EXPECT_EQ(b2[g + 1] - b2[g], 4u);
}

// The diagonal objective reads a conflict neighbor's table at every
// subrange of the node's own fanout, so mixed fanouts on a conflict edge
// are rejected up front in every build type — before any segment is
// fixed — instead of reading past the smaller table. With color-value
// matchings (`edge_pairs`) mixed fanouts stay legal.
TEST(SegmentDerand, DiagonalObjectiveRejectsMixedFanouts) {
  const int b = 8;
  std::vector<MultiwaySpec> specs(4);
  for (int v = 0; v < 4; ++v) {
    specs[v].active = true;
    specs[v].id = static_cast<std::uint64_t>(v);
    specs[v].counts = v == 2 ? std::vector<int>{1, 1} : std::vector<int>{1, 2, 1, 1};
    specs[v].bounds = multiway_bounds(specs[v].counts, b);
  }
  const std::vector<std::vector<NodeId>> conflict = {{1}, {0, 2}, {1, 3}, {2}};
  int segs = 0;
  EXPECT_THROW(segment_derand_step(specs, conflict, /*w=*/2, b, /*lambda=*/3, [&] { ++segs; }),
               std::invalid_argument);
  EXPECT_EQ(segs, 0);

  const std::vector<ConflictPair> same = {{0, 0}, {1, 1}};
  const EdgePairsFn pairs = [&](NodeId, std::size_t) -> const std::vector<ConflictPair>& {
    return same;
  };
  const SegmentDerandResult res =
      segment_derand_step(specs, conflict, /*w=*/2, b, /*lambda=*/3, [] {}, pairs);
  for (int v = 0; v < 4; ++v) {
    ASSERT_GE(res.selected[v], 0);
    EXPECT_LT(res.selected[v], static_cast<int>(specs[v].counts.size()));
  }
}

// The derandomized selection must always land in a NONEMPTY subrange and,
// on the diagonal objective, produce at most the expected number of
// conflicts (method of conditional expectations: result <= expectation).
TEST(SegmentDerand, SelectionsValidAndBeatExpectation) {
  Rng rng(7);
  for (int trial = 0; trial < 12; ++trial) {
    const int n = 8;
    const int fanout = 1 + static_cast<int>(rng.next_below(4));
    const int b = 8;
    std::vector<MultiwaySpec> specs(n);
    for (int v = 0; v < n; ++v) {
      specs[v].active = true;
      specs[v].id = static_cast<std::uint64_t>(v);
      specs[v].counts.resize(fanout);
      int nonzero = 0;
      for (int g = 0; g < fanout; ++g) {
        specs[v].counts[g] = static_cast<int>(rng.next_below(4));
        nonzero += specs[v].counts[g] > 0;
      }
      if (nonzero == 0) specs[v].counts[0] = 1;
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    // Ring conflicts.
    std::vector<std::vector<NodeId>> conflict(n);
    for (int v = 0; v < n; ++v) {
      conflict[v] = {static_cast<NodeId>((v + 1) % n), static_cast<NodeId>((v + n - 1) % n)};
    }
    int segs = 0;
    auto res = segment_derand_step(specs, conflict, /*w=*/3, b, /*lambda=*/2,
                                   [&] { ++segs; });
    EXPECT_EQ(segs, res.segments_fixed);
    EXPECT_EQ(segs, b * 2);  // (w+1)/lambda = 2 segments per chunk

    // Expected potential of the random process (uniform digit choice
    // within intervals): Sum over edges, subranges of p_g(u)*p_g(v)*
    // (1/k_g(u)); the derandomized outcome must not exceed it (+eps).
    long double expectation = 0;
    const long double full = static_cast<long double>(std::uint64_t{1} << b);
    for (int v = 0; v < n; ++v) {
      for (NodeId u : conflict[v]) {
        for (int g = 0; g < fanout; ++g) {
          if (specs[v].counts[g] == 0) continue;
          const long double pv =
              (specs[v].bounds[g + 1] - specs[v].bounds[g]) / full;
          const long double pu =
              (specs[u].bounds[g + 1] - specs[u].bounds[g]) / full;
          expectation += pv * pu / specs[v].counts[g];
        }
      }
    }
    long double realized = 0;
    for (int v = 0; v < n; ++v) {
      ASSERT_GE(res.selected[v], 0);
      ASSERT_LT(res.selected[v], fanout);
      EXPECT_GT(specs[v].counts[res.selected[v]], 0) << "trial " << trial;
      for (NodeId u : conflict[v]) {
        if (res.selected[u] == res.selected[v]) {
          realized += 1.0L / specs[v].counts[res.selected[v]];
        }
      }
    }
    EXPECT_LE(static_cast<double>(realized), static_cast<double>(expectation) + 1e-9)
        << "trial " << trial;
  }
}

TEST(SegmentDerand, InactiveNodesIgnored) {
  const int b = 6;
  std::vector<MultiwaySpec> specs(3);
  for (int v = 0; v < 3; ++v) {
    specs[v].active = v != 1;
    specs[v].id = static_cast<std::uint64_t>(v);
    specs[v].counts = {1, 1};
    specs[v].bounds = multiway_bounds(specs[v].counts, b);
  }
  std::vector<std::vector<NodeId>> conflict(3);
  conflict[0] = {2};
  conflict[2] = {0};
  auto res = segment_derand_step(specs, conflict, 2, b, 3, [] {});
  EXPECT_EQ(res.selected[1], -1);
  EXPECT_GE(res.selected[0], 0);
  EXPECT_GE(res.selected[2], 0);
}

// The custom edge-pair objective (Lemma 4.2): two nodes with identical
// 2-color lists and a "must differ" pairing must end up on different
// entries (expectation 0.5 conflicts; derandomized <= 0.5 means at most
// zero realized conflicts is achievable and must be achieved whenever
// the expectation is < 1 ... here: strictly fewer than 1, i.e. 0).
TEST(SegmentDerand, EdgePairObjectiveAvoidsMatchingColors) {
  const int b = 8;
  std::vector<MultiwaySpec> specs(2);
  for (int v = 0; v < 2; ++v) {
    specs[v].active = true;
    specs[v].id = static_cast<std::uint64_t>(v);
    specs[v].counts = {1, 1};
    specs[v].bounds = multiway_bounds(specs[v].counts, b);
  }
  std::vector<std::vector<NodeId>> conflict(2);
  conflict[0] = {1};
  conflict[1] = {0};
  // Same-index selections clash (same color list on both nodes).
  const std::vector<ConflictPair> clash = {{0, 0}, {1, 1}};
  auto res = segment_derand_step(
      specs, conflict, 1, b, 2, [] {},
      [&](NodeId, std::size_t) -> const std::vector<ConflictPair>& { return clash; });
  EXPECT_NE(res.selected[0], res.selected[1]);
}

// An active node whose counts are all 0 has no selectable subrange. The
// check is an invariant of every caller, and it must throw in release
// builds too instead of returning -1 (or an empty subrange) as a choice.
TEST(SegmentDerand, AllZeroCountsThrow) {
  const int b = 6;
  const std::uint64_t full = std::uint64_t{1} << b;
  // Empty subranges have equal bounds, so no subrange covers the hash;
  // and bounds that do cover it, but only subranges with no colors.
  for (const std::vector<std::uint64_t>& bounds :
       {std::vector<std::uint64_t>{0, 0, 0}, std::vector<std::uint64_t>{0, full / 2, full}}) {
    std::vector<MultiwaySpec> specs(2);
    for (int v = 0; v < 2; ++v) {
      specs[v].active = true;
      specs[v].id = static_cast<std::uint64_t>(v);
      specs[v].counts = {1, 1};
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    specs[1].counts = {0, 0};
    specs[1].bounds = bounds;
    std::vector<std::vector<NodeId>> conflict = {{1}, {0}};
    EXPECT_THROW(segment_derand_step(specs, conflict, 1, b, 2, [] {}), std::logic_error);
  }
}

// Pins the exact selections on seeded random instances: lambda in
// {1, 2, 3, w+1}, fanouts 2..8 with empty subranges, precision up to 40
// bits, both the diagonal and the edge-pair objective. The golden pins
// reach only the clique's and MPC's own lambda; this reaches the rest of
// the kernel's arithmetic (recorded for the x87 80-bit long double). The
// diagonal objective compares subrange indices across an edge, so its
// instances give every node one fanout, as the commit cycle does; the
// edge-pair instances mix fanouts, as Lemma 4.2's lists do.
TEST(SegmentDerand, ExactBitsDigest) {
  if (std::numeric_limits<long double>::digits != 64) {
    GTEST_SKIP() << "digest is recorded for the x87 80-bit long double";
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](std::int64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(word) >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  };
  Rng rng(2718);
  for (int trial = 0; trial < 16; ++trial) {
    const bool diagonal = trial % 2 == 0;
    const int n = 5 + static_cast<int>(rng.next_below(8));
    const int w = ceil_log2(static_cast<std::uint64_t>(n)) + static_cast<int>(rng.next_below(2));
    const int b = trial < 2 ? 40 : 2 + static_cast<int>(rng.next_below(11));
    const int common_fanout = 2 + static_cast<int>(rng.next_below(7));
    std::vector<MultiwaySpec> specs(n);
    for (int v = 0; v < n; ++v) {
      specs[v].active = rng.next_below(5) != 0;
      specs[v].id = static_cast<std::uint64_t>(v);
      const int fanout = diagonal ? common_fanout : 2 + static_cast<int>(rng.next_below(7));
      specs[v].counts.resize(fanout);
      int nonzero = 0;
      for (int g = 0; g < fanout; ++g) {
        specs[v].counts[g] = static_cast<int>(rng.next_below(4));
        nonzero += specs[v].counts[g] > 0;
      }
      if (nonzero == 0) specs[v].counts[fanout - 1] = 1;
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    std::vector<std::vector<NodeId>> conflict(n);
    for (int v = 0; v < n; ++v) {
      for (int u = v + 1; u < n; ++u) {
        if (specs[v].active && specs[u].active && rng.next_below(5) < 2) {
          conflict[v].push_back(static_cast<NodeId>(u));
          conflict[u].push_back(static_cast<NodeId>(v));
        }
      }
    }
    // Per directed edge (v, conflict[v][j]): a few subrange pairs. The
    // discarded third draw keeps the random stream of later instances.
    std::vector<std::vector<std::vector<ConflictPair>>> pairs(n);
    for (int v = 0; v < n; ++v) {
      for (NodeId u : conflict[v]) {
        std::vector<ConflictPair> cps;
        const int k = 1 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < k; ++i) {
          cps.push_back({static_cast<int>(rng.next_below(specs[v].counts.size())),
                         static_cast<int>(rng.next_below(specs[u].counts.size()))});
          rng.next_below(3);
        }
        pairs[v].push_back(std::move(cps));
      }
    }
    const EdgePairsFn edge_pairs = [&](NodeId v, std::size_t j)
        -> const std::vector<ConflictPair>& { return pairs[v][j]; };
    for (int lambda : {1, 2, 3, w + 1}) {
      for (bool use_pairs : {false, true}) {
        if (!use_pairs && !diagonal) continue;
        const SegmentDerandResult res = segment_derand_step(
            specs, conflict, w, b, lambda, [] {}, use_pairs ? edge_pairs : nullptr);
        for (int sel : res.selected) mix(sel);
        mix(res.segments_fixed);
      }
    }
  }
  EXPECT_EQ(h, 0x21ba6d47fa791a90ull);
}

// The candidate-major loop segment_derand_step replaced, kept as its
// reference: for each candidate R of a segment, substitute R into every
// node's digit form and sum every term in (v, j, g) order; the first
// minimum wins.
SegmentDerandResult candidate_major_reference(const std::vector<MultiwaySpec>& specs,
                                              const std::vector<std::vector<NodeId>>& conflict,
                                              int w, int b, int lambda,
                                              const EdgePairsFn& edge_pairs) {
  const NodeId n = static_cast<NodeId>(specs.size());
  SegmentDerandResult res;
  res.selected.assign(n, -1);
  BitwiseChunkState chunks(w, b);
  chunks.reset(n);
  std::vector<char> mark(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    if (!specs[v].active) continue;
    mark[v] = 1;
    for (NodeId u : conflict[v]) mark[u] = 1;
  }
  for (NodeId v = 0; v < n; ++v) {
    if (mark[v]) chunks.add(v, specs[v].id, specs[v].bounds);
  }
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
            for (const ConflictPair& cp : edge_pairs(v, j)) sum += joint_pg(cp.g_v, cp.g_u);
          } else {
            for (std::size_t g = 0; g < specs[v].counts.size(); ++g) {
              const int kg = specs[v].counts[g];
              if (kg == 0) continue;
              sum += joint_pg(static_cast<int>(g), static_cast<int>(g)) / kg;
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
  }
  for (NodeId v = 0; v < n; ++v) {
    if (specs[v].active) res.selected[v] = chunks.landed(chunks.slot(v));
  }
  return res;
}

// Term-major evaluation against the candidate-major reference, exact
// equality of every selection on 240 seeded instances: lambda in
// {1, 2, 3, w+1}, precision 1..16 and 40 bits, subranges with zero
// counts, nodes settled from the first chunk (one nonempty subrange), the
// diagonal objective on one fanout per instance and edge pairs (some
// edges with none) on mixed fanouts. Every 8th instance has no conflict
// edge: all sums tie at +0, so R = 0 must win every segment and each node
// lands where the all-zero seed puts h = 0, in its first nonempty
// subrange.
TEST(SegmentDerand, TermMajorMatchesCandidateMajorReference) {
  Rng rng(4242);
  int settled_nodes = 0;
  for (int trial = 0; trial < 240; ++trial) {
    const bool diagonal = trial % 2 == 0;
    const bool all_tie = trial % 8 == 1;
    const int n = 2 + static_cast<int>(rng.next_below(11));
    const int w = ceil_log2(static_cast<std::uint64_t>(n)) + static_cast<int>(rng.next_below(2));
    const int b = trial % 5 == 0 ? 40 : 1 + static_cast<int>(rng.next_below(16));
    const int common_fanout = 1 + static_cast<int>(rng.next_below(8));
    std::vector<MultiwaySpec> specs(n);
    for (int v = 0; v < n; ++v) {
      specs[v].active = rng.next_below(5) != 0;
      specs[v].id = static_cast<std::uint64_t>(v);
      const int fanout = diagonal ? common_fanout : 1 + static_cast<int>(rng.next_below(8));
      specs[v].counts.assign(fanout, 0);
      if (rng.next_below(6) == 0) {
        specs[v].counts[rng.next_below(fanout)] = 1 + static_cast<int>(rng.next_below(3));
        ++settled_nodes;
      } else {
        for (int g = 0; g < fanout; ++g) specs[v].counts[g] = static_cast<int>(rng.next_below(4));
        if (std::all_of(specs[v].counts.begin(), specs[v].counts.end(),
                        [](int c) { return c == 0; })) {
          specs[v].counts[0] = 1;
        }
      }
      specs[v].bounds = multiway_bounds(specs[v].counts, b);
    }
    std::vector<std::vector<NodeId>> conflict(n);
    for (int v = 0; v < n && !all_tie; ++v) {
      for (int u = v + 1; u < n; ++u) {
        if (specs[v].active && specs[u].active && rng.next_below(2) == 0) {
          conflict[v].push_back(static_cast<NodeId>(u));
          conflict[u].push_back(static_cast<NodeId>(v));
        }
      }
    }
    std::vector<std::vector<std::vector<ConflictPair>>> pairs(n);
    for (int v = 0; v < n; ++v) {
      for (NodeId u : conflict[v]) {
        std::vector<ConflictPair> cps(rng.next_below(4));
        for (ConflictPair& cp : cps) {
          cp = {static_cast<int>(rng.next_below(specs[v].counts.size())),
                static_cast<int>(rng.next_below(specs[u].counts.size()))};
        }
        pairs[v].push_back(std::move(cps));
      }
    }
    const EdgePairsFn edge_pairs = [&](NodeId v, std::size_t j)
        -> const std::vector<ConflictPair>& { return pairs[v][j]; };
    for (int lambda : {1, 2, 3, w + 1}) {
      const EdgePairsFn objective = diagonal ? nullptr : edge_pairs;
      int segments = 0;
      const SegmentDerandResult got =
          segment_derand_step(specs, conflict, w, b, lambda, [&] { ++segments; }, objective);
      const SegmentDerandResult want =
          candidate_major_reference(specs, conflict, w, b, lambda, objective);
      ASSERT_EQ(got.selected, want.selected) << "trial " << trial << " lambda " << lambda;
      ASSERT_EQ(got.segments_fixed, want.segments_fixed);
      ASSERT_EQ(segments, got.segments_fixed);
      if (!all_tie) continue;
      for (int v = 0; v < n; ++v) {
        if (!specs[v].active) continue;
        const auto first = std::find_if(specs[v].counts.begin(), specs[v].counts.end(),
                                        [](int c) { return c != 0; });
        EXPECT_EQ(got.selected[v], first - specs[v].counts.begin()) << "trial " << trial;
      }
    }
  }
  EXPECT_GT(settled_nodes, 100);
}

// digit_pair's precondition, that both forms of a pair are constant or
// neither is, holds by construction (c_t is free until the chunk's last
// bit). The segment loop classifies each pair once per segment through
// pair_shape, which checks it in every build type.
TEST(SegmentDerand, PairShapeChecksItsPreconditionInEveryBuild) {
  using Form = BitwiseChunkState::Form;
  using Shape = BitwiseChunkState::PairShape;
  EXPECT_EQ(BitwiseChunkState::pair_shape(Form{0, 1}, Form{0, 0}), Shape::kConstant);
  EXPECT_EQ(BitwiseChunkState::pair_shape(Form{6, 0}, Form{6, 1}), Shape::kCorrelated);
  EXPECT_EQ(BitwiseChunkState::pair_shape(Form{6, 0}, Form{5, 0}), Shape::kUniform);
  EXPECT_THROW(BitwiseChunkState::pair_shape(Form{0, 0}, Form{4, 0}), std::logic_error);
  EXPECT_THROW(BitwiseChunkState::pair_shape(Form{4, 1}, Form{0, 1}), std::logic_error);
}

// The commit rule on a triangle: a node keeps its candidate with no
// conflict left or with one conflict to a lower id; committed colors leave
// the remaining neighbors' lists, after the announcement was charged.
// With every candidate equal, no node keeps and the cycle must throw.
TEST(Section4Commit, HigherIdWinsAndPrunes) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}, {0, 2}});
  ListInstance inst(g, 4, {{0, 1, 2, 3}, {0, 1, 2}, {0, 1, 2}});
  std::vector<bool> active(3, true);
  int delta_c = -1;
  std::vector<std::vector<NodeId>> conflict = section4_conflicts(g, active, inst, &delta_c);
  EXPECT_EQ(delta_c, 2);
  EXPECT_EQ(conflict[0], (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(inst.list(0), (std::vector<Color>{0, 1, 2}));  // trimmed to deg+1

  std::vector<Color> colors(3, kUncolored);
  std::vector<NodeId> announced;
  const std::vector<NodeId> newly =
      section4_commit(g, conflict, {0, 0, 1}, active, inst, colors,
                      [&](const std::vector<NodeId>& nw) {
                        announced = nw;
                        EXPECT_EQ(inst.list(0).size(), 3u);  // pruned after announcing
                      });
  EXPECT_EQ(newly, (std::vector<NodeId>{1, 2}));
  EXPECT_EQ(announced, newly);
  EXPECT_EQ(colors, (std::vector<Color>{kUncolored, 0, 1}));
  EXPECT_EQ(active, (std::vector<bool>{true, false, false}));
  EXPECT_EQ(inst.list(0), (std::vector<Color>{2}));

  std::vector<bool> all(3, true);
  std::vector<std::vector<NodeId>> clash = section4_conflicts(g, all, inst, &delta_c);
  std::vector<Color> none(3, kUncolored);
  EXPECT_THROW(section4_commit(g, clash, {2, 2, 2}, all, inst, none,
                               [](const std::vector<NodeId>&) {}),
               std::logic_error);
}

}  // namespace
}  // namespace dcolor
