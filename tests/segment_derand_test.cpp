// Unit tests for the segment-granular derandomization and the Section-4
// commit step shared by the clique and MPC algorithms.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

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
  const std::vector<ConflictPair> clash = {{0, 0, 1.0L}, {1, 1, 1.0L}};
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
    // Per directed edge (v, conflict[v][j]): a few weighted subrange pairs.
    std::vector<std::vector<std::vector<ConflictPair>>> pairs(n);
    for (int v = 0; v < n; ++v) {
      for (NodeId u : conflict[v]) {
        std::vector<ConflictPair> cps;
        const int k = 1 + static_cast<int>(rng.next_below(3));
        for (int i = 0; i < k; ++i) {
          cps.push_back({static_cast<int>(rng.next_below(specs[v].counts.size())),
                         static_cast<int>(rng.next_below(specs[u].counts.size())),
                         1.0L / static_cast<long double>(1 + rng.next_below(3))});
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
  EXPECT_EQ(h, 0xa658b2a4b4cae634ull);
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
