#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "src/congest/bfs_tree.h"
#include "src/congest/network.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"

namespace dcolor {
namespace {

using congest::BfsTree;
using congest::CongestViolation;
using congest::Metrics;
using congest::Network;

TEST(MetricsTest, MergeSumsCountsAndMaxesMessageBits) {
  Metrics a;
  a.rounds = 3;
  a.messages = 10;
  a.total_bits = 80;
  a.max_message_bits = 8;
  Metrics b;
  b.rounds = 2;
  b.messages = 5;
  b.total_bits = 100;
  b.max_message_bits = 20;

  a.merge(b);
  EXPECT_EQ(a.rounds, 5);
  EXPECT_EQ(a.messages, 15);
  EXPECT_EQ(a.total_bits, 180);
  EXPECT_EQ(a.max_message_bits, 20);  // max, not sum

  // Merging a smaller max must keep the larger one, and merging a
  // default-constructed Metrics is the identity.
  Metrics small;
  small.max_message_bits = 4;
  a.merge(small);
  EXPECT_EQ(a.max_message_bits, 20);
  const Metrics before = a;
  a.merge(Metrics{});
  EXPECT_EQ(a.rounds, before.rounds);
  EXPECT_EQ(a.messages, before.messages);
  EXPECT_EQ(a.total_bits, before.total_bits);
  EXPECT_EQ(a.max_message_bits, before.max_message_bits);
}

TEST(Network, DeliversAfterRound) {
  auto g = make_path(3);
  Network net(g);
  net.send(0, 1, 42, 6);
  EXPECT_TRUE(net.inbox(1).empty());
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.inbox(1)[0].from, 0);
  EXPECT_EQ(net.inbox(1)[0].payload, 42u);
  EXPECT_EQ(net.metrics().rounds, 1);
  EXPECT_EQ(net.metrics().messages, 1);
}

TEST(Network, RejectsNonEdge) {
  auto g = make_path(3);
  Network net(g);
  EXPECT_THROW(net.send(0, 2, 1, 1), CongestViolation);
}

TEST(Network, RejectsOversizedMessage) {
  auto g = make_path(3);
  Network net(g, 8);
  EXPECT_THROW(net.send(0, 1, 0, 9), CongestViolation);
}

TEST(Network, RejectsUndersizedDeclaration) {
  auto g = make_path(3);
  Network net(g);
  EXPECT_THROW(net.send(0, 1, 255, 4), CongestViolation);  // 255 needs 8 bits
}

TEST(Network, RejectsDoubleSendSameEdgeSameRound) {
  auto g = make_path(3);
  Network net(g);
  net.send(0, 1, 1, 1);
  EXPECT_THROW(net.send(0, 1, 2, 2), CongestViolation);
  // Opposite direction is fine.
  net.send(1, 0, 3, 2);
  net.advance_round();
  // Next round the edge is free again.
  net.send(0, 1, 1, 1);
  net.advance_round();
  EXPECT_EQ(net.metrics().messages, 3);
}

TEST(Network, BandwidthDefaultIsLogarithmic) {
  auto g = make_path(1000);
  Network net(g);
  EXPECT_GE(net.bandwidth_bits(), 2 * 10);
  EXPECT_LE(net.bandwidth_bits(), 2 * 10 + 16);
}

// Violation-path coverage: every way an algorithm can cheat the model —
// oversize payloads, double-sends on one edge per round, and declaring
// fewer bits than the payload's magnitude — must throw CongestViolation,
// and a rejected send must leave the network state untouched.

TEST(NetworkViolations, OversizeBoundaryIsExact) {
  auto g = make_path(3);
  Network net(g, 8);
  net.send(0, 1, 255, 8);  // exactly at the budget: allowed
  EXPECT_THROW(net.send(1, 2, 0, 9), CongestViolation);
  net.advance_round();
  EXPECT_EQ(net.metrics().max_message_bits, 8);
}

TEST(NetworkViolations, DeclaredBitsMustCoverMagnitude) {
  auto g = make_path(3);
  Network net(g);
  net.send(0, 1, 15, 4);                                  // 15 fits in 4 bits
  EXPECT_THROW(net.send(1, 2, 16, 4), CongestViolation);  // 16 needs 5
  // Wide-payload magnitude check: bandwidth 64 so only the declared-size
  // check can fire (~0 needs 64 bits, 63 declared).
  Network wide(g, 64);
  EXPECT_THROW(wide.send(1, 2, ~0ull, 63), CongestViolation);
  wide.send(1, 2, ~0ull, 64);  // full-width payload with honest declaration
}

TEST(NetworkViolations, RejectsSelfLoopSend) {
  auto g = make_path(3);
  Network net(g);
  EXPECT_THROW(net.send(1, 1, 0, 1), CongestViolation);
}

TEST(NetworkViolations, DoubleSendViaSendAll) {
  auto g = make_star(4);
  Network net(g);
  net.send_all(0, 1, 1);
  // The broadcast already used every incident edge of the center.
  EXPECT_THROW(net.send(0, 1, 1, 1), CongestViolation);
  EXPECT_THROW(net.send_all(0, 1, 1), CongestViolation);
  // Leaf-to-center is the opposite edge slot: still free.
  net.send(1, 0, 1, 1);
  net.advance_round();
  EXPECT_EQ(net.inbox(0).size(), 1u);
  EXPECT_EQ(net.inbox(3).size(), 1u);
}

TEST(NetworkViolations, FailedSendLeavesStateClean) {
  auto g = make_path(3);
  Network net(g, 8);
  EXPECT_THROW(net.send(0, 1, 0, 9), CongestViolation);
  EXPECT_EQ(net.metrics().messages, 0);
  // The rejected send must not have stamped the edge.
  net.send(0, 1, 7, 3);
  net.advance_round();
  ASSERT_EQ(net.inbox(1).size(), 1u);
  EXPECT_EQ(net.metrics().messages, 1);
  EXPECT_EQ(net.metrics().total_bits, 3);
}

TEST(NetworkViolations, ResetMetricsClearsEdgeStamps) {
  auto g = make_path(2);
  Network net(g);
  net.send(0, 1, 1, 1);
  // Restarting the round counter must not alias old stamps with the new
  // round 0 (see reset_metrics); the edge is immediately usable again.
  net.reset_metrics();
  EXPECT_NO_THROW(net.send(0, 1, 1, 1));
}

TEST(BfsTreeTest, BuildsCorrectLevels) {
  auto g = make_path(8);
  Network net(g);
  BfsTree t = BfsTree::build(net, 0);
  EXPECT_EQ(t.depth(), 7);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(t.levels()[v], v);
  EXPECT_EQ(t.parent(3), 2);
  EXPECT_EQ(t.parent(0), -1);
  // Flooding cost: eccentricity + 1 rounds.
  EXPECT_EQ(net.metrics().rounds, 8);
}

TEST(BfsTreeTest, DepthMatchesEccentricityOnGrid) {
  auto g = make_grid(5, 5);
  Network net(g);
  BfsTree t = BfsTree::build(net, 0);
  auto dist = bfs_distances(g, 0);
  int ecc = 0;
  for (int d : dist) ecc = std::max(ecc, d);
  EXPECT_EQ(t.depth(), ecc);
}

TEST(BfsTreeTest, AggregatePairSums) {
  auto g = make_binary_tree(15);
  Network net(g);
  BfsTree t = BfsTree::build(net, 0);
  std::vector<long double> v0(15), v1(15);
  std::uint64_t expect0 = 0, expect1 = 0;
  for (int i = 0; i < 15; ++i) {
    v0[i] = 0.3L * i;  // within the contract: at most Delta + 2 = 5
    v1[i] = 0.25L * i;
    expect0 += congest::to_fixed(v0[i]);
    expect1 += congest::to_fixed(v1[i]);
  }
  const auto [s0, s1] = t.aggregate_pair(net, v0, v1);
  EXPECT_EQ(s0, expect0);
  EXPECT_EQ(s1, expect1);
}

TEST(BfsTreeTest, AggregatePairChargesBothSumsPipelined) {
  auto g = make_path(10);
  Network net(g, 20);
  BfsTree t = BfsTree::build(net, 0);
  std::vector<long double> vals(10, 1);
  const auto before = net.metrics().rounds;
  t.aggregate_pair(net, vals, vals);
  // n * (Delta+2) = 40 needs 6 bits: W = 38, two sums = 76 bits over a
  // 20-bit bandwidth = 4 chunks, so depth + 3 rounds.
  EXPECT_EQ(congest::PairWave(g).width, 38);
  EXPECT_EQ(net.metrics().rounds - before, t.depth() + 3);
}

TEST(BfsTreeTest, FromParentsLevelsAndMinDepth) {
  // Path 0-1-2-3-4 with the tree {2 <- 1 <- 0, 2 <- 3}, rooted at 2.
  const std::vector<NodeId> nodes = {2, 1, 3, 0};
  const std::vector<NodeId> parents = {-1, 2, 2, 1};
  const BfsTree t = BfsTree::from_parents(5, nodes, parents);
  EXPECT_EQ(t.root(), 2);
  EXPECT_EQ(t.depth(), 2);
  EXPECT_EQ(t.levels(), (std::vector<int>{2, 1, 0, 1, -1}));
  EXPECT_EQ(std::vector<NodeId>(t.level_nodes(1).begin(), t.level_nodes(1).end()),
            (std::vector<NodeId>{1, 3}));
  EXPECT_EQ(BfsTree::from_parents(5, nodes, parents, 4).depth(), 4);
  // A child listed before its parent is rejected.
  EXPECT_THROW(BfsTree::from_parents(5, {2, 0, 1}, {-1, 1, 2}), std::invalid_argument);
}

TEST(BfsTreeTest, BroadcastReachesAll) {
  auto g = make_grid(4, 4);
  Network net(g);
  BfsTree t = BfsTree::build(net, 0);
  const auto before = net.metrics().rounds;
  t.broadcast(net, 1, 1);
  EXPECT_EQ(net.metrics().rounds - before, t.depth());
}

TEST(FixedPoint, RoundTrip) {
  for (long double x : {0.0L, 0.5L, 1.0L / 3.0L, 123.25L, 4095.999L}) {
    EXPECT_NEAR(static_cast<double>(congest::from_fixed(congest::to_fixed(x))),
                static_cast<double>(x), 1e-9);
  }
}

// The integer-only codec against libm: round half away from zero of
// x * 2^32, on random values across many binades and on exact ties.
TEST(FixedPoint, ToFixedMatchesLlroundl) {
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  auto check = [](long double x) {
    ASSERT_EQ(congest::to_fixed(x), static_cast<std::uint64_t>(llroundl(x * 4294967296.0L)))
        << static_cast<double>(x);
  };
  for (int i = 0; i < 200000; ++i) {
    // A random 63-bit mantissa scaled into [2^-40, 2^31).
    const int exp = static_cast<int>(next() % 71) - 103;
    check(std::ldexp(static_cast<long double>(next() >> 1), exp));
    // Exact ties k/2^32 + 2^-33.
    check((static_cast<long double>(next() >> 22) + 0.5L) / 4294967296.0L);
  }
  for (long double x : {0.0L, -0.0L, 0x1p-33L, 0x1p-34L, 0x1.8p-33L, 0.5L, 1.0L, 0x1p30L,
                        0x1.fffffffep30L}) {
    check(x);
  }
  // Above llroundl's range the codec stays exact: x * 2^32 in [2^63, 2^64).
  EXPECT_EQ(congest::to_fixed(0x1p31L), std::uint64_t{1} << 63);
  EXPECT_EQ(congest::to_fixed(0x1.fffffffep31L), 0xffffffff00000000ull);
}

TEST(PairWaveTest, WidthLimitAndCharge) {
  const congest::PairWave w(1024, 14);  // n * (Delta+2) = 2^14
  EXPECT_EQ(w.width, 32 + 15);
  EXPECT_EQ(w.limit, std::uint64_t{16} << 32);
  EXPECT_EQ(w.message_bits(36), 36);
  EXPECT_EQ(w.message_bits(64), 47);
  EXPECT_EQ(w.pipelined_rounds(36), 2);   // ceil(94/36) - 1
  EXPECT_EQ(w.pipelined_rounds(128), 0);
  // The largest graphs whose sums still fit 64 bits, and the first that
  // do not.
  EXPECT_EQ(congest::PairWave(65535, 65535).width, 64);
  EXPECT_THROW(congest::PairWave(65536, 65534), std::invalid_argument);
  EXPECT_THROW(congest::PairWave(1 << 30, 2), std::invalid_argument);
}

TEST(PairWaveTest, EncodeRejectsValuesOutsideTheContract) {
  const congest::PairWave w(100, 3);  // limit 5 * 2^32
  EXPECT_EQ(w.encode(0.0L), 0u);
  EXPECT_EQ(w.encode(5.0L), std::uint64_t{5} << 32);
  EXPECT_EQ(w.encode(1.25L), congest::to_fixed(1.25L));
  EXPECT_THROW(w.encode(-1e-30L), std::logic_error);
  EXPECT_THROW(w.encode(-0.5L), std::logic_error);
  EXPECT_THROW(w.encode(5.0L + 0x1p-31L), std::logic_error);
  EXPECT_THROW(w.encode(1e30L), std::logic_error);
  EXPECT_THROW(w.encode(std::numeric_limits<long double>::quiet_NaN()), std::logic_error);
  EXPECT_THROW(w.encode(std::numeric_limits<long double>::infinity()), std::logic_error);
}

}  // namespace
}  // namespace dcolor
