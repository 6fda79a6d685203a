// The fast incremental engine must agree bit-for-bit (up to long-double
// noise) with the generic CoinFamily-backed engine on every query along
// arbitrary seed-fixing paths.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <vector>

#include "src/coloring/pair_prob.h"
#include "src/hash/bitwise_family.h"
#include "src/util/rng.h"

namespace dcolor {
namespace {

TEST(FastBitwiseEngine, MatchesGenericOnRandomInstances) {
  Rng rng(2024);
  for (int trial = 0; trial < 20; ++trial) {
    const std::uint64_t K = 4 + rng.next_below(60);
    const int b = 2 + static_cast<int>(rng.next_below(6));
    auto family = make_bitwise_coin_family(K, b);
    auto generic = make_generic_pair_prob(*family);
    auto fast = make_fast_bitwise_pair_prob(K, b);

    const int n = 6;
    std::vector<CoinSpec> specs(n);
    const std::uint64_t full = std::uint64_t{1} << b;
    for (int v = 0; v < n; ++v) {
      // Distinct input colors (adjacent nodes are properly colored).
      specs[v].input_color = static_cast<std::uint64_t>(v) % K;
      specs[v].threshold = rng.next_below(full + 1);
    }
    // Include forced coins sometimes.
    if (trial % 3 == 0) specs[0].threshold = 0;
    if (trial % 4 == 0) specs[1].threshold = full;

    std::vector<ConflictEdge> edges;
    for (int u = 0; u < n; ++u) {
      for (int v = u + 1; v < n; ++v) {
        if (specs[u].input_color != specs[v].input_color) {
          edges.push_back(ConflictEdge{u, v});
        }
      }
    }
    generic->begin_phase(specs, edges);
    fast->begin_phase(specs, edges);
    ASSERT_EQ(generic->num_seed_bits(), fast->num_seed_bits());

    const int d = generic->num_seed_bits();
    for (int j = 0; j < d; ++j) {
      for (std::size_t e = 0; e < edges.size(); ++e) {
        for (int cand = 0; cand < 2; ++cand) {
          const JointDist a = generic->edge_joint(static_cast<int>(e), cand);
          const JointDist f = fast->edge_joint(static_cast<int>(e), cand);
          for (int x = 0; x < 2; ++x) {
            for (int y = 0; y < 2; ++y) {
              ASSERT_NEAR(static_cast<double>(a[x][y]), static_cast<double>(f[x][y]), 1e-12)
                  << "trial=" << trial << " j=" << j << " e=" << e << " cand=" << cand;
            }
          }
        }
      }
      const int bit = static_cast<int>(rng.next_below(2));
      generic->fix_next_bit(bit);
      fast->fix_next_bit(bit);
    }
    for (int v = 0; v < n; ++v) {
      EXPECT_EQ(generic->coin(v), fast->coin(v)) << "trial=" << trial << " v=" << v;
    }
  }
}

// Joint distributions must be genuine probability distributions and
// consistent under conditioning: P(prefix+0)*0.5 + P(prefix+1)*0.5 == P(prefix).
TEST(FastBitwiseEngine, LawOfTotalProbabilityAlongPath) {
  const std::uint64_t K = 16;
  const int b = 4;
  auto fast = make_fast_bitwise_pair_prob(K, b);
  std::vector<CoinSpec> specs = {{3, 7}, {12, 11}};
  std::vector<ConflictEdge> edges = {{0, 1}};
  fast->begin_phase(specs, edges);

  Rng rng(7);
  for (int j = 0; j < fast->num_seed_bits(); ++j) {
    const JointDist j0 = fast->edge_joint(0, 0);
    const JointDist j1 = fast->edge_joint(0, 1);
    long double sum0 = 0, sum1 = 0;
    for (int x = 0; x < 2; ++x) {
      for (int y = 0; y < 2; ++y) {
        EXPECT_GE(static_cast<double>(j0[x][y]), -1e-15);
        EXPECT_GE(static_cast<double>(j1[x][y]), -1e-15);
        sum0 += j0[x][y];
        sum1 += j1[x][y];
      }
    }
    EXPECT_NEAR(static_cast<double>(sum0), 1.0, 1e-12);
    EXPECT_NEAR(static_cast<double>(sum1), 1.0, 1e-12);
    fast->fix_next_bit(static_cast<int>(rng.next_below(2)));
  }
}

// FNV-1a over the 80 significant bits (64-bit mantissa, then the 16-bit
// sign/exponent word) of an x87 extended long double.
void fnv_long_double(std::uint64_t& h, long double x) {
  unsigned char bytes[sizeof(long double)] = {};
  std::memcpy(bytes, &x, sizeof(long double));
  for (int i = 0; i < 10; ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
}

// Walks one seeded fix path, hashing every edge_joint entry for both
// candidates before each fix and every final coin.
void digest_path(std::uint64_t K, int b, const std::vector<CoinSpec>& specs,
                 const std::vector<ConflictEdge>& edges, std::uint64_t seed, std::uint64_t& h) {
  auto fast = make_fast_bitwise_pair_prob(K, b);
  fast->begin_phase(specs, edges);
  Rng rng(seed);
  for (int j = 0; j < fast->num_seed_bits(); ++j) {
    for (std::size_t e = 0; e < edges.size(); ++e) {
      for (int cand = 0; cand < 2; ++cand) {
        const JointDist d = fast->edge_joint(static_cast<int>(e), cand);
        for (int x = 0; x < 2; ++x) {
          for (int y = 0; y < 2; ++y) fnv_long_double(h, d[x][y]);
        }
      }
    }
    fast->fix_next_bit(static_cast<int>(rng.next_below(2)));
  }
  for (std::size_t v = 0; v < specs.size(); ++v) {
    h ^= static_cast<std::uint64_t>(fast->coin(static_cast<NodeId>(v)));
    h *= 0x100000001b3ull;
  }
}

std::vector<ConflictEdge> all_pairs_with_distinct_colors(const std::vector<CoinSpec>& specs) {
  std::vector<ConflictEdge> edges;
  for (std::size_t u = 0; u < specs.size(); ++u) {
    for (std::size_t v = u + 1; v < specs.size(); ++v) {
      if (specs[u].input_color != specs[v].input_color) {
        edges.push_back(ConflictEdge{static_cast<NodeId>(u), static_cast<NodeId>(v)});
      }
    }
  }
  return edges;
}

// Exact-bits pin of the fast engine. MatchesGenericOnRandomInstances
// compares at 1e-12 and cannot see a rounding change; this digest sees
// any change to any bit of any returned long double. It was recorded
// before edge_joint read per-chunk caches and must not change without a
// deliberate, documented re-pin.
TEST(FastBitwiseEngine, ExactBitsDigest) {
  if (std::numeric_limits<long double>::digits != 64) {
    GTEST_SKIP() << "digest is recorded for the x87 80-bit long double";
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  Rng rng(4242);
  // Random instances; every fourth forces thresholds 0 and 2^b.
  for (int trial = 0; trial < 24; ++trial) {
    const std::uint64_t K = 2 + rng.next_below(62);
    const int b = 1 + static_cast<int>(rng.next_below(8));
    const std::uint64_t full = std::uint64_t{1} << b;
    std::vector<CoinSpec> specs(7);
    for (std::size_t v = 0; v < specs.size(); ++v) {
      specs[v].input_color = rng.next_below(K);
      specs[v].threshold = rng.next_below(full + 1);
    }
    if (trial % 4 == 0) {
      specs[0].threshold = 0;
      specs[1].threshold = full;
    }
    digest_path(K, b, specs, all_pairs_with_distinct_colors(specs), 100 + trial, h);
  }
  // K = 2 (w = 1): one a_t bit per chunk.
  for (int b : {1, 3, 6}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    const std::vector<CoinSpec> specs = {{0, full / 2}, {1, full - 1}, {0, 1}, {1, full}};
    digest_path(2, b, specs, {{0, 1}, {1, 2}, {2, 3}}, 200 + b, h);
  }
  // b = 1: a single output digit, thresholds only 0, 1 or 2.
  {
    const std::vector<CoinSpec> specs = {{5, 1}, {9, 1}, {12, 0}, {3, 2}, {6, 1}};
    digest_path(16, 1, specs, all_pairs_with_distinct_colors(specs), 301, h);
  }
  // Adjacent colors differing only in the top bit (3 vs 11 for w = 4),
  // or only in bit 0 (6 vs 7): the remaining a_t variable sets coincide
  // until that bit is fixed, so the digits stay correlated.
  for (int b : {2, 5, 7}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    const std::vector<CoinSpec> specs = {
        {3, full / 3}, {11, full - 2}, {6, full / 2 + 1}, {7, 1}};
    digest_path(16, b, specs, {{0, 1}, {2, 3}, {0, 2}}, 400 + b, h);
  }
  // Wide thresholds. For b <= 32 every value is a dyadic rational short
  // enough for exact long double arithmetic, and even a double would
  // hold most of them; here tails carry more bits than a double and tail
  // products more than the 64-bit mantissa, so lost precision shows.
  for (int b : {40, 61}) {
    const std::uint64_t full = std::uint64_t{1} << b;
    std::vector<CoinSpec> specs(6);
    for (std::size_t v = 0; v < specs.size(); ++v) {
      specs[v].input_color = rng.next_below(16);
      specs[v].threshold = 1 + rng.next_below(full - 1);
    }
    digest_path(16, b, specs, all_pairs_with_distinct_colors(specs), 500 + b, h);
  }
  EXPECT_EQ(h, 0xee9e74939220f13full);
}

}  // namespace
}  // namespace dcolor
