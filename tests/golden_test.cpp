// Golden pins: exact outputs and communication costs of the seed-fixing
// pipelines on small seeded graphs. The parity suites compare the Network
// reference against the engine, so a change that alters seed-fixing
// decisions identically on both executors passes them; these pins catch
// it. The clique and MPC values were recorded before the
// conditional-expectation evaluators read per-chunk caches. The MIS,
// Theorem 1.1 and Corollary 1.2 values were re-recorded when one pair
// wave replaced the aggregation channels: both sums quantized in Q32.32
// and charged depth + ceil(2W/B) - 1 rounds (Corollary 1.2 changed only
// in rounds). None may change without a deliberate, documented re-pin.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "src/clique/clique_coloring.h"
#include "src/coloring/derand_mis.h"
#include "src/coloring/theorem11.h"
#include "src/decomposition/corollary12.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/mpc/mpc_coloring.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/mis_program.h"
#include "src/runtime/theorem11_program.h"

namespace dcolor {
namespace {

// FNV-1a over a sequence of 64-bit words.
std::uint64_t fnv1a(const std::vector<std::int64_t>& words) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (std::int64_t w : words) {
    for (int i = 0; i < 8; ++i) {
      h ^= (static_cast<std::uint64_t>(w) >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
  return h;
}

struct Pin {
  std::uint64_t checksum;
  std::int64_t rounds;
  std::int64_t messages;
  std::int64_t total_bits;
  int iterations;
};

// Graph 0 is disconnected (exercises the per-component splitter), graph 1
// is connected.
Graph golden_graph(int which) {
  return which == 0 ? make_gnp(60, 0.05, 11) : make_near_regular(48, 5, 23);
}

ListInstance golden_lists(const Graph& g) {
  return ListInstance::random_lists(g, 4 * (g.max_degree() + 1), 5);
}

// Adversarial lists: every list drawn from one pool of Delta+1 colors, so
// neighbors share most of their candidates. Pinned for the clique and MPC
// before their commit cycles were merged into one.
ListInstance shared_pool(const Graph& g) {
  return ListInstance::shared_pool_lists(g, g.max_degree() + 1, 5);
}

void expect_pin(const Pin& want, std::uint64_t checksum, const congest::Metrics& m,
                int iterations) {
  EXPECT_EQ(checksum, want.checksum);
  EXPECT_EQ(m.rounds, want.rounds);
  EXPECT_EQ(m.messages, want.messages);
  EXPECT_EQ(m.total_bits, want.total_bits);
  EXPECT_EQ(iterations, want.iterations);
}

std::uint64_t mis_checksum(const std::vector<bool>& in_mis) {
  return fnv1a(std::vector<std::int64_t>(in_mis.begin(), in_mis.end()));
}

constexpr Pin kMisPins[2] = {
    {0x0aa88ccfe57cb2c4ull, 3294, 19308, 277428, 3},
    {0xbb88381417425ea4ull, 1776, 14412, 205011, 3},
};

TEST(Golden, GraphShapes) {
  EXPECT_FALSE(is_connected(golden_graph(0)));
  EXPECT_TRUE(is_connected(golden_graph(1)));
}

TEST(Golden, DerandomizedMisNetwork) {
  for (int which = 0; which < 2; ++which) {
    SCOPED_TRACE(which);
    const Graph g = golden_graph(which);
    const DerandMisResult res = derandomized_mis(g);
    expect_pin(kMisPins[which], mis_checksum(res.in_mis), res.metrics, res.iterations);
  }
}

TEST(Golden, DerandomizedMisEngine) {
  for (int which = 0; which < 2; ++which) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(testing::Message() << which << " t=" << threads);
      const Graph g = golden_graph(which);
      const DerandMisResult res = runtime::derandomized_mis(g, threads);
      expect_pin(kMisPins[which], mis_checksum(res.in_mis), res.metrics, res.iterations);
    }
  }
}

struct ColoringCase {
  const char* name;
  PartialColoringOptions opts;
  Pin pins[2];
};

PartialColoringOptions gf_options() {
  PartialColoringOptions o;
  o.family = CoinFamilyKind::kGF;
  return o;
}

PartialColoringOptions avoid_mis_options() {
  PartialColoringOptions o;
  o.avoid_mis = true;
  return o;
}

TEST(Golden, Theorem11Network) {
  const ColoringCase cases[] = {
      {"bitwise",
       PartialColoringOptions{},
       {{0xb04eb65ad41d8ae6ull, 5702, 33664, 480066, 1},
        {0x9a53f118d9d3343dull, 3389, 27812, 389572, 1}}},
      {"gf",
       gf_options(),
       {{0xd6a1dc0b838b0556ull, 1652, 10260, 140744, 1},
        {0x57fc6ad8486914e8ull, 989, 9068, 117252, 1}}},
      {"avoid_mis",
       avoid_mis_options(),
       {{0xb04eb65ad41d8ae6ull, 7582, 44584, 639096, 1},
        {0xb0effd7ad4d81f9cull, 4639, 37698, 533967, 1}}},
  };
  for (const ColoringCase& c : cases) {
    for (int which = 0; which < 2; ++which) {
      SCOPED_TRACE(testing::Message() << c.name << " graph " << which);
      const Graph g = golden_graph(which);
      const ListInstance inst = golden_lists(g);
      const Theorem11Result res = theorem11_solve_per_component(g, inst, c.opts);
      ASSERT_TRUE(inst.valid_solution(res.colors));
      expect_pin(c.pins[which], fnv1a(res.colors), res.metrics, res.iterations);
    }
  }
}

// Theorem 1.1 on the adversarial shared-pool lists, on the Network
// reference and on the engine at 1 and 2 threads. Neighbors share most
// of their candidates, so many coins stay tight against their threshold
// for most of a seed chunk: the path of the bitwise conditional
// probabilities that random lists rarely reach.
constexpr Pin kTheorem11SharedPoolPins[2] = {
    {0xe1c61bb406246b42ull, 4961, 29264, 416052, 2},
    {0xf0615cb77b77a242ull, 3587, 29126, 408220, 2},
};

TEST(Golden, Theorem11SharedPoolNetwork) {
  for (int which = 0; which < 2; ++which) {
    SCOPED_TRACE(which);
    const Graph g = golden_graph(which);
    const ListInstance inst = shared_pool(g);
    const Theorem11Result res = theorem11_solve_per_component(g, inst);
    ASSERT_TRUE(inst.valid_solution(res.colors));
    expect_pin(kTheorem11SharedPoolPins[which], fnv1a(res.colors), res.metrics,
               res.iterations);
  }
}

TEST(Golden, Theorem11SharedPoolEngine) {
  for (int which = 0; which < 2; ++which) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(testing::Message() << which << " t=" << threads);
      const Graph g = golden_graph(which);
      const ListInstance inst = shared_pool(g);
      const Theorem11Result res = runtime::theorem11_coloring(g, inst, threads);
      ASSERT_TRUE(inst.valid_solution(res.colors));
      expect_pin(kTheorem11SharedPoolPins[which], fnv1a(res.colors), res.metrics,
                 res.iterations);
    }
  }
}

// Theorem 1.3: segment-granular seed fixing with direct clique rounds.
TEST(Golden, CliqueColoring) {
  // [pool][which]: golden_lists, then shared_pool lists.
  constexpr Pin kPins[2][2] = {
      {{0x78fbfc167e94c9dbull, 228, 753, 9261, 3},
       {0x8160448148ac439full, 210, 1205, 14091, 3}},
      {{0xb5519879c4344005ull, 142, 702, 7818, 2},
       {0x50eda352a3a54424ull, 130, 1124, 11725, 2}},
  };
  for (int pool = 0; pool < 2; ++pool) {
    for (int which = 0; which < 2; ++which) {
      SCOPED_TRACE(testing::Message() << "pool=" << pool << " which=" << which);
      const Graph g = golden_graph(which);
      const ListInstance inst = pool ? shared_pool(g) : golden_lists(g);
      const clique::CliqueColoringResult res = clique::clique_list_coloring(g, inst);
      ASSERT_TRUE(inst.valid_solution(res.colors));
      expect_pin(kPins[pool][which], fnv1a(res.colors), res.metrics, res.derand_passes);
    }
  }
}

// MPC pins: `words` is the MPC analogue of messages; perfbench reports
// 64 x words as its bit count, so words pin the bits too.
struct MpcPin {
  std::uint64_t checksum;
  std::int64_t rounds;
  std::int64_t words;
  std::int64_t max_round_load;
  int derand_passes;
  int lemma42_passes;
};

void expect_mpc_pin(const MpcPin& want, const mpc::MpcColoringResult& res) {
  EXPECT_EQ(fnv1a(res.colors), want.checksum);
  EXPECT_EQ(res.metrics.rounds, want.rounds);
  EXPECT_EQ(res.metrics.words_communicated, want.words);
  EXPECT_EQ(res.metrics.max_round_load, want.max_round_load);
  EXPECT_EQ(res.derand_passes, want.derand_passes);
  EXPECT_EQ(res.lemma42_passes, want.lemma42_passes);
}

// Theorem 1.4 (S = Theta(n)): lambda-bit segments, diagonal objective.
TEST(Golden, MpcLinear) {
  // [pool][which]: golden_lists, then shared_pool lists.
  constexpr MpcPin kPins[2][2] = {
      {{0x9473819b6a00024aull, 129, 2721, 172, 5, 0},
       {0xe2bf52987d702e15ull, 119, 4218, 148, 5, 0}},
      {{0x1c2bb27d7627d405ull, 73, 2089, 172, 3, 0},
       {0x2a39ed05ae29c747ull, 107, 3941, 148, 6, 0}},
  };
  for (int pool = 0; pool < 2; ++pool) {
    for (int which = 0; which < 2; ++which) {
      SCOPED_TRACE(testing::Message() << "pool=" << pool << " which=" << which);
      const Graph g = golden_graph(which);
      const ListInstance inst = pool ? shared_pool(g) : golden_lists(g);
      const mpc::MpcColoringResult res = mpc::mpc_list_coloring_linear(g, inst);
      ASSERT_TRUE(inst.valid_solution(res.colors));
      expect_mpc_pin(kPins[pool][which], res);
    }
  }
}

// Theorem 1.5 (S = Theta(n^alpha)). Low degree and a generous alpha hand
// the run to the Lemma 4.2 finisher, whose segment fixing evaluates
// color-value matchings (the `edge_pairs` objective).
TEST(Golden, MpcSublinearWithLemma42) {
  // [pool]: golden_lists, then shared_pool lists.
  constexpr MpcPin kPins[2] = {
      {0xefaaf7f5dbcbef00ull, 693, 46246, 28, 5, 1},
      {0xf3658c7f8dbcbd42ull, 471, 32196, 28, 3, 1},
  };
  const Graph g = make_near_regular(64, 4, 7);
  for (int pool = 0; pool < 2; ++pool) {
    SCOPED_TRACE(testing::Message() << "pool=" << pool);
    const ListInstance inst = pool ? shared_pool(g) : golden_lists(g);
    const mpc::MpcColoringResult res = mpc::mpc_list_coloring_sublinear(g, inst, 0.9);
    ASSERT_TRUE(inst.valid_solution(res.colors));
    ASSERT_GT(res.lemma42_passes, 0);
    expect_mpc_pin(kPins[pool], res);
  }
}

// Corollary 1.2: Theorem 1.1 per cluster of a network decomposition.
// `iterations` pins the charged coloring rounds (kappa included).
constexpr Pin kCorollary12Pins[2] = {
    {0xf764e2dada368ba0ull, 6686, 30232, 430796, 6558},
    {0x9a53f118d9d3343dull, 2884, 27812, 389336, 2824},
};

TEST(Golden, Corollary12Network) {
  for (int which = 0; which < 2; ++which) {
    SCOPED_TRACE(which);
    const Graph g = golden_graph(which);
    const ListInstance inst = golden_lists(g);
    const Corollary12Result res = corollary12_solve(g, inst);
    ASSERT_TRUE(inst.valid_solution(res.colors));
    expect_pin(kCorollary12Pins[which], fnv1a(res.colors), res.metrics,
               static_cast<int>(res.coloring_rounds));
  }
}

TEST(Golden, Corollary12Engine) {
  for (int which = 0; which < 2; ++which) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(testing::Message() << which << " t=" << threads);
      const Graph g = golden_graph(which);
      const ListInstance inst = golden_lists(g);
      const Corollary12Result res = runtime::corollary12_coloring(g, inst, threads);
      ASSERT_TRUE(inst.valid_solution(res.colors));
      expect_pin(kCorollary12Pins[which], fnv1a(res.colors), res.metrics,
                 static_cast<int>(res.coloring_rounds));
    }
  }
}

// Corollary 1.2 on the shared-pool lists (see Theorem11SharedPool*).
constexpr Pin kCorollary12SharedPoolPins[2] = {
    {0x98e50b783b665824ull, 5521, 26132, 370825, 5393},
    {0xf0615cb77b77a242ull, 3054, 29126, 407512, 2994},
};

TEST(Golden, Corollary12SharedPoolNetwork) {
  for (int which = 0; which < 2; ++which) {
    SCOPED_TRACE(which);
    const Graph g = golden_graph(which);
    const ListInstance inst = shared_pool(g);
    const Corollary12Result res = corollary12_solve(g, inst);
    ASSERT_TRUE(inst.valid_solution(res.colors));
    expect_pin(kCorollary12SharedPoolPins[which], fnv1a(res.colors), res.metrics,
               static_cast<int>(res.coloring_rounds));
  }
}

TEST(Golden, Corollary12SharedPoolEngine) {
  for (int which = 0; which < 2; ++which) {
    for (int threads : {1, 2}) {
      SCOPED_TRACE(testing::Message() << which << " t=" << threads);
      const Graph g = golden_graph(which);
      const ListInstance inst = shared_pool(g);
      const Corollary12Result res = runtime::corollary12_coloring(g, inst, threads);
      ASSERT_TRUE(inst.valid_solution(res.colors));
      expect_pin(kCorollary12SharedPoolPins[which], fnv1a(res.colors), res.metrics,
                 static_cast<int>(res.coloring_rounds));
    }
  }
}

}  // namespace
}  // namespace dcolor
