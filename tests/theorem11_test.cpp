// End-to-end tests for Theorem 1.1 (full deterministic list coloring).
#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>

#include "src/coloring/baselines.h"
#include "src/coloring/theorem11.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "tests/test_support.h"

namespace dcolor {
namespace {

std::vector<test::NamedGraph> small_graphs() {
  std::vector<test::NamedGraph> cases;
  cases.push_back({"single", Graph::from_edges(1, {})});
  cases.push_back({"edge", make_path(2)});
  cases.push_back({"path16", make_path(16)});
  cases.push_back({"cycle33", make_cycle(33)});
  cases.push_back({"star17", make_star(17)});
  cases.push_back({"grid6x7", make_grid(6, 7)});
  cases.push_back({"complete9", make_complete(9)});
  cases.push_back({"bipartite5x7", make_complete_bipartite(5, 7)});
  cases.push_back({"tree63", make_binary_tree(63)});
  cases.push_back({"cliquepath", make_path_of_cliques(5, 5)});
  cases.push_back({"caterpillar", make_caterpillar(8, 3)});
  cases.push_back({"gnp", make_gnp(64, 0.1, 21)});
  cases.push_back({"prefattach", make_preferential_attachment(80, 2, 13)});
  return cases;
}

TEST(Theorem11, DeltaPlusOneOnAllFamilies) {
  for (auto& [name, g] : small_graphs()) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    auto res = theorem11_solve_per_component(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors)) << name;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(res.colors[v], g.max_degree()) << name;  // Delta+1 colors
    }
  }
}

TEST(Theorem11, RandomListsOnAllFamilies) {
  for (auto& [name, g] : small_graphs()) {
    if (g.num_nodes() < 2) continue;
    auto inst = ListInstance::random_lists(g, 3 * (g.max_degree() + 2), 7);
    const ListInstance pristine = inst;
    auto res = theorem11_solve_per_component(g, std::move(inst));
    EXPECT_TRUE(pristine.valid_solution(res.colors)) << name;
  }
}

TEST(Theorem11, SharedPoolAdversarialLists) {
  auto g = make_gnp(48, 0.2, 3);
  auto inst = ListInstance::shared_pool_lists(g, g.max_degree() + 1, 5);
  const ListInstance pristine = inst;
  auto res = theorem11_solve_per_component(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

TEST(Theorem11, AvoidMisVariant) {
  for (auto g : {make_grid(5, 6), make_gnp(40, 0.15, 2), make_complete(8)}) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    PartialColoringOptions opts;
    opts.avoid_mis = true;
    auto res = theorem11_solve_per_component(g, std::move(inst), opts);
    EXPECT_TRUE(pristine.valid_solution(res.colors));
  }
}

TEST(Theorem11, GFFamilySmall) {
  for (auto g : {make_cycle(16), make_gnp(20, 0.2, 6)}) {
    auto inst = ListInstance::delta_plus_one(g);
    const ListInstance pristine = inst;
    PartialColoringOptions opts;
    opts.family = CoinFamilyKind::kGF;
    auto res = theorem11_solve_per_component(g, std::move(inst), opts);
    EXPECT_TRUE(pristine.valid_solution(res.colors));
  }
}

TEST(Theorem11, IterationCountIsLogarithmic) {
  // Lemma 2.1 colors >= 1/8 per iteration => iterations <= log_{8/7} n + O(1).
  auto g = make_gnp(256, 0.05, 31);
  auto res = theorem11_solve_per_component(g, ListInstance::delta_plus_one(g));
  const double bound = std::log(256.0) / std::log(8.0 / 7.0) + 2;
  EXPECT_LE(res.iterations, static_cast<int>(bound));
}

TEST(Theorem11, DeterministicRerun) {
  auto g = make_gnp(60, 0.1, 12);
  auto r1 = theorem11_solve(g, ListInstance::delta_plus_one(g));
  auto r2 = theorem11_solve(g, ListInstance::delta_plus_one(g));
  EXPECT_EQ(r1.colors, r2.colors);
  EXPECT_EQ(r1.metrics.rounds, r2.metrics.rounds);
}

TEST(Theorem11, DisconnectedGraphHandled) {
  // Two components: a clique and a cycle.
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (NodeId i = 0; i < 5; ++i)
    for (NodeId j = i + 1; j < 5; ++j) edges.emplace_back(i, j);
  for (NodeId i = 0; i < 6; ++i) edges.emplace_back(5 + i, 5 + (i + 1) % 6);
  auto g = Graph::from_edges(11, edges);
  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  auto res = theorem11_solve_per_component(g, std::move(inst));
  EXPECT_TRUE(pristine.valid_solution(res.colors));
}

// Invalid list instances are rejected in every build type, before any
// solver can divide by an empty candidate range: K4 with 2-color lists
// used to pass the (assert-only) checks under NDEBUG and crash
// theorem11_solve with SIGFPE.
TEST(ListInstanceValidation, RejectsListsShorterThanDegreePlusOne) {
  const Graph g = make_complete(4);
  std::vector<std::vector<Color>> lists(4, std::vector<Color>{0, 1});
  EXPECT_THROW(ListInstance(g, 4, lists), std::invalid_argument);
  EXPECT_THROW(ListInstance::random_lists(g, 3, 1), std::invalid_argument);
}

TEST(ListInstanceValidation, RejectsMalformedLists) {
  const Graph g = make_path(3);
  using Lists = std::vector<std::vector<Color>>;
  EXPECT_THROW(ListInstance(g, 8, Lists{{0, 1}, {0, 1, 2}}), std::invalid_argument);
  EXPECT_THROW(ListInstance(g, 8, Lists{{0, 1}, {0, 1, 1}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(ListInstance(g, 8, Lists{{0, 1}, {0, 1, 8}, {0, 1}}), std::invalid_argument);
  EXPECT_THROW(ListInstance(g, 8, Lists{{-1, 1}, {0, 1, 2}, {0, 1}}), std::invalid_argument);
  const ListInstance ok(g, 8, Lists{{7, 1}, {2, 0, 1}, {0, 1}});
  EXPECT_EQ(ok.list(0), (std::vector<Color>{1, 7}));
}

TEST(Baselines, GreedyValid) {
  for (auto& [name, g] : small_graphs()) {
    auto inst = ListInstance::delta_plus_one(g);
    EXPECT_TRUE(inst.valid_solution(greedy_list_coloring(inst))) << name;
  }
}

// A list pruned below the (degree+1) bound can run out of free colors; the
// greedy completion must say so in every build, not leave kUncolored.
TEST(Baselines, GreedyThrowsOnExhaustedList) {
  const Graph g = make_complete(3);
  ListInstance inst(g, 3, {{0, 1, 2}, {0, 1, 2}, {0, 1, 2}});
  const ListInstance pristine = inst;
  ASSERT_TRUE(inst.remove_color(2, 2));
  EXPECT_THROW(greedy_list_coloring(inst), std::logic_error);
  // Completion keeps the colors already given and fills the rest in id order.
  std::vector<Color> colors = {kUncolored, 2, kUncolored};
  greedy_complete(g, pristine, colors);
  EXPECT_EQ(colors, (std::vector<Color>{0, 2, 1}));
}

TEST(Baselines, RandomizedValidAndFast) {
  auto g = make_gnp(80, 0.1, 44);
  auto inst = ListInstance::delta_plus_one(g);
  const ListInstance pristine = inst;
  auto res = randomized_list_coloring(g, std::move(inst), 123);
  EXPECT_TRUE(pristine.valid_solution(res.colors));
  EXPECT_LE(res.iterations, 40);  // O(log n) w.h.p.
}

TEST(Baselines, RandomizedDeterministicGivenSeed) {
  auto g = make_gnp(40, 0.15, 2);
  auto a = randomized_list_coloring(g, ListInstance::delta_plus_one(g), 5);
  auto b = randomized_list_coloring(g, ListInstance::delta_plus_one(g), 5);
  EXPECT_EQ(a.colors, b.colors);
}

TEST(Baselines, ColorReductionReachesDeltaPlusOne) {
  for (auto g : {make_cycle(40), make_grid(5, 8)}) {
    auto res = color_reduction_baseline(g);
    EXPECT_TRUE(is_proper_coloring(g, std::vector<int>(res.colors.begin(), res.colors.end())));
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_LE(res.colors[v], g.max_degree());
    }
  }
}

}  // namespace
}  // namespace dcolor
