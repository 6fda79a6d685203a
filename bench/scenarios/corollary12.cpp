// Corollary 1.2 workloads (successor of bench_corollary12): list
// coloring through a network decomposition — polylog rounds independent
// of diameter — on the clustered family the decomposition experiments
// care about and on a grid, through both the sequential Network backend
// and the ParallelEngine backend (per-cluster transports bound to the
// cluster trees).
// The shared corollary12_run driver accounts full traffic, so these
// records carry message/bit totals, and the Network/engine pairs share a
// parity key: the CLI enforces identical checksums AND Metrics.
#include <memory>

#include "src/benchkit/scenario.h"
#include "src/benchkit/verify.h"
#include "src/decomposition/corollary12.h"
#include "src/graph/generators.h"
#include "src/runtime/corollary12_program.h"

namespace dcolor {
namespace {

using benchkit::Outcome;
using benchkit::Prepared;
using benchkit::RunConfig;
using benchkit::Scenario;

// make_clustered's backbone is random; the pinned seed keeps the sampled
// topology in the regime the decomposition targets.
std::uint64_t family_seed(const std::string& family) { return family == "clustered" ? 5 : 0; }

Graph make_family(const std::string& family, const RunConfig& c) {
  if (family == "clustered") {
    return c.quick ? make_clustered(4, 12, 0.3, 8, family_seed(family))
                   : make_clustered(8, 24, 0.3, 16, family_seed(family));
  }
  return c.quick ? make_grid(8, 12) : make_grid(16, 32);
}

Outcome outcome_of(const Graph& g, const Corollary12Result& res, std::uint64_t seed) {
  Outcome o;
  o.n = g.num_nodes();
  o.m = g.num_edges();
  o.seed = seed;
  o.metrics = res.metrics;
  o.checksum = benchkit::checksum_values(res.colors);
  o.verified = ListInstance::delta_plus_one(g).valid_solution(res.colors);
  return o;
}

Scenario network_scenario(const std::string& family, const std::string& description) {
  return Scenario{
      "corollary12.network." + family, description, family, "corollary12", "network",
      "corollary12." + family, /*scalable=*/false,
      [family](const RunConfig& c) {
        auto g = std::make_shared<Graph>(make_family(family, c));
        return Prepared{[g, seed = family_seed(family)] {
          const Corollary12Result res = corollary12_solve(*g, ListInstance::delta_plus_one(*g));
          return outcome_of(*g, res, seed);
        }};
      }};
}

Scenario engine_scenario(const std::string& family, const std::string& description) {
  return Scenario{
      "corollary12.engine." + family, description, family, "corollary12", "engine",
      "corollary12." + family, /*scalable=*/true,
      [family](const RunConfig& c) {
        auto g = std::make_shared<Graph>(make_family(family, c));
        return Prepared{[g, threads = c.threads, seed = family_seed(family)] {
          const Corollary12Result res =
              runtime::corollary12_coloring(*g, ListInstance::delta_plus_one(*g), threads);
          return outcome_of(*g, res, seed);
        }};
      }};
}

// Thread-scaling workload: MANY small clusters (far more per
// decomposition color class than any realistic thread count), so every
// class hands run_cluster_class a deep batch of independent clusters —
// the regime where the concurrent per-cluster engines turn the paper's
// max-over-clusters charged rounds into wall-clock speedup. Engine-only
// (no Network twin at this size); the thread sweep itself is the parity
// check, since Metrics and checksum must agree across thread counts.
Scenario scaling_scenario() {
  return Scenario{
      "corollary12.engine.scaling",
      "Corollary 1.2 thread scaling, ParallelEngine, many-cluster clustered graph",
      "clustered", "corollary12", "engine", "corollary12.scaling", /*scalable=*/true,
      [](const RunConfig& c) {
        const std::uint64_t seed = family_seed("clustered");
        auto g = std::make_shared<Graph>(c.quick ? make_clustered(12, 10, 0.35, 10, seed)
                                                 : make_clustered(32, 16, 0.35, 24, seed));
        return Prepared{[g, threads = c.threads, seed] {
          const Corollary12Result res =
              runtime::corollary12_coloring(*g, ListInstance::delta_plus_one(*g), threads);
          return outcome_of(*g, res, seed);
        }};
      }};
}

REGISTER_SCENARIO(network_scenario(
    "clustered", "Corollary 1.2 via network decomposition, Network, clustered graph"));
REGISTER_SCENARIO(engine_scenario(
    "clustered", "Corollary 1.2 via network decomposition, ParallelEngine, clustered graph"));
REGISTER_SCENARIO(
    network_scenario("grid", "Corollary 1.2 via network decomposition, Network, grid"));
REGISTER_SCENARIO(
    engine_scenario("grid", "Corollary 1.2 via network decomposition, ParallelEngine, grid"));
REGISTER_SCENARIO(scaling_scenario());

}  // namespace
}  // namespace dcolor
