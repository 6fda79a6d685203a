#include "perfbench/workloads.h"

#include <algorithm>
#include <iomanip>
#include <limits>
#include <sstream>
#include <utility>

#include "src/benchkit/verify.h"
#include "src/coloring/theorem11.h"
#include "src/decomposition/corollary12.h"
#include "src/graph/generators.h"
#include "src/graph/properties.h"
#include "src/mpc/mpc_coloring.h"
#include "src/runtime/corollary12_program.h"
#include "src/runtime/theorem11_program.h"
#include "src/util/rng.h"

namespace perfbench {

using dcolor::Color;
using dcolor::Graph;
using dcolor::ListInstance;
using dcolor::NodeId;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> all = {
      {"thm11-nearreg", Algo::kTheorem11, /*path=*/false, 1024},
      {"thm11-path", Algo::kTheorem11, /*path=*/true, 4096},
      {"cor12-path", Algo::kCorollary12, /*path=*/true, 4096},
      {"mpc-linear", Algo::kMpcLinear, /*path=*/false, 64},
  };
  return all;
}

const WorkloadSpec* find_workload(const std::string& name) {
  for (const WorkloadSpec& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed) {
  Inputs in;
  in.graph = std::make_unique<Graph>(w.path ? dcolor::make_path(w.n)
                                            : dcolor::make_near_regular(w.n, 8, seed));
  const std::uint64_t list_seed = dcolor::Rng(seed).next_u64();
  in.lists.emplace(
      ListInstance::random_lists(*in.graph, 4 * (in.graph->max_degree() + 1), list_seed));
  return in;
}

std::string Fingerprint::json() const {
  std::ostringstream os;
  os << "{\"n\": " << n << ", \"m\": " << m << ", \"max_degree\": " << max_degree
     << ", \"bfs_depth\": " << bfs_depth << ", \"color_space\": " << color_space
     << ", \"graph_hash\": \"" << std::hex << std::setfill('0') << std::setw(16) << graph_hash
     << "\", \"list_hash\": \"" << std::setw(16) << list_hash
     << "\"}";
  return os.str();
}

Fingerprint fingerprint(const Inputs& in) {
  const Graph& g = *in.graph;
  Fingerprint f;
  f.n = g.num_nodes();
  f.m = g.num_edges();
  f.max_degree = g.max_degree();
  const std::vector<int> dist = dcolor::bfs_distances(g, 0);
  f.bfs_depth = dist.empty() ? 0 : *std::max_element(dist.begin(), dist.end());
  f.color_space = in.lists->color_space();
  // Length-prefixed streams, so that no two graphs or list sets share one.
  std::vector<std::int64_t> adj, lists;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    adj.push_back(g.degree(v));
    for (NodeId u : g.neighbors(v)) adj.push_back(u);
    const std::vector<Color>& l = in.lists->list(v);
    lists.push_back(static_cast<std::int64_t>(l.size()));
    lists.insert(lists.end(), l.begin(), l.end());
  }
  f.graph_hash = dcolor::benchkit::checksum_values(adj);
  f.list_hash = dcolor::benchkit::checksum_values(lists);
  return f;
}

namespace {

SolveResult checked(const Inputs& in, const std::vector<Color>& colors,
                    const dcolor::congest::Metrics& metrics, double wall_s) {
  SolveResult r;
  r.wall_s = wall_s;
  r.checksum = dcolor::benchkit::checksum_values(colors);
  r.valid = in.lists->valid_solution(colors);
  r.metrics = metrics;
  return r;
}

SolveResult from_theorem11(const Inputs& in, const dcolor::Theorem11Result& res, double wall_s) {
  SolveResult r = checked(in, res.colors, res.metrics, wall_s);
  r.iterations = res.iterations;
  r.min_progress = res.per_iteration.empty() ? 0.0 : std::numeric_limits<double>::infinity();
  for (const dcolor::PartialColoringStats& s : res.per_iteration) {
    if (s.active_before > 0) {
      r.min_progress = std::min(r.min_progress, static_cast<double>(s.newly_colored) /
                                                    static_cast<double>(s.active_before));
    }
  }
  return r;
}

SolveResult from_mpc(const Inputs& in, const dcolor::mpc::MpcColoringResult& res, double wall_s) {
  dcolor::congest::Metrics m;
  m.rounds = res.metrics.rounds;
  m.messages = res.metrics.words_communicated;
  m.total_bits = 64 * res.metrics.words_communicated;
  SolveResult r = checked(in, res.colors, m, wall_s);
  r.derand_passes = res.derand_passes;
  r.commit_cycles = res.commit_cycles;
  r.machines = res.num_machines;
  return r;
}

}  // namespace

SolveResult solve(const WorkloadSpec& w, const Inputs& in, int threads) {
  ListInstance lists = *in.lists;  // the solver consumes its copy
  const Graph& g = *in.graph;
  switch (w.algo) {
    case Algo::kTheorem11: {
      const Clock::time_point t0 = Clock::now();
      const dcolor::Theorem11Result res =
          dcolor::runtime::theorem11_coloring(g, std::move(lists), threads);
      return from_theorem11(in, res, seconds_between(t0, Clock::now()));
    }
    case Algo::kCorollary12: {
      const Clock::time_point t0 = Clock::now();
      const dcolor::Corollary12Result res =
          dcolor::runtime::corollary12_coloring(g, std::move(lists), threads);
      return checked(in, res.colors, res.metrics, seconds_between(t0, Clock::now()));
    }
    case Algo::kMpcLinear: {
      const Clock::time_point t0 = Clock::now();
      const dcolor::mpc::MpcColoringResult res =
          dcolor::mpc::mpc_list_coloring_linear(g, std::move(lists));
      return from_mpc(in, res, seconds_between(t0, Clock::now()));
    }
  }
  return {};
}

SolveResult solve_traced(const WorkloadSpec& w, const Inputs& in, int threads, TraceSample* out) {
  *out = TraceSample{};
  ListInstance lists = *in.lists;
  const Graph& g = *in.graph;
  Timeline driver(&out->driver);
  if (w.algo == Algo::kMpcLinear) {
    // No layer interface to wrap: the traced solve is the plain one.
    SolveResult r = solve(w, in, threads);
    out->wall_s = r.wall_s;
    return r;
  }
  const Clock::time_point t0 = Clock::now();
  if (w.algo == Algo::kTheorem11) {
    std::optional<dcolor::Theorem11Result> res;
    {
      dcolor::runtime::EngineColoringTransport engine(g, threads);
      out->engine_setup_s = seconds_between(t0, Clock::now());
      TimedTransport timed(engine, driver);
      res.emplace(dcolor::theorem11_run(timed, std::move(lists)));
    }
    out->wall_s = seconds_between(t0, Clock::now());
    return from_theorem11(in, *res, out->wall_s);
  }
  std::optional<dcolor::Corollary12Result> res;
  {
    dcolor::runtime::EngineCorollary12Transports engine(g, threads);
    out->engine_setup_s = seconds_between(t0, Clock::now());
    TimedCorollary12Transports timed(engine, driver, &out->clusters);
    res.emplace(dcolor::corollary12_run(g, std::move(lists), timed));
  }
  out->wall_s = seconds_between(t0, Clock::now());
  return checked(in, res->colors, res->metrics, out->wall_s);
}

std::optional<SolveResult> solve_reference(const WorkloadSpec& w, const Inputs& in) {
  ListInstance lists = *in.lists;
  const Graph& g = *in.graph;
  switch (w.algo) {
    case Algo::kTheorem11:
      return from_theorem11(in, dcolor::theorem11_solve(g, std::move(lists)), 0);
    case Algo::kCorollary12: {
      const dcolor::Corollary12Result res = dcolor::corollary12_solve(g, std::move(lists));
      return checked(in, res.colors, res.metrics, 0);
    }
    case Algo::kMpcLinear:
      return std::nullopt;
  }
  return std::nullopt;
}

bool same_output(const SolveResult& a, const SolveResult& b) {
  return a.checksum == b.checksum && a.metrics.rounds == b.metrics.rounds &&
         a.metrics.messages == b.metrics.messages &&
         a.metrics.total_bits == b.metrics.total_bits &&
         a.metrics.max_message_bits == b.metrics.max_message_bits &&
         a.iterations == b.iterations && a.derand_passes == b.derand_passes &&
         a.commit_cycles == b.commit_cycles && a.machines == b.machines;
}

}  // namespace perfbench
