// The four workloads of the benchmark of record: their inputs (made from
// the seed by the in-repo generators), their fingerprints, and one solve
// through the public entry point — untimed internals, checked output.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/layer_trace.h"
#include "src/coloring/list_instance.h"
#include "src/congest/metrics.h"
#include "src/graph/graph.h"

namespace perfbench {

enum class Algo { kTheorem11, kCorollary12, kMpcLinear };

struct WorkloadSpec {
  const char* name;
  Algo algo;
  bool path;          // make_path(n); otherwise make_near_regular(n, 8, seed)
  dcolor::NodeId n;
};

const std::vector<WorkloadSpec>& workloads();
const WorkloadSpec* find_workload(const std::string& name);

// The graph and the pristine random (degree+1)-lists. The ListInstance
// points at the Graph, so both live behind one stable allocation.
struct Inputs {
  std::unique_ptr<dcolor::Graph> graph;
  std::optional<dcolor::ListInstance> lists;
};

// Graph from `seed`; lists from a seed derived from it, over the colour
// space C = 4 (Delta + 1).
Inputs make_inputs(const WorkloadSpec& w, std::uint64_t seed);

struct Fingerprint {
  std::int64_t n = 0, m = 0;
  int max_degree = 0;
  int bfs_depth = 0;  // eccentricity of node 0
  std::int64_t color_space = 0;
  std::uint64_t graph_hash = 0, list_hash = 0;
  std::string json() const;
};
Fingerprint fingerprint(const Inputs& in);

// What one solve produced, reduced to what the harness compares.
struct SolveResult {
  double wall_s = 0;           // the library call alone, checks excluded
  std::uint64_t checksum = 0;  // FNV-1a over the colours
  bool valid = false;          // valid_solution on the pristine lists
  dcolor::congest::Metrics metrics;  // MPC: rounds, words as messages, 64 x words as bits
  int iterations = 0;                // Lemma 2.1 iterations (Theorem 1.1 only)
  double min_progress = 0;           // min newly_colored / active_before (Theorem 1.1 only)
  int derand_passes = 0, commit_cycles = 0, machines = 0;  // MPC only
};

// Layer figures of one traced solve.
struct TraceSample {
  double wall_s = 0;          // engine setup + solve + teardown
  double engine_setup_s = 0;  // constructing the engine-backed transport(s)
  LayerTimes driver;          // driver-thread transport calls and local gaps
  ClusterTimes clusters;      // Corollary 1.2 cluster classes
  // wall - setup - driver calls - cluster classes - driver local gaps:
  // the driver's prologue before its first transport call (on Corollary
  // 1.2, the decomposition), its epilogue, and engine teardown.
  double unattributed_s() const {
    return wall_s - engine_setup_s - driver.transport_s() - clusters.class_s - driver.local_s;
  }
};

// One solve through the public entry point at `threads` engine threads
// (ignored by mpc-linear).
SolveResult solve(const WorkloadSpec& w, const Inputs& in, int threads);

// The same solve through the timing decorators: the engine backend is
// built explicitly, wrapped, and handed to the shared driver.
SolveResult solve_traced(const WorkloadSpec& w, const Inputs& in, int threads, TraceSample* out);

// The sequential congest::Network reference (theorem11_solve /
// corollary12_solve); mpc-linear has none and returns nullopt.
std::optional<SolveResult> solve_reference(const WorkloadSpec& w, const Inputs& in);

bool same_output(const SolveResult& a, const SolveResult& b);

}  // namespace perfbench
