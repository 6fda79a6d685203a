// perfbench: the benchmark of record. One closed-loop workload per
// process, one solve at a time; threads exist only inside the engine.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//   perfbench --fingerprints
//
// --trace 0 alternates verified solves at 1 and 4 engine threads for
// --seconds and prints the end-to-end metrics. --trace 1 alternates
// untraced and traced solves (the layer decorators of layer_trace.h) at
// both thread counts and prints the per-layer metrics. Every solve is
// checked against the pristine lists and against the first solve's
// checksum, rounds and traffic; the last stdout line is one JSON object
// {"correct", "attempted", "failed", "metrics"}, and any failed solve
// makes the exit code 1. Lines before it start with "# " and carry the
// run context, the input fingerprints and the tail percentiles. See
// perfbench/README.md for the metrics and what moves them.
#include <algorithm>
#include <cstdlib>
#include <exception>
#include <functional>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "perfbench/layer_trace.h"
#include "perfbench/workloads.h"
#include "src/benchkit/runner.h"
#include "src/benchkit/verify.h"
#include "src/benchkit/version.h"
#include "src/coloring/theorem11.h"
#include "src/decomposition/netdecomp.h"

namespace perfbench {
namespace {

constexpr int kThreadCounts[] = {1, 4};
// The seed whose input fingerprint is pinned in fingerprints.json.
constexpr std::uint64_t kDefaultSeed = 1;
constexpr int kDecomposeReps = 5;
constexpr int kTailBeyond = 10;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10;
  int trace = 0;
  bool self_test = false;
  bool fingerprints = false;
};

[[noreturn]] void usage(const char* msg) {
  std::cerr << "perfbench: " << msg << "\n"
            << "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
            << "       perfbench --self-test | --fingerprints\nworkloads:";
  for (const WorkloadSpec& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test" || flag == "--fingerprints") {
      (flag == "--self-test" ? a.self_test : a.fingerprints) = true;
      continue;
    }
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = v;
      } else if (flag == "--seed") {
        a.seed = std::stoull(v);
      } else if (flag == "--seconds") {
        a.seconds = std::stod(v);
      } else if (flag == "--trace") {
        a.trace = std::stoi(v);
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!a.self_test && !a.fingerprints) {
    if (find_workload(a.workload) == nullptr) usage("unknown or missing --workload");
    if (a.seconds <= 0) usage("--seconds must be positive");
    if (a.trace != 0 && a.trace != 1) usage("--trace takes 0 or 1");
  }
  return a;
}

double median(const std::vector<double>& v) { return dcolor::benchkit::median(v); }

// The highest percentile that leaves >= kTailBeyond samples above it.
struct Tail {
  double value = 0;
  double percentile = 0;
  std::size_t rank = 0;  // 1-based rank of `value` in ascending order
  std::size_t samples = 0;
};
Tail tail_of(std::vector<double> v) {
  Tail t;
  t.samples = v.size();
  if (v.empty()) return t;
  std::sort(v.begin(), v.end());
  // Too few samples for any such percentile: fall back to the maximum.
  t.rank = v.size() > kTailBeyond ? v.size() - kTailBeyond : v.size();
  t.value = v[t.rank - 1];
  t.percentile = 100.0 * static_cast<double>(t.rank) / static_cast<double>(v.size());
  return t;
}

std::string tag(int threads) { return ".t" + std::to_string(threads); }

void print_samples(const std::string& name, const std::vector<double>& v) {
  std::cout << "# samples " << name << std::setprecision(6);
  for (double x : v) std::cout << " " << x;
  std::cout << "\n";
}

// Collects {"name": {"value": v, "unit": u}} entries in insertion order.
class MetricSet {
 public:
  void add(const std::string& name, double value, const std::string& unit) {
    items_.emplace_back(name, std::make_pair(value, unit));
  }
  std::string json() const {
    std::ostringstream os;
    os << std::setprecision(17) << "{";
    for (std::size_t i = 0; i < items_.size(); ++i) {
      if (i) os << ", ";
      os << "\"" << items_[i].first << "\": {\"value\": " << items_[i].second.first
         << ", \"unit\": \"" << items_[i].second.second << "\"}";
    }
    os << "}";
    return os.str();
  }

 private:
  std::vector<std::pair<std::string, std::pair<double, std::string>>> items_;
};

// Correctness bookkeeping shared by every solve of a run: the first
// verified solve is the reference all later ones must reproduce.
class Gate {
 public:
  // Runs `fn`, checks its output, and returns it; nullopt if it threw.
  std::optional<SolveResult> run(const char* what, const std::function<SolveResult()>& fn) {
    ++attempted_;
    std::optional<SolveResult> r;
    try {
      r = fn();
    } catch (const std::exception& e) {
      fail(what, std::string("threw: ") + e.what());
      return std::nullopt;
    }
    if (!r->valid) {
      fail(what, "not a valid list colouring of the pristine lists");
    } else if (r->iterations > 0 && r->min_progress < 0.125) {
      fail(what, "a Lemma 2.1 iteration coloured less than 1/8 of the active nodes");
    } else if (!reference_) {
      reference_ = *r;
    } else if (!same_output(*r, *reference_)) {
      fail(what, "checksum, rounds or traffic differ from the first solve");
    }
    return r;
  }
  void fail(const char* what, const std::string& why) {
    ++failed_;
    std::cerr << "perfbench: FAILED " << what << ": " << why << "\n";
  }
  // A check outside a solve (decorator accounting) that found a fault.
  void fail_check(const char* what, const std::string& why) {
    ++attempted_;
    fail(what, why);
  }

  const std::optional<SolveResult>& reference() const { return reference_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

 private:
  std::optional<SolveResult> reference_;
  std::int64_t attempted_ = 0, failed_ = 0;
};

void print_context(const Args& a) {
  const unsigned nproc = std::thread::hardware_concurrency();
  std::cout << "# context {\"workload\": \"" << a.workload << "\", \"seed\": " << a.seed
            << ", \"seconds\": " << a.seconds << ", \"trace\": " << a.trace
            << ", \"nproc\": " << nproc << ", \"build_type\": \"" << PERFBENCH_BUILD_TYPE
            << "\", \"compiler\": \"" << PERFBENCH_COMPILER << "\", \"git_describe\": \""
            << dcolor::benchkit::git_describe() << "\"}\n";
  if (nproc < 4) {
    std::cout << "# WARNING: nproc = " << nproc
              << " < 4: the .t4 figures are oversubscribed\n";
  }
}

// The default seed's inputs, checked by run.py against fingerprints.json
// so that a generator change is caught before numbers are compared.
void print_default_fingerprint(const WorkloadSpec& w) {
  std::cout << "# fingerprint_default {\"workload\": \"" << w.name
            << "\", \"seed\": " << kDefaultSeed
            << ", \"inputs\": " << fingerprint(make_inputs(w, kDefaultSeed)).json() << "}\n";
}

// One timed generation of the inputs; setup_s is the median over the
// set-ups of a run, which are spread through it (one before the solves,
// one after every pair) so that they see the same machine as the solves.
Inputs timed_setup(const WorkloadSpec& w, std::uint64_t seed, std::vector<double>* times) {
  const Clock::time_point t0 = Clock::now();
  Inputs in = make_inputs(w, seed);
  times->push_back(seconds_between(t0, Clock::now()));
  return in;
}

// One solve at each thread count before anything is timed: fills the
// caches and sets the gate's reference.
void warm_up(const WorkloadSpec& w, const Inputs& in, Gate& gate) {
  for (int threads : kThreadCounts) {
    gate.run("warm-up solve", [&] { return solve(w, in, threads); });
  }
}

// The result line (the last line of stdout) and the exit code.
int print_result(const Gate& gate, const MetricSet& m) {
  std::cout << "{\"correct\": " << (gate.failed() == 0 ? "true" : "false")
            << ", \"attempted\": " << gate.attempted() << ", \"failed\": " << gate.failed()
            << ", \"metrics\": " << m.json() << "}" << std::endl;
  return gate.failed() == 0 ? 0 : 1;
}

// Untraced closed loop: solves alternate between 1 and 4 threads (the
// leading thread count alternates too) until `seconds` have passed.
void timed_loop(const Args& a, const WorkloadSpec& w, const Inputs& in, Gate& gate,
                std::vector<double> walls[2], std::vector<double>* setup_times) {
  const Clock::time_point start = Clock::now();
  for (int round = 0; seconds_between(start, Clock::now()) < a.seconds; ++round) {
    for (int j = 0; j < 2; ++j) {
      const int slot = (round + j) % 2;
      const auto r =
          gate.run("timed solve", [&] { return solve(w, in, kThreadCounts[slot]); });
      if (r) walls[slot].push_back(r->wall_s);
    }
    timed_setup(w, a.seed, setup_times);
  }
}

int run_untraced(const Args& a, const WorkloadSpec& w, const Inputs& in,
                 std::vector<double>* setup_times, const dcolor::benchkit::RssWindow& rss,
                 Gate& gate) {
  warm_up(w, in, gate);
  std::vector<double> walls[2];
  timed_loop(a, w, in, gate, walls, setup_times);

  MetricSet m;
  m.add("setup_s", median(*setup_times), "s");
  for (int i = 0; i < 2; ++i) m.add("solve_s" + tag(kThreadCounts[i]), median(walls[i]), "s");
  for (int i = 0; i < 2; ++i) print_samples("solve_s" + tag(kThreadCounts[i]), walls[i]);
  const SolveResult ref = gate.reference().value_or(SolveResult{});
  m.add("rounds", static_cast<double>(ref.metrics.rounds), "count");
  m.add("total_bits", static_cast<double>(ref.metrics.total_bits), "bit");
  m.add("peak_rss_mb", static_cast<double>(dcolor::benchkit::rss_window_end(rss)) / 1024.0,
        "MB");
  return print_result(gate, m);
}

// Per-thread-count figures of the traced run.
struct TracedSet {
  std::vector<double> untraced_wall;
  std::vector<TraceSample> samples;
};

double total_local(const TraceSample& s) { return s.driver.local_s + s.clusters.layers.local_s; }
double total_transport(const TraceSample& s) {
  return s.driver.transport_s() + s.clusters.layers.transport_s();
}
LayerTimes all_layers(const TraceSample& s) {
  LayerTimes t = s.driver;
  t.add(s.clusters.layers);
  return t;
}

template <class F>
double median_of(const std::vector<TraceSample>& samples, F f) {
  std::vector<double> v;
  for (const TraceSample& s : samples) v.push_back(f(s));
  return median(v);
}

int run_traced(const Args& a, const WorkloadSpec& w, const Inputs& in, Gate& gate) {
  warm_up(w, in, gate);
  // Standalone decomposition of the same graph (Corollary 1.2 only).
  dcolor::NetworkDecomposition dec;
  std::vector<double> dec_times;
  if (w.algo == Algo::kCorollary12) {
    for (int i = 0; i < kDecomposeReps; ++i) {
      const Clock::time_point t0 = Clock::now();
      dec = dcolor::decompose(*in.graph);
      dec_times.push_back(seconds_between(t0, Clock::now()));
    }
  }

  TracedSet sets[2];
  std::optional<LayerTimes> first_counts;
  const Clock::time_point start = Clock::now();
  for (int round = 0; seconds_between(start, Clock::now()) < a.seconds; ++round) {
    // Two untraced solves per traced one at each thread count, so that
    // the untraced samples also carry the tail percentiles.
    for (int j = 0; j < 6; ++j) {
      const int step = (round + j) % 6;
      const int slot = step % 2;
      const int threads = kThreadCounts[slot];
      if (step < 4) {
        const auto r = gate.run("untraced solve", [&] { return solve(w, in, threads); });
        if (r) sets[slot].untraced_wall.push_back(r->wall_s);
        continue;
      }
      TraceSample s;
      const auto r =
          gate.run("traced solve", [&] { return solve_traced(w, in, threads, &s); });
      if (!r) continue;
      // Decorator checks: the layer times partition the traced wall time
      // (the remainder is the driver's prologue/epilogue, never negative),
      // and the call counts are the same at every thread count.
      if (s.unattributed_s() < -1e-6) {
        gate.fail_check("decorator accounting", "layer times exceed the traced wall time");
      }
      const LayerTimes counts = all_layers(s);
      if (!first_counts) {
        first_counts = counts;
      } else if (!counts.same_counts(*first_counts)) {
        gate.fail_check("decorator call counts", "transport call counts differ between solves");
      }
      sets[slot].samples.push_back(s);
    }
  }

  MetricSet m;
  for (int i = 0; i < 2; ++i) {
    const std::string t = tag(kThreadCounts[i]);
    const std::vector<TraceSample>& ss = sets[i].samples;
    const double untraced = median(sets[i].untraced_wall);
    print_samples("solve_s" + t, sets[i].untraced_wall);
    const Tail tail = tail_of(sets[i].untraced_wall);
    m.add("solve_s" + t + ".tail", tail.value, "s");
    std::cout << "# tail solve_s" << t << ".tail = p" << std::setprecision(4) << tail.percentile
              << " of " << tail.samples << " untraced samples ("
              << tail.samples - std::min(tail.samples, tail.rank) << " beyond)\n";
    const double traced = median_of(ss, [](const TraceSample& s) { return s.wall_s; });
    m.add("coloring.local_s" + t, median_of(ss, total_local), "s");
    m.add("coloring.local_share" + t, median_of(ss, [](const TraceSample& s) {
            const double busy = total_local(s) + total_transport(s);
            return busy > 0 ? total_local(s) / busy : 0.0;
          }), "ratio");
    const auto layer = [&](const char* name, double LayerTimes::*f) {
      m.add(std::string("runtime.") + name + t,
            median_of(ss, [f](const TraceSample& s) { return all_layers(s).*f; }), "s");
    };
    layer("build_tree_s", &LayerTimes::build_tree_s);
    layer("aggregate_s", &LayerTimes::aggregate_s);
    layer("broadcast_s", &LayerTimes::broadcast_s);
    layer("exchange_s", &LayerTimes::exchange_s);
    layer("linial_s", &LayerTimes::linial_s);
    layer("conflict_mis_s", &LayerTimes::conflict_mis_s);
    m.add("runtime.engine_setup_s" + t,
          median_of(ss, [](const TraceSample& s) { return s.engine_setup_s; }), "s");
    m.add("runtime.cluster_class_s" + t,
          median_of(ss, [](const TraceSample& s) { return s.clusters.class_s; }), "s");
    m.add("runtime.cluster_busy_s" + t,
          median_of(ss, [](const TraceSample& s) { return s.clusters.busy_s; }), "s");
    m.add("runtime.cluster_max_s" + t,
          median_of(ss, [](const TraceSample& s) { return s.clusters.max_s; }), "s");
    const int threads = kThreadCounts[i];
    m.add("runtime.cluster_efficiency" + t, median_of(ss, [threads](const TraceSample& s) {
            const double wall = threads * s.clusters.class_s;
            return wall > 0 ? s.clusters.busy_s / wall : 0.0;
          }), "ratio");
    m.add("trace.overhead" + t, untraced > 0 ? traced / untraced - 1 : 0.0, "ratio");
    m.add("trace.unattributed_s" + t,
          median_of(ss, [](const TraceSample& s) { return s.unattributed_s(); }), "s");
  }
  const LayerTimes counts = first_counts.value_or(LayerTimes{});
  m.add("runtime.aggregate_calls", static_cast<double>(counts.aggregate_calls), "count");
  m.add("runtime.exchange_calls", static_cast<double>(counts.exchange_calls), "count");
  m.add("runtime.conflict_mis_calls", static_cast<double>(counts.conflict_mis_calls), "count");
  const double u4 = median(sets[1].untraced_wall);
  m.add("runtime.scaling", u4 > 0 ? median(sets[0].untraced_wall) / u4 : 0.0, "ratio");

  int max_depth = 0;
  for (const dcolor::Cluster& c : dec.clusters) max_depth = std::max(max_depth, c.tree_depth);
  m.add("decomposition.decompose_s", median(dec_times), "s");
  m.add("decomposition.clusters", static_cast<double>(dec.clusters.size()), "count");
  m.add("decomposition.colors", dec.num_colors, "count");
  m.add("decomposition.max_tree_depth", max_depth, "count");

  const SolveResult ref = gate.reference().value_or(SolveResult{});
  m.add("coloring.iterations", ref.iterations, "count");
  m.add("coloring.min_progress", ref.min_progress, "ratio");
  m.add("mpc.derand_passes", ref.derand_passes, "count");
  m.add("mpc.commit_cycles", ref.commit_cycles, "count");
  m.add("mpc.words", w.algo == Algo::kMpcLinear ? static_cast<double>(ref.metrics.messages) : 0,
        "count");
  m.add("mpc.machines", ref.machines, "count");
  m.add("failed_frac",
        gate.attempted() ? static_cast<double>(gate.failed()) / gate.attempted() : 1.0, "ratio");
  return print_result(gate, m);
}

// Reduced-size parity against the sequential congest::Network reference,
// kept out of the timed runs (the Network path is slow at full size).
int self_test() {
  int failures = 0;
  const auto expect = [&](bool ok, const std::string& what) {
    std::cout << (ok ? "PASS " : "FAIL ") << what << "\n";
    if (!ok) ++failures;
  };
  for (WorkloadSpec w : workloads()) {
    w.n = w.path ? 256 : (w.algo == Algo::kMpcLinear ? 48 : 128);
    for (std::uint64_t seed : {1, 2, 3}) {
      const std::string id = std::string(w.name) + " n=" + std::to_string(w.n) +
                             " seed=" + std::to_string(seed);
      const Inputs in = make_inputs(w, seed);
      expect(fingerprint(in).json() == fingerprint(make_inputs(w, seed)).json(),
             id + ": inputs reproducible from the seed");
      const SolveResult base = solve(w, in, 1);
      expect(base.valid, id + ": valid colouring");
      if (const auto ref = solve_reference(w, in)) {
        expect(ref->valid && same_output(base, *ref), id + ": engine t1 == Network reference");
      }
      for (int threads : kThreadCounts) {
        const std::string t = " t" + std::to_string(threads);
        expect(same_output(solve(w, in, threads), base), id + t + ": untraced == t1");
        TraceSample s;
        expect(same_output(solve_traced(w, in, threads, &s), base),
               id + t + ": traced == untraced (same colours and Metrics)");
        expect(s.unattributed_s() >= -1e-6, id + t + ": layer times within traced wall");
      }
      if (w.algo == Algo::kTheorem11) {
        // The decorator is transparent over the Network reference too.
        dcolor::congest::Network net(*in.graph);
        dcolor::NetworkColoringTransport nt(net);
        LayerTimes layers;
        Timeline tl(&layers);
        TimedTransport timed(nt, tl);
        const dcolor::Theorem11Result res = dcolor::theorem11_run(timed, *in.lists);
        expect(dcolor::benchkit::checksum_values(res.colors) == base.checksum &&
                   res.metrics.rounds == base.metrics.rounds &&
                   res.metrics.total_bits == base.metrics.total_bits &&
                   res.metrics.messages == base.metrics.messages,
               id + ": decorated Network == engine");
        expect(layers.aggregate_calls > 0 && layers.aggregate_calls == layers.broadcast_calls,
               id + ": one broadcast per aggregated seed bit");
      }
    }
  }
  std::cout << (failures == 0 ? "self-test passed\n" : "self-test FAILED\n");
  return failures == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Args a = parse(argc, argv);
  if (a.self_test) return self_test();
  if (a.fingerprints) {
    for (const WorkloadSpec& w : workloads()) print_default_fingerprint(w);
    return 0;
  }
  // Peak RSS of this process alone (ru_maxrss would inherit the
  // launcher's watermark across exec).
  const dcolor::benchkit::RssWindow rss = dcolor::benchkit::rss_window_begin();
  const WorkloadSpec& w = *find_workload(a.workload);
  print_context(a);
  print_default_fingerprint(w);
  std::vector<double> setup_times;
  const Inputs in = timed_setup(w, a.seed, &setup_times);
  std::cout << "# fingerprint {\"workload\": \"" << w.name << "\", \"seed\": " << a.seed
            << ", \"inputs\": " << fingerprint(in).json() << "}\n";
  Gate gate;
  return a.trace ? run_traced(a, w, in, gate) : run_untraced(a, w, in, &setup_times, rss, gate);
}
