// Timing decorators over the two public layer interfaces of the coloring
// pipeline — dcolor::ColoringTransport and dcolor::Corollary12Transports —
// so that each layer is measured from outside the program: the harness
// wraps a backend, hands the wrapper to the shared driver
// (theorem11_run / corollary12_run), and reads busy time and call counts
// per layer afterwards. The program itself carries no extra probes.
//
// Every call is forwarded unchanged, so a decorated run charges exactly the
// Metrics of an undecorated one (the harness checks this on every traced
// solve).
//
// Time model. The driver thread alternates between transport calls and
// driver-local work (the conditional-expectation evaluation of Lemma 2.6);
// the gaps between consecutive driver-thread calls are `local_s`. Corollary
// 1.2 additionally runs the clusters of one colour class through
// run_cluster_class, possibly on pool workers: each cluster's transport is
// wrapped as well, and its calls and local time are summed over clusters
// (busy seconds, which may exceed wall time at more than one thread).
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "src/coloring/derand_channel.h"
#include "src/decomposition/corollary12.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// Busy seconds and call counts of the ColoringTransport primitives, plus
// the local time between consecutive calls.
struct LayerTimes {
  double linial_s = 0, build_tree_s = 0, exchange_s = 0, aggregate_s = 0, broadcast_s = 0,
         conflict_mis_s = 0;
  std::int64_t linial_calls = 0, build_tree_calls = 0, exchange_calls = 0, aggregate_calls = 0,
               broadcast_calls = 0, conflict_mis_calls = 0;
  double local_s = 0;  // gaps between consecutive calls on this timeline

  double transport_s() const {
    return linial_s + build_tree_s + exchange_s + aggregate_s + broadcast_s + conflict_mis_s;
  }
  void add(const LayerTimes& o);
  // Call counts only: they are fixed by the driver's call sequence, so
  // they must agree across thread counts and repetitions.
  bool same_counts(const LayerTimes& o) const;
};

// One thread's sequence of layer calls. begin() adds the gap since the
// previous call's end to `times->local_s`; end() charges the call.
class Timeline {
 public:
  explicit Timeline(LayerTimes* times) : times_(times) {}

  Clock::time_point begin() {
    const Clock::time_point now = Clock::now();
    if (last_end_) times_->local_s += seconds_between(*last_end_, now);
    return now;
  }
  void end(Clock::time_point start, double LayerTimes::*busy, std::int64_t LayerTimes::*calls) {
    const Clock::time_point now = Clock::now();
    times_->*busy += seconds_between(start, now);
    ++(times_->*calls);
    last_end_ = now;
  }
  // For calls charged outside LayerTimes (run_cluster_class).
  void end_untyped(Clock::time_point now) { last_end_ = now; }

 private:
  LayerTimes* times_;
  std::optional<Clock::time_point> last_end_;
};

// ColoringTransport decorator: forwards every call to `inner` and charges
// it on `timeline`. tick() is charge-only bookkeeping and is forwarded
// untimed (its nanoseconds fall into the surrounding local gap).
class TimedTransport final : public dcolor::ColoringTransport {
 public:
  TimedTransport(dcolor::ColoringTransport& inner, Timeline& timeline)
      : inner_(&inner), tl_(&timeline) {}

  const dcolor::Graph& graph() const override { return inner_->graph(); }
  int bandwidth_bits() const override { return inner_->bandwidth_bits(); }

  dcolor::LinialResult linial(const dcolor::InducedSubgraph& active,
                              const std::vector<std::int64_t>* initial,
                              std::int64_t initial_colors) override;
  void build_tree(dcolor::NodeId root) override;
  void exchange_along(const std::vector<std::vector<dcolor::NodeId>>& targets,
                      const std::vector<char>& senders,
                      const std::vector<std::uint64_t>& payloads, int bits,
                      std::vector<std::vector<dcolor::NodeId>>* from) override;
  std::pair<long double, long double> aggregate_pair(
      const std::vector<long double>& values0, const std::vector<long double>& values1) override;
  void broadcast_bit(int bit) override;
  std::vector<bool> conflict_mis(const dcolor::Graph& conf, const std::vector<bool>& membership,
                                 const std::vector<std::int64_t>& input_coloring,
                                 std::int64_t input_colors) override;
  void tick(std::int64_t rounds) override { inner_->tick(rounds); }
  const dcolor::congest::Metrics& metrics() const override { return inner_->metrics(); }

 private:
  dcolor::ColoringTransport* inner_;
  Timeline* tl_;
};

// What the wrapped run_cluster_class calls measured, over a whole solve.
struct ClusterTimes {
  LayerTimes layers;        // every cluster transport's calls + local time
  double class_s = 0;       // sum over colour classes of run_cluster_class wall time
  double busy_s = 0;        // sum over clusters of the ClusterWork call's duration
  double max_s = 0;         // sum over classes of the slowest cluster
};

// Corollary12Transports decorator: global() is a TimedTransport on the
// driver timeline; run_cluster_class is charged on the driver timeline as
// one call and wraps every ClusterWork invocation (and the transport it
// receives) to record per-cluster busy time. Safe under the engine
// backend's concurrent cluster execution: per-cluster figures are
// accumulated locally and merged under a mutex.
class TimedCorollary12Transports final : public dcolor::Corollary12Transports {
 public:
  TimedCorollary12Transports(dcolor::Corollary12Transports& inner, Timeline& driver,
                             ClusterTimes* clusters)
      : inner_(&inner), driver_(&driver), clusters_(clusters), global_(inner.global(), driver) {}

  dcolor::ColoringTransport& global() override { return global_; }
  // Only the base run_cluster_class calls cluster(); it is overridden
  // below, so this forwards unwrapped.
  dcolor::ColoringTransport& cluster(const dcolor::Cluster& c) override {
    return inner_->cluster(c);
  }
  void run_cluster_class(const std::vector<const dcolor::Cluster*>& batch,
                         const ClusterWork& work,
                         std::vector<dcolor::congest::Metrics>* out_metrics) override;

 private:
  dcolor::Corollary12Transports* inner_;
  Timeline* driver_;
  ClusterTimes* clusters_;
  TimedTransport global_;
  std::mutex mu_;  // guards *clusters_ during run_cluster_class
};

}  // namespace perfbench
