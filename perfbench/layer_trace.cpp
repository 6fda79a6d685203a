#include "perfbench/layer_trace.h"

#include <algorithm>

namespace perfbench {

using dcolor::Cluster;
using dcolor::ColoringTransport;
using dcolor::NodeId;

void LayerTimes::add(const LayerTimes& o) {
  linial_s += o.linial_s;
  build_tree_s += o.build_tree_s;
  exchange_s += o.exchange_s;
  aggregate_s += o.aggregate_s;
  broadcast_s += o.broadcast_s;
  conflict_mis_s += o.conflict_mis_s;
  linial_calls += o.linial_calls;
  build_tree_calls += o.build_tree_calls;
  exchange_calls += o.exchange_calls;
  aggregate_calls += o.aggregate_calls;
  broadcast_calls += o.broadcast_calls;
  conflict_mis_calls += o.conflict_mis_calls;
  local_s += o.local_s;
}

bool LayerTimes::same_counts(const LayerTimes& o) const {
  return linial_calls == o.linial_calls && build_tree_calls == o.build_tree_calls &&
         exchange_calls == o.exchange_calls && aggregate_calls == o.aggregate_calls &&
         broadcast_calls == o.broadcast_calls && conflict_mis_calls == o.conflict_mis_calls;
}

dcolor::LinialResult TimedTransport::linial(const dcolor::InducedSubgraph& active,
                                            const std::vector<std::int64_t>* initial,
                                            std::int64_t initial_colors) {
  const auto t0 = tl_->begin();
  dcolor::LinialResult r = inner_->linial(active, initial, initial_colors);
  tl_->end(t0, &LayerTimes::linial_s, &LayerTimes::linial_calls);
  return r;
}

void TimedTransport::build_tree(NodeId root) {
  const auto t0 = tl_->begin();
  inner_->build_tree(root);
  tl_->end(t0, &LayerTimes::build_tree_s, &LayerTimes::build_tree_calls);
}

void TimedTransport::exchange_along(const std::vector<std::vector<NodeId>>& targets,
                                    const std::vector<char>& senders,
                                    const std::vector<std::uint64_t>& payloads, int bits,
                                    std::vector<std::vector<NodeId>>* from) {
  const auto t0 = tl_->begin();
  inner_->exchange_along(targets, senders, payloads, bits, from);
  tl_->end(t0, &LayerTimes::exchange_s, &LayerTimes::exchange_calls);
}

std::pair<long double, long double> TimedTransport::aggregate_pair(
    const std::vector<long double>& values0, const std::vector<long double>& values1) {
  const auto t0 = tl_->begin();
  const auto r = inner_->aggregate_pair(values0, values1);
  tl_->end(t0, &LayerTimes::aggregate_s, &LayerTimes::aggregate_calls);
  return r;
}

void TimedTransport::broadcast_bit(int bit) {
  const auto t0 = tl_->begin();
  inner_->broadcast_bit(bit);
  tl_->end(t0, &LayerTimes::broadcast_s, &LayerTimes::broadcast_calls);
}

std::vector<bool> TimedTransport::conflict_mis(const dcolor::Graph& conf,
                                               const std::vector<bool>& membership,
                                               const std::vector<std::int64_t>& input_coloring,
                                               std::int64_t input_colors) {
  const auto t0 = tl_->begin();
  std::vector<bool> r = inner_->conflict_mis(conf, membership, input_coloring, input_colors);
  tl_->end(t0, &LayerTimes::conflict_mis_s, &LayerTimes::conflict_mis_calls);
  return r;
}

void TimedCorollary12Transports::run_cluster_class(
    const std::vector<const Cluster*>& batch, const ClusterWork& work,
    std::vector<dcolor::congest::Metrics>* out_metrics) {
  double slowest = 0;
  const ClusterWork timed_work = [&](const Cluster& c, ColoringTransport& ct) {
    LayerTimes layers;
    Timeline timeline(&layers);
    TimedTransport tt(ct, timeline);
    const Clock::time_point start = Clock::now();
    work(c, tt);
    const double busy = seconds_between(start, Clock::now());
    // Prologue and epilogue of the cluster's run (outside its first and
    // last transport call) are local work too.
    layers.local_s = busy - layers.transport_s();
    std::lock_guard<std::mutex> lock(mu_);
    clusters_->layers.add(layers);
    clusters_->busy_s += busy;
    slowest = std::max(slowest, busy);
  };
  const Clock::time_point start = driver_->begin();
  inner_->run_cluster_class(batch, timed_work, out_metrics);
  const Clock::time_point end = Clock::now();
  driver_->end_untyped(end);
  clusters_->class_s += seconds_between(start, end);
  clusters_->max_s += slowest;
}

}  // namespace perfbench
