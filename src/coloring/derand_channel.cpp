#include "src/coloring/derand_channel.h"

#include <algorithm>
#include <cassert>

#include "src/coloring/mis.h"

namespace dcolor {

std::pair<long double, long double> BfsChannel::aggregate_pair(
    congest::Network& net, const std::vector<long double>& values0,
    const std::vector<long double>& values1) {
  // One convergecast wave carries both sums. BfsTree::aggregate charges
  // the first 64-bit word (depth + ceil(64/B) - 1 rounds); the second is
  // summed in memory and charged one round. A 128-bit pipelined wave, as
  // ClusterChannel charges it, costs depth + ceil(128/B) - 1: at B = 36
  // this charge is one round less (see docs/ARCHITECTURE.md, section 3).
  const long double s0 =
      congest::from_fixed(congest::aggregate_fixed_sum(net, *tree_, values0));
  long double s1 = 0.0L;
  for (long double v : values1) s1 += v;
  net.tick(1);
  return {s0, s1};
}

void BfsChannel::broadcast_bit(congest::Network& net, int bit) {
  tree_->broadcast(net, static_cast<std::uint64_t>(bit), 1);
}

LinialResult NetworkColoringTransport::linial(const InducedSubgraph& active,
                                              const std::vector<std::int64_t>* initial,
                                              std::int64_t initial_colors) {
  return linial_coloring(*net_, active, initial, initial_colors);
}

void NetworkColoringTransport::build_tree(NodeId root) {
  assert(channel_ == nullptr || owned_channel_.has_value());
  tree_ = congest::BfsTree::build(*net_, root);
  owned_channel_.emplace(*tree_);
  channel_ = &*owned_channel_;
}

void NetworkColoringTransport::exchange_along(const std::vector<std::vector<NodeId>>& targets,
                                              const std::vector<char>& senders,
                                              const std::vector<std::uint64_t>& payloads,
                                              int bits,
                                              std::vector<std::vector<NodeId>>* from) {
  const NodeId n = net_->graph().num_nodes();
  const int bw = net_->bandwidth_bits();
  const int chunks = (bits + bw - 1) / bw;
  const int first_bits = std::min(bits, bw);
  const std::uint64_t mask =
      first_bits >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << first_bits) - 1);
  for (NodeId v = 0; v < n; ++v) {
    if (!senders[v]) continue;
    for (NodeId u : targets[v]) net_->send(v, u, payloads[v] & mask, first_bits);
  }
  net_->advance_round();
  if (chunks > 1) net_->tick(chunks - 1);
  if (from != nullptr) {
    for (NodeId v = 0; v < n; ++v) {
      auto& fv = (*from)[v];
      fv.clear();
      for (const congest::Incoming& m : net_->inbox(v)) fv.push_back(m.from);
    }
  }
}

std::pair<long double, long double> NetworkColoringTransport::aggregate_pair(
    const std::vector<long double>& values0, const std::vector<long double>& values1) {
  assert(channel_ != nullptr && "build_tree first (or construct with a channel)");
  return channel_->aggregate_pair(*net_, values0, values1);
}

void NetworkColoringTransport::broadcast_bit(int bit) {
  assert(channel_ != nullptr && "build_tree first (or construct with a channel)");
  channel_->broadcast_bit(*net_, bit);
}

std::vector<bool> NetworkColoringTransport::conflict_mis(
    const Graph& conf, const std::vector<bool>& membership,
    const std::vector<std::int64_t>& input_coloring, std::int64_t input_colors) {
  // Private simulator over the conflict graph; only its rounds are
  // charged to the main network (the conflict graph is a subgraph of G,
  // so these messages travel over G's edges).
  congest::Network conf_net(conf, net_->bandwidth_bits());
  InducedSubgraph conf_sub(conf, membership);
  LinialResult lin = linial_coloring(conf_net, conf_sub, &input_coloring, input_colors);
  std::vector<bool> in_mis =
      mis_by_color_classes(conf_net, conf_sub, lin.coloring, lin.num_colors);
  net_->tick(conf_net.metrics().rounds);
  return in_mis;
}

}  // namespace dcolor
