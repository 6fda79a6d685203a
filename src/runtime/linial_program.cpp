#include "src/runtime/linial_program.h"

#include <algorithm>
#include <numeric>

namespace dcolor::runtime {

LinialProgram::LinialProgram(const InducedSubgraph& active,
                             std::vector<std::int64_t> coloring, std::int64_t initial_colors)
    : active_(&active), g_(&active.base()), coloring_(std::move(coloring)) {
  int delta = 0;
  for (NodeId v = 0; v < g_->num_nodes(); ++v) {
    if (!active.contains(v)) continue;
    delta = std::max(delta, active.degree(v));
    members_.push_back(v);
  }
  schedule_ = plan_linial(initial_colors, delta);
}

Roster LinialProgram::roster(std::int64_t) {
  // Every hook returns at once for an inactive node. With all nodes
  // active the dense dispatch keeps the degree-weighted chunking.
  if (members_.size() == static_cast<std::size_t>(g_->num_nodes())) return Roster::all();
  return Roster::of(members_);
}

void LinialProgram::send_color(NodeId v, std::uint64_t color, int bits, Outbox& out) {
  const auto nb = g_->neighbors(v);
  for (std::size_t j = 0; j < nb.size(); ++j) {
    if (active_->contains(nb[j])) out.send_nth(static_cast<int>(j), color, bits);
  }
}

void LinialProgram::init(NodeId v, Outbox& out) {
  if (schedule_.steps.empty() || !active_->contains(v)) return;
  send_color(v, static_cast<std::uint64_t>(coloring_[v]), schedule_.steps[0].color_bits,
             out);
}

void LinialProgram::on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) {
  if (!active_->contains(v)) return;
  const LinialStep& st = schedule_.steps[round - 1];
  const std::int64_t q = st.q;
  const int degree = st.poly_degree;
  const std::int64_t my_color = coloring_[v];

  // Gather neighbor colors into per-thread scratch: no steady-state
  // allocation, and the alpha scan below matches linial_step exactly
  // (result is independent of gather order).
  static thread_local std::vector<std::int64_t> nb_colors;
  nb_colors.clear();
  in.for_each(
      [&](NodeId, std::uint64_t payload) { nb_colors.push_back(static_cast<std::int64_t>(payload)); });

  const std::int64_t next = linial_pick_next_color(my_color, nb_colors, q, degree);
  // Neighbors only ever see coloring_[v] through messages, so updating in
  // place is race-free under the phase barrier.
  coloring_[v] = next;
  if (round < static_cast<std::int64_t>(schedule_.steps.size())) {
    send_color(v, static_cast<std::uint64_t>(next), schedule_.steps[round].color_bits, out);
  }
}

LinialResult linial_coloring(ParallelEngine& eng, const InducedSubgraph& active,
                             const std::vector<std::int64_t>* initial,
                             std::int64_t initial_colors) {
  const Graph& g = eng.graph();
  std::vector<std::int64_t> coloring;
  std::int64_t k = 0;
  if (initial != nullptr) {
    coloring = *initial;
    k = initial_colors;
  } else {
    coloring.resize(g.num_nodes());
    std::iota(coloring.begin(), coloring.end(), 0);
    k = g.num_nodes();
  }
  LinialProgram prog(active, std::move(coloring), k);
  eng.run(prog);
  LinialResult res;
  res.coloring = std::move(prog.coloring());
  res.num_colors = prog.schedule().final_colors;
  res.iterations = static_cast<int>(prog.schedule().steps.size());
  return res;
}

}  // namespace dcolor::runtime
