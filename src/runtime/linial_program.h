// Linial color reduction in NodeProgram form, executed by the
// ParallelEngine. The step schedule (dcolor::plan_linial: field size q,
// polynomial degree, message width per iteration) depends only on the
// initial palette and the active max degree, so it is planned up front
// and replayed exactly as the congest::Network implementation replays
// it: the adapter below
// produces bit-identical colorings and Metrics to
// dcolor::linial_coloring at every thread count.
#pragma once

#include <cstdint>
#include <vector>

#include "src/coloring/linial.h"
#include "src/runtime/parallel_engine.h"

namespace dcolor::runtime {

class LinialProgram final : public NodeProgram {
 public:
  // `coloring` is the initial coloring with values in [0, initial_colors).
  LinialProgram(const InducedSubgraph& active, std::vector<std::int64_t> coloring,
                std::int64_t initial_colors);

  void init(NodeId v, Outbox& out) override;
  void on_round(std::int64_t round, NodeId v, const Inbox& in, Outbox& out) override;
  bool done(std::int64_t rounds) override {
    return rounds == static_cast<std::int64_t>(schedule_.steps.size());
  }
  // The active members, every phase.
  Roster roster(std::int64_t round) override;

  const LinialSchedule& schedule() const { return schedule_; }
  std::vector<std::int64_t>& coloring() { return coloring_; }

 private:
  void send_color(NodeId v, std::uint64_t color, int bits, Outbox& out);

  const InducedSubgraph* active_;
  const Graph* g_;
  LinialSchedule schedule_;
  std::vector<std::int64_t> coloring_;
  std::vector<NodeId> members_;  // active nodes, ascending
};

// Drop-in parallel counterpart of dcolor::linial_coloring (same
// defaults, same results, same Metrics), executed on `eng`.
LinialResult linial_coloring(ParallelEngine& eng, const InducedSubgraph& active,
                             const std::vector<std::int64_t>* initial = nullptr,
                             std::int64_t initial_colors = 0);

}  // namespace dcolor::runtime
