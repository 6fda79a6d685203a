// Parallel deterministic executor for NodeProgram-form CONGEST algorithms.
//
// Where congest::Network is driven from the outside (the algorithm loops
// over nodes and calls send/advance_round), the ParallelEngine inverts
// control: it owns the round loop and calls the program's per-node hooks
// over a fixed thread pool. Inboxes are CSR-backed and double-buffered —
// one pre-sized slot per directed edge, each slot written only by its one
// sender — so a send is a lock-free write to the receiver's owned slot
// and delivery is a buffer swap (stamps make clearing unnecessary). A
// second, bitset-backed message plane carries 1-bit presence messages
// (Outbox::send_flag_nth): 64 directed edges per word, staged with one
// fetch_or, delivered by the same buffer swap — the fast path of 1-bit
// broadcast rounds, where inbox occupancy is the whole message.
//
// The engine enforces the same CONGEST contract as congest::Network
// (bandwidth ceiling, declared-bits-cover-payload, non-edge rejection,
// one message per directed edge per round — across both planes;
// violations throw congest::CongestViolation) and charges the same
// Metrics: for programs that follow the NodeProgram determinism contract,
// rounds, messages, bit totals and results are bit-identical at every
// thread count.
//
// The round loop is allocation-free in the steady state: phase dispatch
// reuses one pre-built std::function (no per-phase type erasure), the
// flag plane clears only the word ranges it dirtied, and phases whose
// dispatch width is at or below kSerialPhaseCutoff run inline on the
// coordinator as one ascending loop — the pool's chunks concatenated —
// skipping the pool wakeup entirely (tests/alloc_audit_test.cpp holds
// the loop to zero steady-state allocations).
#pragma once

#include <atomic>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/graph/graph.h"
#include "src/runtime/node_program.h"
#include "src/runtime/thread_pool.h"

namespace dcolor::runtime {

class ParallelEngine;

// Per-node send handle passed to NodeProgram hooks; valid only for the
// duration of the hook invocation it was handed to.
class Outbox {
 public:
  // Stage a message to neighbor `to` (O(log deg) edge validation, like
  // congest::Network::send). Throws CongestViolation on non-edges.
  void send(NodeId to, std::uint64_t payload, int bits);

  // Stage a message to this node's nth CSR neighbor — O(1), for senders
  // that already iterate their adjacency by index.
  void send_nth(int nth, std::uint64_t payload, int bits);

  // Stage the same message to every neighbor.
  void send_all(std::uint64_t payload, int bits);

  // Stage a 1-bit presence message to the nth CSR neighbor on the flag
  // plane: one fetch_or into the delivery bitset instead of a Slot
  // write. The receiver reads it as payload 1 (Inbox::has/empty/
  // for_each all see it); charging is identical to send_nth(nth, 1, 1).
  void send_flag_nth(int nth);

 private:
  friend class ParallelEngine;
  Outbox(ParallelEngine* eng, void* worker) : eng_(eng), worker_(worker) {}

  ParallelEngine* eng_;
  void* worker_;  // ParallelEngine::WorkerState of the executing worker
  NodeId self_ = 0;
};

class ParallelEngine {
 public:
  // Bandwidth convention matches congest::Network: 2*ceil(log2 n) + 16
  // when bandwidth_bits <= 0.
  explicit ParallelEngine(const Graph& g, int num_threads = 1, int bandwidth_bits = 0);

  const Graph& graph() const { return *g_; }
  int bandwidth_bits() const { return bandwidth_; }
  int num_threads() const { return pool_.num_threads(); }

  // The engine's fixed thread pool. Exposed so schedulers can dispatch
  // independent work (e.g. concurrent per-cluster engine runs of one
  // decomposition color class) over the same threads via
  // ThreadPool::run_tasks — never call it from inside a NodeProgram hook
  // (the pool is mid-dispatch there and would deadlock).
  ThreadPool& pool() { return pool_; }

  // Executes `program` to completion: an init phase, then deliver +
  // on_round phases until program.done(). Each phase charges one round.
  // If any node throws, the exception of the smallest-id throwing node is
  // rethrown after the phase barrier (deterministic across thread
  // counts). Sends staged in the phase after which done() fires have no
  // delivery round — that is a program bug and throws std::logic_error.
  // The engine is reusable: each run gets a fresh stamp space, so a
  // completed (or thrown) run cannot leak messages into the next one.
  // Returns the number of rounds this run charged.
  std::int64_t run(NodeProgram& program);

  // Charged idle rounds (pipelined chunks etc.), as Network::tick.
  void tick(std::int64_t rounds) { metrics_.rounds += rounds; }

  const congest::Metrics& metrics() const { return metrics_; }
  // Delivery epochs are monotonic and independent of the round counter,
  // so resetting metrics cannot alias stale inbox stamps.
  void reset_metrics() { metrics_ = congest::Metrics{}; }

  // Phases dispatching at most this many nodes run inline on the
  // coordinator instead of waking the pool, as one ascending loop over
  // the dispatch list: the pool's chunks are contiguous ascending ranges
  // of that list, so the loop is their concatenation and results and
  // Metrics cannot differ — only the condvar round-trip and the per-
  // worker chunk arithmetic disappear. Small tree-wave phases (a handful
  // of nodes, depth-many per aggregate) are the common case this serves.
  static constexpr std::size_t kSerialPhaseCutoff = 2048;

  // The cutoff actually in effect for this engine: kSerialPhaseCutoff
  // unless the DCOLOR_SERIAL_CUTOFF environment variable overrides it
  // (read at construction; integers in [0, 2^30] accepted, anything else
  // warned about on stderr and ignored). The override picks the dispatch
  // PATH, never the work: the serial loop is the pool's chunks
  // concatenated, and on a throw it skips to the end of the failing
  // node's pool chunk — exactly the nodes the pool would have run — so
  // results, Metrics and the rethrown exception are identical at any
  // cutoff, which is what lets the ROADMAP's auto-tuner sweep it without
  // rebuilds. Logged per run via the metric/engine.serial_cutoff probe.
  std::size_t serial_phase_cutoff() const { return serial_cutoff_; }

 private:
  friend class Outbox;

  struct WorkerState {
    congest::Metrics metrics;
    NodeId fail_node = -1;
    std::exception_ptr error;
    bool staged_slots = false;
    bool staged_flags = false;
    std::int64_t flag_lo = 0, flag_hi = 0;  // dirty flag-word range [lo, hi)
  };

  // One delivery buffer of the flag plane: (slots+63)/64 atomic words,
  // plus the word range dirtied since its last clear (so clearing is
  // O(words actually used), not O(slots/64) per round).
  struct FlagBuf {
    std::unique_ptr<std::atomic<std::uint64_t>[]> words;
    std::int64_t dirty_lo = 0, dirty_hi = 0;
    bool live = false;  // any flag staged for this delivery
  };

  Slot* staging() { return bufs_[cur_ ^ 1].data(); }
  const Slot* delivered() const { return bufs_[cur_].data(); }
  std::atomic<std::uint64_t>* staging_flags() { return flags_[cur_ ^ 1].words.get(); }

  void stage(NodeId from, int nth, std::uint64_t payload, int bits, WorkerState& ws);
  void stage_flag(NodeId from, int nth, WorkerState& ws);

  void clear_flag_buf(FlagBuf& b);

  static void reset_worker(WorkerState& w);
  // Folds one worker's phase state into the engine: Metrics, live-plane
  // flags and the flag dirty-range union (all order-insensitive).
  void merge_worker(const WorkerState& w);
  // Start of pool worker t's chunk of the dispatch list (t == T: its
  // end). Dense phases use the degree-weighted chunk_bounds_; rostered
  // phases split the ascending roster into equal contiguous ranges.
  // Either partition depends only on (graph, roster, T), never on
  // timing, so thread count cannot perturb anything.
  std::size_t chunk_begin(const Roster& roster, int t) const;
  // End of the pool chunk holding dispatch index i: the serial path's
  // resume point after a throw at i.
  std::size_t pool_chunk_end(const Roster& roster, std::size_t i) const;

  // per_node(NodeId, Outbox&); defined in .cpp. A non-dense roster
  // restricts the dispatch to the listed nodes (the program vouches that
  // all others are no-ops this phase, see NodeProgram::roster).
  template <typename F>
  void run_phase(const Roster& roster, F&& per_node);

  const Graph* g_;
  int bandwidth_;
  std::vector<std::int64_t> offset_;    // CSR offsets (degree prefix sums)
  std::vector<std::int64_t> rev_slot_;  // directed edge -> receiver's slot index
  std::vector<Slot> bufs_[2];
  FlagBuf flags_[2];
  bool slots_live_[2] = {false, false};  // any Slot staged into bufs_[b]
  int cur_ = 0;             // bufs_[cur_] = delivered, bufs_[cur_^1] = staging
  std::int64_t epoch_ = 0;  // deliveries so far (never reset)
  congest::Metrics metrics_;

  ThreadPool pool_;
  std::size_t serial_cutoff_ = kSerialPhaseCutoff;
  std::vector<NodeId> chunk_bounds_;  // degree-weighted static partition
  std::vector<WorkerState> workers_;

  // Steady-state-allocation-free dispatch: phase_job_ is built ONCE (it
  // captures only `this`, comfortably inside std::function's inline
  // storage) and forwarded to every pool run; the per-phase body is type-
  // erased through the raw trampoline pointer pair instead of a fresh
  // std::function per phase.
  void (*phase_body_)(void*, int) = nullptr;
  void* phase_ctx_ = nullptr;
  std::function<void(int)> phase_job_;
};

}  // namespace dcolor::runtime
