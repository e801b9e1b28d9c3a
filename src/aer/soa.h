// SoaAerState: the AER actor (Section 3.1, Algorithms 1-3) for every
// correct node of a run at once, in structure-of-arrays layout.
//
// Push phase (3.1.1): on start, a node diffuses its initial candidate s_x
// to the d nodes x' with x in I(s_x, x'). A received Push(s) from y counts
// toward the quorum I(s, x) only if y occupies a slot of it; when more than
// half of the slots have pushed s, s joins the candidate list L_x and a
// pull is started for it. Nodes never react to pushes by sending, so the
// phase is impervious to flooding.
//
// Pull phase (3.1.2): to verify candidate s, x sends Poll(s, r) to its poll
// list J(x, r) (r fresh per candidate) and Pull(s, r) to its Pull Quorum
// H(s, x). Quorum members route the request in two majority-filtered hops
// (Fw1 via H(s, w), then Fw2 to w); poll-list members answer subject to the
// log^2 n budget, deferring excess work until they have decided. Deciding
// takes answers from a majority of the poll list.
//
// State layout, one dense array (or shared open-addressed table) per field:
//
//   - scalar per-node fields (initial / current / decided candidate,
//     decision flag, candidate-list length, deferred-answer peak) are flat
//     arrays indexed by NodeId;
//   - the per-string tallies (push tallies, my-pulls, answer counts, L_x
//     membership) live in ONE shared FlatMap64 each, keyed by the packed
//     (node, string) pair — a single table sized to the run instead of n
//     minimum-capacity tables;
//   - credited-sender spans come from one shared bump arena (d entries per
//     tally: a tally credits at most d distinct quorum members);
//   - the three ORDER-CRITICAL retained maps (pending pulls, Fw1 tallies,
//     responder state) are per-node std::unordered_maps: serve_retained()
//     iterates them to emit messages, so their libstdc++ iteration order is
//     part of the behavior the golden fingerprints pin. It depends only on
//     the insertion and bucket-growth history, so reset() rebuilds each map
//     empty (a cleared map would keep its grown bucket array). The maps draw
//     nodes and buckets from one support::Pool, so a warm trial allocates
//     nothing.
//
// One SoaAerState object is the single sim::Actor registered for every
// correct node (handlers key off ctx.self()), and the sim::BurstSource that
// re-expands Fw1 burst descriptors (see EventQueue::push_burst): instead of
// queueing the d^2 copies of each forwarded request, forward_pull charges
// their traffic at send time and queues one descriptor; the engine calls
// expand() at delivery time, which enumerates the same (w, h) pairs in the
// same order.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <unordered_map>
#include <vector>

#include "aer/runner.h"
#include "support/flat_map.h"
#include "support/mem.h"
#include "support/pool.h"

namespace fba::aer {

class SoaAerState final : public sim::Actor, public sim::BurstSource {
 public:
  SoaAerState() = default;

  /// Re-initializes for a fresh trial and registers this object as the
  /// actor of every correct node of `engine` (whose corrupt set must
  /// already be installed). Dense storage and the retained maps' pool are
  /// reused across trials; a reset state behaves exactly like a new one.
  void reset(const AerShared* shared, const std::vector<StringId>& initial,
             sim::EngineBase& engine);

  /// Enables Fw1 burst descriptors. Only legal on the synchronous engines
  /// with no adversary strategy, no fault plan and no recovery plan
  /// installed (the burst path bypasses the per-send observe/fault/recovery
  /// taps, which must therefore be no-ops). `engine` must outlive the run
  /// and have this object installed as its burst source.
  void enable_bursts(sim::SyncEngine* engine) { burst_engine_ = engine; }

  // ----- sim::Actor (one object serves every correct node) -----------------
  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, const sim::Envelope& env) override;

  // ----- sim::BurstSource ---------------------------------------------------
  void expand(const sim::Envelope& burst, sim::SyncEngine& engine) override;

  // ----- post-run introspection (read by the harness / tests) ---------------
  bool has_decided(NodeId id) const { return has_decided_[id] != 0; }
  StringId decided_value(NodeId id) const { return decided_[id]; }
  std::size_t candidate_list_size(NodeId id) const {
    return candidate_count_[id];
  }
  bool has_candidate(NodeId id, StringId s) const {
    return in_list_.contains(pack_ns(id, s));
  }
  std::size_t deferred_peak(NodeId id) const { return deferred_peak_[id]; }
  std::size_t answers_sent(NodeId id, StringId s) const {
    const std::uint32_t* count = answer_counts_.find(pack_ns(id, s));
    return count == nullptr ? 0 : *count;
  }

  /// Charges this state's memory to `mem` (support/mem.h rules: logical
  /// sizes and capacity-as-a-function-of-count only, so warm reuse reports
  /// the same bytes as a cold run).
  void charge_mem(support::MemBudget& mem) const;

 private:
  // -- handlers, one per message kind; `self` is ctx.self() ----------------
  void handle_push(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_poll(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_pull(sim::Context& ctx, NodeId self, NodeId from,
                   const sim::Message& m);
  void handle_fw1(sim::Context& ctx, NodeId self, NodeId from,
                  const sim::Message& m);
  void handle_fw2(sim::Context& ctx, NodeId self, NodeId from,
                  const sim::Message& m);
  void handle_answer(sim::Context& ctx, NodeId self, NodeId from,
                     const sim::Message& m);

  void accept_candidate(sim::Context& ctx, NodeId self, StringId s);
  void start_pull(sim::Context& ctx, NodeId self, StringId s);
  void emit_answer(sim::Context& ctx, NodeId self, NodeId x, StringId s);
  void decide(sim::Context& ctx, NodeId self, StringId s);
  bool over_budget(NodeId self, StringId s) const;
  void forward_pull(sim::Context& ctx, NodeId self, NodeId x, StringId s,
                    PollLabel r);
  void serve_retained(sim::Context& ctx, NodeId self);

  static std::uint64_t pack_ns(NodeId node, StringId s) {
    return (static_cast<std::uint64_t>(node) << 32) | s;
  }
  static std::uint64_t pack_xs(NodeId x, StringId s) {
    return (static_cast<std::uint64_t>(x) << 32) | s;
  }

  // -- credited-sender spans: fixed d-capacity slices of one shared arena --
  NodeId* counted_at(std::uint32_t off) { return counted_arena_.data() + off; }
  std::uint32_t new_counted_span();
  static bool already_counted(const NodeId* counted, std::uint32_t count,
                              NodeId who);

  const AerShared* shared_ = nullptr;
  std::size_t n_ = 0;
  std::uint32_t d_ = 0;
  sim::SyncEngine* burst_engine_ = nullptr;  ///< non-null => bursts on.

  // -- dense per-node scalars -----------------------------------------------
  std::vector<StringId> initial_;
  std::vector<StringId> current_;
  std::vector<StringId> decided_;
  std::vector<std::uint8_t> has_decided_;
  std::vector<std::uint32_t> candidate_count_;  ///< |L_x| (list not stored).
  std::vector<std::uint32_t> deferred_peak_;

  // -- shared lookup-only tables, keyed by packed (node, string) ------------
  struct PushTally {
    std::uint32_t slots = 0;
    std::uint32_t counted = 0;
    std::uint32_t counted_off = 0;
  };
  support::FlatMap64<PushTally> push_tallies_;
  support::FlatSet64 in_list_;

  struct MyPull {
    PollLabel r = 0;
    std::uint32_t slots = 0;
    std::uint32_t answered = 0;
    std::uint32_t answered_off = 0;
  };
  support::FlatMap64<MyPull> my_pulls_;
  mutable support::FlatMap64<std::uint32_t> answer_counts_;

  // -- per-node containers whose behavior depends on per-node history -------
  /// Flooding guard, keyed (x, s); lookup-only, so FlatSet64 is safe.
  std::vector<support::FlatSet64> forwarded_;

  struct Fw1Tally {
    PollLabel r = 0;
    std::uint32_t slots = 0;
    std::uint32_t counted = 0;
    std::uint32_t counted_off = 0;
    bool fired = false;
  };
  struct ResponderState {
    std::uint32_t slots = 0;
    std::uint32_t counted = 0;
    std::uint32_t counted_off = 0;
    bool polled = false;
    bool answered = false;
  };
  /// Memory pool behind the retained maps. Declared before them so it
  /// outlives their destructors.
  support::Pool pool_;
  /// ORDER-CRITICAL retained maps (see the file comment), all keyed (x, s):
  /// pull requests for strings a node does not (yet) believe in, served if
  /// it later decides on that string; Fw1 tallies per poll-list member w;
  /// responder state.
  template <typename K, typename V>
  using RetainedMap =
      std::unordered_map<K, V, std::hash<K>, std::equal_to<K>,
                         support::PoolAllocator<std::pair<const K, V>>>;
  using PendingMap = RetainedMap<std::uint64_t, PollLabel>;
  using Fw1Tallies = RetainedMap<std::uint64_t, RetainedMap<NodeId, Fw1Tally>>;
  using ResponderMap = RetainedMap<std::uint64_t, ResponderState>;
  std::vector<PendingMap> pending_pulls_;
  std::vector<Fw1Tallies> fw1_tallies_;
  std::vector<ResponderMap> responder_;

  /// Over-budget answers waiting for the node's decision.
  std::vector<std::vector<std::pair<NodeId, StringId>>> deferred_;

  std::vector<NodeId> counted_arena_;
  std::vector<NodeId> targets_scratch_;
};

/// Reusable run machinery for back-to-back trials: the engines and the
/// actor state. A warm arena executes a whole trial without heap
/// allocation, and a trial's result never depends on what the arena ran
/// before. The state sits in an optional so clear() can drop its pool.
struct SoaArena : EngineSlots {
  std::optional<SoaAerState> state;

  /// Discards every engine, table and pool: the next trial starts from
  /// nothing, like a first-ever trial.
  void clear() {
    sync.reset();
    async.reset();
    state.reset();
  }
};

struct SoaRunOptions {
  /// Invoked after every executed sync round with (round, events pending) —
  /// in-trial progress for runs where one trial takes minutes.
  std::function<void(Round, std::size_t)> round_progress;
};

/// Runs AER on a prebuilt world through `arena`. Fills every AerReport
/// section, the memory account (mem_bytes, mem_bytes_per_node) included.
/// Fw1 fan-outs travel as burst descriptors whenever that is invisible:
/// synchronous model, no adversary strategy, no fault or recovery plan.
AerReport run_aer_world_soa(AerWorld& world, SoaArena& arena,
                            const SoaRunOptions& opts = {},
                            const StrategyFactory& make_strategy = {});

}  // namespace fba::aer
