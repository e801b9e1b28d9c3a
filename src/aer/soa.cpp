#include "aer/soa.h"

#include <algorithm>
#include <type_traits>

#include "aer/messages.h"

namespace fba::aer {

// The send loops iterate each quorum's precomputed first-seen-order distinct
// member list (duplicate slots get one message; thresholds still count
// slots) straight out of the dense sampler tables.

void SoaAerState::reset(const AerShared* shared,
                        const std::vector<StringId>& initial,
                        sim::EngineBase& engine) {
  shared_ = shared;
  n_ = shared->config.n;
  d_ = static_cast<std::uint32_t>(shared->config.resolved_d());
  burst_engine_ = nullptr;

  initial_.assign(initial.begin(), initial.end());
  current_ = initial_;
  decided_.assign(n_, kNoString);
  has_decided_.assign(n_, 0);
  candidate_count_.assign(n_, 0);
  deferred_peak_.assign(n_, 0);

  push_tallies_.clear();
  in_list_.clear();
  my_pulls_.clear();
  answer_counts_.clear();

  if (forwarded_.size() < n_) {
    forwarded_.resize(n_);
    deferred_.resize(n_);
    retained_.resize(n_);
  }
  // Every slot, not just the first n_: a later, larger trial reuses them.
  for (std::size_t id = 0; id < forwarded_.size(); ++id) {
    forwarded_[id].clear();
    deferred_[id].clear();
    Retained& kept = retained_[id];
    kept.pending_index.clear();
    kept.group_index.clear();
    kept.responder_index.clear();
    kept.pending = kept.groups = kept.responders = Chain{};
  }
  pending_pulls_.clear();
  fw1_groups_.clear();
  fw1_tallies_.clear();
  responders_.clear();
  fw1_tally_index_.clear();
  h_w_memo_ = h_x_memo_ = j_memo_ = RowMemo{};

  counted_arena_.clear();

  for (NodeId id = 0; id < n_; ++id) {
    if (engine.is_corrupt(id)) continue;
    engine.set_actor(id, static_cast<sim::Actor*>(this));
    // L_x starts as {s_x}.
    candidate_count_[id] = 1;
    in_list_.insert(pack_ns(id, initial_[id]));
  }
}

std::uint32_t SoaAerState::new_counted_span() {
  const auto off = static_cast<std::uint32_t>(counted_arena_.size());
  counted_arena_.resize(counted_arena_.size() + d_);
  return off;
}

bool SoaAerState::already_counted(const NodeId* counted, std::uint32_t count,
                                  NodeId who) {
  for (std::uint32_t i = 0; i < count; ++i) {
    if (counted[i] == who) return true;
  }
  return false;
}

template <typename Record>
std::uint32_t SoaAerState::append(std::vector<Record>& records, Chain& chain,
                                  decltype(Record::key) key) {
  const auto id = static_cast<std::uint32_t>(records.size());
  records.emplace_back();
  records.back().key = key;
  if (chain.tail == kNoRecord) {
    chain.head = id;
  } else {
    records[chain.tail].next = id;
  }
  chain.tail = id;
  return id;
}

SoaAerState::ResponderState& SoaAerState::responder(NodeId self,
                                                    std::uint64_t key) {
  Retained& kept = retained_[self];
  bool created = false;
  std::uint32_t& id = kept.responder_index.get_or_create(key, created);
  if (created) {
    id = append(responders_, kept.responders, key);
    responders_[id].counted_off = new_counted_span();
  }
  return responders_[id];
}

bool SoaAerState::over_budget(NodeId self, StringId s) const {
  return answers_sent(self, s) > shared_->config.resolved_answer_budget();
}

void SoaAerState::on_start(sim::Context& ctx) {
  const NodeId self = ctx.self();
  shared_->push_targets(initial_[self], self, targets_scratch_);
  for (NodeId target : targets_scratch_) {
    ctx.send(target, push_msg(initial_[self]));
  }
  start_pull(ctx, self, initial_[self]);
}

void SoaAerState::on_message(sim::Context& ctx, const sim::Envelope& env) {
  const NodeId self = ctx.self();
  switch (env.msg.kind) {
    case sim::MessageKind::kPush:
      handle_push(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kPoll:
      handle_poll(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kPull:
      handle_pull(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kFw1:
      handle_fw1(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kFw2:
      handle_fw2(ctx, self, env.src, env.msg);
      break;
    case sim::MessageKind::kAnswer:
      handle_answer(ctx, self, env.src, env.msg);
      break;
    default:
      break;  // other protocols' kinds (adversarial garbage) are ignored
  }
}

// ----- push phase ----------------------------------------------------------

void SoaAerState::handle_push(sim::Context& ctx, NodeId self, NodeId from,
                              const sim::Message& m) {
  if (in_list_.contains(pack_ns(self, m.s))) return;  // already a candidate
  const sampler::QuorumView quorum = shared_->push_quorum(m.s, self);
  const std::size_t mult = quorum.multiplicity(from);
  if (mult == 0) return;  // not in our Push Quorum for s: ignore silently
  bool created = false;
  PushTally& tally = push_tallies_.get_or_create(pack_ns(self, m.s), created);
  if (created) tally.counted_off = new_counted_span();
  NodeId* counted = counted_at(tally.counted_off);
  if (already_counted(counted, tally.counted, from)) return;
  counted[tally.counted++] = from;
  tally.slots += static_cast<std::uint32_t>(mult);
  if (tally.slots * 2 > quorum.size()) {
    accept_candidate(ctx, self, m.s);
  }
}

void SoaAerState::accept_candidate(sim::Context& ctx, NodeId self,
                                   StringId s) {
  if (!in_list_.insert(pack_ns(self, s))) return;
  ++candidate_count_[self];
  if (!has_decided_[self]) start_pull(ctx, self, s);
}

// ----- pull phase: requester (Algorithm 1) ---------------------------------

void SoaAerState::start_pull(sim::Context& ctx, NodeId self, StringId s) {
  if (my_pulls_.contains(pack_ns(self, s))) return;
  bool created = false;
  MyPull& pull = my_pulls_.get_or_create(pack_ns(self, s), created);
  pull.answered_off = new_counted_span();
  pull.r = shared_->samplers.poll.random_label(ctx.rng());

  const sim::Message poll = poll_msg(s, pull.r);
  const sampler::QuorumView poll_view = shared_->poll_list(self, pull.r);
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    ctx.send(poll_view.distinct[i], poll);
  }
  const sim::Message pull_req = pull_msg(s, pull.r);
  const sampler::QuorumView h = shared_->pull_quorum(s, self);
  for (std::uint32_t i = 0; i < h.distinct_count; ++i) {
    ctx.send(h.distinct[i], pull_req);
  }
}

void SoaAerState::handle_answer(sim::Context& ctx, NodeId self, NodeId from,
                                const sim::Message& m) {
  if (has_decided_[self]) return;
  MyPull* pull = my_pulls_.find(pack_ns(self, m.s));
  if (pull == nullptr) return;  // never asked about s
  const sampler::QuorumView poll_list = shared_->poll_list(self, pull->r);
  const std::size_t mult = poll_list.multiplicity(from);
  if (mult == 0) return;  // answer from outside J(x, r_{x,s})
  NodeId* answered = counted_at(pull->answered_off);
  if (already_counted(answered, pull->answered, from)) return;
  answered[pull->answered++] = from;
  pull->slots += static_cast<std::uint32_t>(mult);
  if (pull->slots * 2 > poll_list.size()) decide(ctx, self, m.s);
}

void SoaAerState::decide(sim::Context& ctx, NodeId self, StringId s) {
  if (has_decided_[self]) return;
  has_decided_[self] = 1;
  decided_[self] = s;
  current_[self] = s;
  ctx.decide(s);
  std::vector<std::pair<NodeId, StringId>>& dq = deferred_[self];
  for (std::size_t i = 0; i < dq.size(); ++i) {
    const auto [x, str] = dq[i];
    if (str == current_[self]) emit_answer(ctx, self, x, str);
  }
  dq.clear();
  serve_retained(ctx, self);
}

namespace {

/// Visits the records of a first-insertion-order chain in the order the
/// std::unordered_map<K, ...> they replace would iterate their keys
/// (support::OrderReplay). Chains end at ~0u (SoaAerState::kNoRecord).
/// `visit` gets record indexes: it may not append to `records`.
template <typename K, typename Record, typename Visit>
void visit_in_map_order(support::Pool& pool,
                        const std::vector<Record>& records,
                        std::uint32_t head, Visit&& visit) {
  support::OrderReplay<K> order(&pool);
  for (std::uint32_t i = head; i != ~0u; i = records[i].next) {
    order.add(records[i].key, i);
  }
  order.for_each(visit);
}

}  // namespace

void SoaAerState::serve_retained(sim::Context& ctx, NodeId self) {
  const Retained& kept = retained_[self];
  visit_in_map_order<std::uint64_t>(
      pool_, pending_pulls_, kept.pending.head, [&](std::uint32_t i) {
        const PendingPull& p = pending_pulls_[i];
        const StringId s = static_cast<StringId>(p.key & 0xffffffffu);
        const NodeId x = static_cast<NodeId>(p.key >> 32);
        if (s == current_[self]) forward_pull(ctx, self, x, s, p.r);
      });

  visit_in_map_order<std::uint64_t>(
      pool_, fw1_groups_, kept.groups.head, [&](std::uint32_t g) {
        const std::uint64_t key = fw1_groups_[g].key;
        const StringId s = static_cast<StringId>(key & 0xffffffffu);
        if (s != current_[self]) return;
        const NodeId x = static_cast<NodeId>(key >> 32);
        const sampler::QuorumView h_x = shared_->pull_quorum(s, x);
        visit_in_map_order<NodeId>(
            pool_, fw1_tallies_, fw1_groups_[g].tallies.head,
            [&](std::uint32_t t) {
              Fw1Tally& tally = fw1_tallies_[t];
              if (!tally.fired && tally.slots * 2 > h_x.size()) {
                tally.fired = true;
                ctx.send(tally.key, fw2_msg(x, s, tally.r));
              }
            });
      });

  const sampler::QuorumView h_self =
      shared_->pull_quorum(current_[self], self);
  visit_in_map_order<std::uint64_t>(
      pool_, responders_, kept.responders.head, [&](std::uint32_t i) {
        ResponderState& st = responders_[i];
        const StringId s = static_cast<StringId>(st.key & 0xffffffffu);
        if (s != current_[self]) return;
        const NodeId x = static_cast<NodeId>(st.key >> 32);
        if (!st.answered && st.polled && st.slots * 2 > h_self.size()) {
          st.answered = true;
          emit_answer(ctx, self, x, s);
        }
      });
}

// ----- pull phase: forwarder, first hop (Algorithm 2) -----------------------

void SoaAerState::handle_pull(sim::Context& ctx, NodeId self, NodeId from,
                              const sim::Message& m) {
  if (!shared_->pull_quorum(m.s, from).contains(self)) return;
  if (m.s != current_[self]) {
    if (!has_decided_[self]) {
      Retained& kept = retained_[self];
      bool created = false;
      const std::uint64_t key = pack_xs(from, m.s);
      std::uint32_t& id = kept.pending_index.get_or_create(key, created);
      if (created) {
        id = append(pending_pulls_, kept.pending, key);
        pending_pulls_[id].r = m.r;
      }
    }
    return;
  }
  forward_pull(ctx, self, from, m.s, m.r);
}

void SoaAerState::forward_pull(sim::Context& ctx, NodeId self, NodeId x,
                               StringId s, PollLabel r) {
  if (!forwarded_[self].insert(pack_xs(x, s))) return;
  const sampler::QuorumView poll_view = shared_->poll_list(x, r);
  if (burst_engine_ != nullptr) {
    // Burst path: charge every expanded send now — send_from charges before
    // queueing (and before horizon culling) too, so the books match the
    // per-send path exactly — then queue one descriptor in place of the d^2
    // envelopes; expand() re-enumerates the same (w, h) pairs at delivery.
    // An Fw1's wire size does not depend on its b field (fixed-width node
    // id), so one size fits the whole fan-out.
    const sim::Wire& wire = shared_->wire();
    const sim::Message proto = fw1_msg(x, s, r, 0);
    const std::size_t bits =
        sim::message_bit_size(proto, wire) + wire.header_bits();
    TrafficMetrics& metrics = burst_engine_->metrics();
    for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
      const sampler::QuorumView h_w =
          shared_->pull_quorum(s, poll_view.distinct[i]);
      for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
        metrics.on_message(self, h_w.distinct[j], bits,
                           sim::MessageKind::kFw1);
      }
    }
    sim::Envelope env;
    env.src = self;
    env.msg = proto;
    env.send_time = burst_engine_->now();
    burst_engine_->queue_burst(env);
    return;
  }
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    const NodeId w = poll_view.distinct[i];
    const sim::Message fw1 = fw1_msg(x, s, r, w);
    const sampler::QuorumView h_w = shared_->pull_quorum(s, w);
    for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
      ctx.send(h_w.distinct[j], fw1);
    }
  }
}

void SoaAerState::expand(const sim::Envelope& burst, sim::SyncEngine& engine) {
  // The template message carries a = x, s and r; b (the poll-list member w)
  // is filled in per expanded copy, exactly as forward_pull's send loop
  // would have built it.
  const sim::Message& t = burst.msg;
  const sampler::QuorumView poll_view = shared_->poll_list(t.a, t.r);
  sim::Envelope env;
  env.src = burst.src;
  env.send_time = burst.send_time;
  for (std::uint32_t i = 0; i < poll_view.distinct_count; ++i) {
    const NodeId w = poll_view.distinct[i];
    env.msg = fw1_msg(t.a, t.s, t.r, w);
    const sampler::QuorumView h_w = shared_->pull_quorum(t.s, w);
    for (std::uint32_t j = 0; j < h_w.distinct_count; ++j) {
      env.dst = h_w.distinct[j];
      engine.deliver_expanded(env);
    }
  }
}

// ----- pull phase: relay, second hop (Algorithm 2) ---------------------------

void SoaAerState::handle_fw1(sim::Context& ctx, NodeId self, NodeId from,
                             const sim::Message& m) {
  // A burst delivers d^2 relays of one request back to back, so the
  // memoized rows hit for d (H(s, w)) or d^2 (H(s, x), J(x, r)) deliveries.
  const sampler::QuorumView& h_w = h_w_memo_.get(
      pack_ns(m.b, m.s), 0, [&] { return shared_->pull_quorum(m.s, m.b); });
  if (!h_w.contains(self)) return;  // this in H(s, w)
  const sampler::QuorumView& h_x = h_x_memo_.get(
      pack_ns(m.a, m.s), 0, [&] { return shared_->pull_quorum(m.s, m.a); });
  const std::size_t mult = h_x.multiplicity(from);
  if (mult == 0) return;  // y in H(s, x)
  const sampler::QuorumView& j_x =
      j_memo_.get(m.a, m.r, [&] { return shared_->poll_list(m.a, m.r); });
  if (!j_x.contains(m.b)) return;  // w in J(x, r)

  Retained& kept = retained_[self];
  bool created = false;
  const std::uint64_t xs = pack_xs(m.a, m.s);
  std::uint32_t& group_slot = kept.group_index.get_or_create(xs, created);
  if (created) group_slot = append(fw1_groups_, kept.groups, xs);
  const std::uint32_t group = group_slot;
  std::uint32_t& tally_slot = fw1_tally_index_.get_or_create(
      (static_cast<std::uint64_t>(group) << 32) | m.b, created);
  if (created) {
    tally_slot = append(fw1_tallies_, fw1_groups_[group].tallies, m.b);
    fw1_tallies_[tally_slot].counted_off = new_counted_span();
  }
  Fw1Tally& tally = fw1_tallies_[tally_slot];
  NodeId* counted = counted_at(tally.counted_off);
  if (tally.fired || already_counted(counted, tally.counted, from)) return;
  if (tally.counted == 0) tally.r = m.r;
  counted[tally.counted++] = from;
  tally.slots += static_cast<std::uint32_t>(mult);
  if (m.s == current_[self] && tally.slots * 2 > h_x.size()) {
    tally.fired = true;  // forward only once
    ctx.send(m.b, fw2_msg(m.a, m.s, m.r));
  }
}

// ----- pull phase: responder (Algorithm 3) -----------------------------------

void SoaAerState::handle_fw2(sim::Context& ctx, NodeId self, NodeId from,
                             const sim::Message& m) {
  if (!shared_->poll_list(m.a, m.r).contains(self)) return;  // in J(x,r)
  const sampler::QuorumView h_self = shared_->pull_quorum(m.s, self);
  const std::size_t mult = h_self.multiplicity(from);
  if (mult == 0) return;  // z in H(s, this)

  ResponderState& st = responder(self, pack_xs(m.a, m.s));
  NodeId* counted = counted_at(st.counted_off);
  if (st.answered || already_counted(counted, st.counted, from)) return;
  counted[st.counted++] = from;
  st.slots += static_cast<std::uint32_t>(mult);
  if (m.s == current_[self] && st.slots * 2 > h_self.size() && st.polled) {
    st.answered = true;
    emit_answer(ctx, self, m.a, m.s);
  }
}

void SoaAerState::handle_poll(sim::Context& ctx, NodeId self, NodeId from,
                              const sim::Message& m) {
  if (!shared_->poll_list(from, m.r).contains(self)) return;
  ResponderState& st = responder(self, pack_xs(from, m.s));
  if (st.polled) return;
  st.polled = true;
  const sampler::QuorumView h_self = shared_->pull_quorum(m.s, self);
  if (m.s == current_[self] && !st.answered && st.slots * 2 > h_self.size()) {
    st.answered = true;
    emit_answer(ctx, self, from, m.s);
  }
}

void SoaAerState::emit_answer(sim::Context& ctx, NodeId self, NodeId x,
                              StringId s) {
  if (!has_decided_[self] && over_budget(self, s)) {
    if (shared_->config.defer_answers) {
      deferred_[self].emplace_back(x, s);
      deferred_peak_[self] = std::max(
          deferred_peak_[self],
          static_cast<std::uint32_t>(deferred_[self].size()));
    }
    return;
  }
  ++answer_counts_.get_or_create(pack_ns(self, s));
  ctx.send(x, answer_msg(s));
}

// ----- memory accounting -----------------------------------------------------

namespace {

std::uint64_t flat_bytes(std::size_t entries, std::size_t value_size) {
  return support::flat_table_slots(entries) *
         (sizeof(std::uint64_t) + value_size);
}

}  // namespace

void SoaAerState::charge_mem(support::MemBudget& mem) const {
  mem.charge_vector(initial_);
  mem.charge_vector(current_);
  mem.charge_vector(decided_);
  mem.charge_vector(has_decided_);
  mem.charge_vector(candidate_count_);
  mem.charge_vector(deferred_peak_);
  mem.charge_vector(counted_arena_);
  mem.charge_vector(targets_scratch_);

  mem.charge(flat_bytes(push_tallies_.size(), sizeof(PushTally)));
  mem.charge(flat_bytes(in_list_.size(), 1));
  mem.charge(flat_bytes(my_pulls_.size(), sizeof(MyPull)));
  mem.charge(flat_bytes(answer_counts_.size(), sizeof(std::uint32_t)));

  mem.charge_vector(pending_pulls_);
  mem.charge_vector(fw1_groups_);
  mem.charge_vector(fw1_tallies_);
  mem.charge_vector(responders_);
  mem.charge(flat_bytes(fw1_tally_index_.size(), sizeof(std::uint32_t)));

  // Per-node container headers (charged at n_, not at the vectors' possibly
  // larger warm capacity, so cold and warm runs report identical bytes).
  mem.charge(static_cast<std::uint64_t>(n_) *
             (sizeof(support::FlatSet64) + sizeof(Retained) +
              sizeof(deferred_[0])));
  for (std::size_t id = 0; id < n_; ++id) {
    const Retained& kept = retained_[id];
    mem.charge(flat_bytes(forwarded_[id].size(), 1));
    mem.charge(flat_bytes(kept.pending_index.size(), sizeof(std::uint32_t)));
    mem.charge(flat_bytes(kept.group_index.size(), sizeof(std::uint32_t)));
    mem.charge(
        flat_bytes(kept.responder_index.size(), sizeof(std::uint32_t)));
    mem.charge(static_cast<std::uint64_t>(deferred_peak_[id]) *
               sizeof(std::pair<NodeId, StringId>));
  }
}

// ----- runner ----------------------------------------------------------------

namespace {

/// AER-specific report sections (candidate lists, deferred-answer peaks).
/// Walks world.correct, so nodes flipped by a runtime corruption drop out.
void fill_aer_specific(AerReport& report, const AerWorld& world,
                       const SoaAerState& state) {
  const AerShared& shared = *world.shared;
  for (NodeId id : world.correct) {
    report.sum_candidate_lists += state.candidate_list_size(id);
    report.max_candidate_list =
        std::max(report.max_candidate_list, state.candidate_list_size(id));
    if (!state.has_candidate(id, shared.gstring)) {
      ++report.nodes_missing_gstring;
    }
    report.max_deferred_answers =
        std::max(report.max_deferred_answers, state.deferred_peak(id));
  }
}

/// Trial-wide memory account shared by both engine flavors: the SoA state,
/// the event core's high-water mark, the metrics arrays, the dense sampler
/// tables and the interned strings. All terms are logical sizes or
/// capacity-rules over counts (support/mem.h), never allocator state.
void charge_trial_mem(support::MemBudget& mem, const AerWorld& world,
                      const SoaAerState& state, std::size_t queue_peak) {
  const AerShared& shared = *world.shared;
  const std::size_t n = shared.config.n;
  const std::size_t d = shared.config.resolved_d();

  state.charge_mem(mem);
  mem.charge(static_cast<std::uint64_t>(queue_peak) *
             sizeof(sim::EventQueue::Event));
  // TrafficMetrics: sent bits / received bits / sent messages per node.
  mem.charge(static_cast<std::uint64_t>(n) * 3 * sizeof(std::uint64_t));
  // Dense sampler rows (sampler/tables.cpp layout): quorum rows hold a
  // distinct-count header plus three d-sized regions; poll rows prepend a
  // 4-entry identity header. Each built row also owns one probe-index
  // entry, and each activated string slab caches its d slot permutations.
  const std::uint64_t quorum_row = (1 + 3 * d) * sizeof(NodeId);
  mem.charge(shared.tables.push.rows_built() * quorum_row);
  mem.charge(shared.tables.pull.rows_built() * quorum_row);
  mem.charge(shared.tables.poll.rows_built() *
             (quorum_row + 4 * sizeof(NodeId)));
  mem.charge(flat_bytes(shared.tables.push.rows_built(),
                        sizeof(std::uint32_t)));
  mem.charge(flat_bytes(shared.tables.pull.rows_built(),
                        sizeof(std::uint32_t)));
  mem.charge(flat_bytes(shared.tables.poll.rows_built(),
                        sizeof(std::uint32_t)));
  const std::uint64_t slab_bytes =
      64 + d * sizeof(FeistelPermutation);
  mem.charge(shared.tables.push.slab_count() * slab_bytes);
  mem.charge(shared.tables.pull.slab_count() * slab_bytes);
  // Interned strings: payload bits plus the table's per-entry bookkeeping
  // (digest, length, chain link).
  for (StringId id = 0; id < shared.table.size(); ++id) {
    mem.charge((shared.table.bits(id) + 7) / 8 + 16);
  }
  mem.charge_vector(world.view.initial);
}

}  // namespace

AerReport run_aer_world_soa(AerWorld& world, SoaArena& arena,
                            const SoaRunOptions& opts,
                            const StrategyFactory& make_strategy) {
  if (!arena.state.has_value()) arena.state.emplace();
  SoaAerState& state = *arena.state;
  const AerConfig& config = world.shared->config;
  const auto install = [&](auto& engine, const adv::Strategy* strategy) {
    state.reset(world.shared.get(), world.view.initial, engine);
    if constexpr (std::is_same_v<std::decay_t<decltype(engine)>,
                                 sim::SyncEngine>) {
      // Bursts skip the per-send observe/fault/recovery taps, so they are
      // only legal when all of them are no-ops.
      if (strategy == nullptr && config.fault_plan.empty() &&
          config.recovery_plan.empty()) {
        engine.set_burst_source(&state);
        state.enable_bursts(&engine);
      }
      if (opts.round_progress) engine.set_round_progress(opts.round_progress);
    }
  };
  const auto harvest = [&](AerReport& report, const auto& engine) {
    fill_aer_specific(report, world, state);
    support::MemBudget mem;
    charge_trial_mem(mem, world, state, engine.queue_peak());
    report.mem_bytes = mem.total_bytes();
    report.mem_bytes_per_node = mem.bytes_per_node(config.n);
  };
  return run_world(world, arena, make_strategy, install, harvest);
}

}  // namespace fba::aer
