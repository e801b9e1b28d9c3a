// Tests for the reliable-channel recovery sublayer (net/recovery.h):
// RecoveryState slot/timer/ack unit semantics, engine-level ARQ behavior on
// both engines (exactly-once delivery over lossy links, the zero-counter
// contract with the layer off or the link clean), determinism of recovered
// runs, and the Grid recovery axis.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "fba.h"

namespace fba {
namespace {

using sim::FaultPlan;
using sim::RecoveryPlan;
using sim::RecoveryState;
using sim::RecoveryTag;

// ----- RecoveryState unit tests ----------------------------------------------

RecoveryPlan tight_plan() {
  RecoveryPlan plan;
  plan.enabled = true;
  plan.rto_initial = 0;  // auto: the engine floor
  plan.backoff = 2.0;
  plan.rto_cap = 8.0;
  plan.max_retries = 3;
  return plan;
}

sim::Envelope ping_env(NodeId src, NodeId dst) {
  sim::Envelope env;
  env.src = src;
  env.dst = dst;
  env.msg.kind = sim::MessageKind::kPing;
  return env;
}

TEST(RecoveryStateTest, TrackAckLifecycleFreesSlotAndRejectsStaleAcks) {
  RecoveryState state;
  state.configure(tight_plan(), /*n=*/4, /*rto_floor=*/2.0);
  const RecoveryTag tag = state.track(ping_env(0, 1), 1.0);
  EXPECT_TRUE(tag.tracked());
  EXPECT_EQ(state.live_slots(), 1u);
  EXPECT_EQ(state.envelope_of(tag).dst, 1u);

  // The timer token round-trips the tag through the sentinel timer event.
  const std::uint64_t token = RecoveryState::timer_token(tag);
  const RecoveryTag back = RecoveryState::tag_of_token(token);
  EXPECT_EQ(back.slot1, tag.slot1);
  EXPECT_EQ(back.gen, tag.gen);

  EXPECT_TRUE(state.on_ack(tag, 3.0));
  EXPECT_EQ(state.live_slots(), 0u);
  EXPECT_FALSE(state.on_ack(tag, 3.5));  // duplicate ack is stale
  // The still-armed retransmit timer cancels lazily on firing.
  EXPECT_EQ(state.on_timeout(tag), RecoveryState::TimeoutAction::kStale);
}

TEST(RecoveryStateTest, TimeoutBacksOffToTheCapThenDies) {
  RecoveryState state;
  state.configure(tight_plan(), 4, /*rto_floor=*/2.0);
  const RecoveryTag tag = state.track(ping_env(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(state.current_rto(tag), 2.0);  // auto RTO = the floor

  EXPECT_EQ(state.on_timeout(tag), RecoveryState::TimeoutAction::kRetry);
  EXPECT_DOUBLE_EQ(state.current_rto(tag), 4.0);
  EXPECT_EQ(state.on_timeout(tag), RecoveryState::TimeoutAction::kRetry);
  EXPECT_DOUBLE_EQ(state.current_rto(tag), 8.0);
  EXPECT_EQ(state.on_timeout(tag), RecoveryState::TimeoutAction::kRetry);
  EXPECT_DOUBLE_EQ(state.current_rto(tag), 8.0);  // the cap binds

  // The retry budget (3) is spent: the next timeout declares it dead and
  // frees the slot; later timer fires and acks are stale.
  EXPECT_EQ(state.on_timeout(tag), RecoveryState::TimeoutAction::kDead);
  EXPECT_EQ(state.live_slots(), 0u);
  EXPECT_EQ(state.on_timeout(tag), RecoveryState::TimeoutAction::kStale);
  EXPECT_FALSE(state.on_ack(tag, 99.0));
}

TEST(RecoveryStateTest, FirstAttemptAcksFeedSmoothedRtoKarnExcludesRetries) {
  RecoveryPlan plan = tight_plan();
  plan.rto_cap = 64.0;
  plan.srtt_gain = 0.125;
  plan.srtt_mult = 1.5;
  RecoveryState state;
  state.configure(plan, 4, /*rto_floor=*/2.0);

  // First unambiguous round trip: 4.0 time units. srtt = 4, so new sends
  // start at clamp(4 * 1.5, 2, 64) = 6.
  const RecoveryTag a = state.track(ping_env(0, 1), 0.0);
  EXPECT_TRUE(state.on_ack(a, 4.0));
  const RecoveryTag b = state.track(ping_env(0, 1), 10.0);
  EXPECT_DOUBLE_EQ(state.current_rto(b), 6.0);

  // Karn's rule: a retransmitted send's ack cannot be attributed to one
  // attempt, so its (huge) apparent round trip never feeds the estimator.
  EXPECT_EQ(state.on_timeout(b), RecoveryState::TimeoutAction::kRetry);
  EXPECT_TRUE(state.on_ack(b, 40.0));
  const RecoveryTag c = state.track(ping_env(0, 1), 50.0);
  EXPECT_DOUBLE_EQ(state.current_rto(c), 6.0);
}

TEST(RecoveryStateTest, ReceiverDedupDeliversOncePerGeneration) {
  RecoveryState state;
  state.configure(tight_plan(), 4, 2.0);
  const RecoveryTag tag = state.track(ping_env(0, 1), 0.0);
  EXPECT_TRUE(state.should_deliver(tag));
  EXPECT_FALSE(state.should_deliver(tag));  // retransmitted duplicate

  // Freeing and reusing the slot issues a newer generation: the reused
  // slot delivers exactly once again.
  EXPECT_TRUE(state.on_ack(tag, 1.0));
  const RecoveryTag reused = state.track(ping_env(0, 1), 2.0);
  EXPECT_EQ(reused.slot1, tag.slot1);  // LIFO free list reuses the slot
  EXPECT_NE(reused.gen, tag.gen);
  EXPECT_TRUE(state.should_deliver(reused));
  EXPECT_FALSE(state.should_deliver(reused));
}

// configure() resets only the slots the last run handed out; a reused
// state must still hand out exactly the tags a fresh one does — slot order
// (released slots LIFO, then never-used ones in index order, growth past
// the pre-sized pool included) and generations alike.
TEST(RecoveryStateTest, ReconfiguredStateHandsOutTagsLikeAFreshOne) {
  const auto run = [](RecoveryState& state) {
    state.configure(tight_plan(), /*n=*/4, /*rto_floor=*/2.0);
    std::vector<RecoveryTag> tags;
    for (int i = 0; i < 100; ++i) {  // past the 64 pre-sized slots
      tags.push_back(state.track(ping_env(0, 1), i));
      EXPECT_TRUE(state.should_deliver(tags.back()));
      if (i % 3 == 0) {
        EXPECT_TRUE(state.on_ack(tags[i / 2], i + 0.5));
      }
    }
    return tags;
  };
  RecoveryState reused;
  const std::vector<RecoveryTag> first = run(reused);
  const std::vector<RecoveryTag> again = run(reused);
  RecoveryState fresh;
  const std::vector<RecoveryTag> expected = run(fresh);
  ASSERT_EQ(first.size(), expected.size());
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(first[i].slot1, expected[i].slot1) << i;
    EXPECT_EQ(first[i].gen, expected[i].gen) << i;
    EXPECT_EQ(again[i].slot1, expected[i].slot1) << i;
    EXPECT_EQ(again[i].gen, expected[i].gen) << i;
  }
}

TEST(RecoveryStateTest, ExplicitRtoIsClampedToTheEngineFloor) {
  RecoveryPlan plan = tight_plan();
  plan.rto_initial = 0.25;  // sub-floor: would retransmit in-flight acks
  RecoveryState state;
  state.configure(plan, 4, /*rto_floor=*/2.5);
  const RecoveryTag tag = state.track(ping_env(0, 1), 0.0);
  EXPECT_DOUBLE_EQ(state.current_rto(tag), 2.5);

  // Reconfiguring for a fresh run restarts slot assignment and gens so
  // reruns are deterministic (pool capacity is kept, contents are not).
  state.configure(plan, 4, 2.5);
  EXPECT_EQ(state.live_slots(), 0u);
  const RecoveryTag again = state.track(ping_env(0, 1), 0.0);
  EXPECT_EQ(again.slot1, tag.slot1);
  EXPECT_EQ(again.gen, tag.gen);
}

// ----- engine integration ----------------------------------------------------

sim::Wire flat_wire() {
  sim::Wire w;
  w.node_id_bits = 8;
  w.label_bits = 16;
  w.fixed_string_bits = 32;
  return w;
}

/// Sends `count` pings to node 1 at start.
class BurstActor final : public sim::Actor {
 public:
  explicit BurstActor(int count) : count_(count) {}
  void on_start(sim::Context& ctx) override {
    for (int i = 0; i < count_; ++i) ctx.send(1, ping_env(0, 1).msg);
  }
  void on_message(sim::Context&, const sim::Envelope&) override {}

 private:
  int count_;
};

class CountingActor final : public sim::Actor {
 public:
  void on_start(sim::Context&) override {}
  void on_message(sim::Context&, const sim::Envelope&) override {
    ++received;
  }
  int received = 0;
};

TEST(RecoveryEngineTest, LossyLinkEventuallyDeliversExactlyOnceOnBothEngines) {
  FaultPlan loss;
  loss.loss = 0.40;  // data AND acks both face the fault layer
  const RecoveryPlan rec = exp::recovery_plan_factory("arq-fast");
  const sim::Wire wire = flat_wire();

  sim::SyncConfig scfg;
  scfg.n = 2;
  scfg.seed = 11;
  scfg.max_rounds = 400;
  sim::SyncEngine sync_engine(scfg);
  sync_engine.set_wire(&wire);
  sync_engine.set_fault_plan(&loss);
  sync_engine.set_recovery_plan(&rec);
  sync_engine.set_actor(0, std::make_unique<BurstActor>(20));
  auto* sync_sink = new CountingActor();
  sync_engine.set_actor(1, std::unique_ptr<sim::Actor>(sync_sink));
  sync_engine.run([] { return false; });
  // Exactly once: every ping arrives despite 40% loss, duplicates from
  // ack-loss retransmit races are suppressed at the receiver.
  EXPECT_EQ(sync_sink->received, 20);
  EXPECT_GT(sync_engine.metrics().recovery_retransmit_messages(), 0u);
  EXPECT_EQ(sync_engine.metrics().recovery_acked_messages(), 20u);
  EXPECT_EQ(sync_engine.metrics().recovery_dead_messages(), 0u);
  EXPECT_GT(sync_engine.metrics().fault_dropped_messages(), 0u);
  // Retransmissions and acks are charged on the wire: more messages than
  // the 20 the actor sent.
  EXPECT_GT(sync_engine.metrics().total_messages(), 40u);

  sim::AsyncConfig acfg;
  acfg.n = 2;
  acfg.seed = 11;
  acfg.max_time = 400.0;
  sim::AsyncEngine async_engine(acfg);
  async_engine.set_wire(&wire);
  async_engine.set_fault_plan(&loss);
  async_engine.set_recovery_plan(&rec);
  async_engine.set_actor(0, std::make_unique<BurstActor>(20));
  auto* async_sink = new CountingActor();
  async_engine.set_actor(1, std::unique_ptr<sim::Actor>(async_sink));
  async_engine.run([] { return false; });
  EXPECT_EQ(async_sink->received, 20);
  EXPECT_GT(async_engine.metrics().recovery_retransmit_messages(), 0u);
  EXPECT_EQ(async_engine.metrics().recovery_acked_messages(), 20u);
  EXPECT_EQ(async_engine.metrics().recovery_dead_messages(), 0u);
}

TEST(RecoveryEngineTest, CleanLinkNeverRetransmits) {
  // With recovery on and no faults, every ack lands before the RTO floor
  // can fire: zero retransmits, zero deaths, zero duplicates — the
  // measured overhead of the layer on a reliable channel is acks only.
  const RecoveryPlan rec = exp::recovery_plan_factory("arq-fast");
  const sim::Wire wire = flat_wire();
  sim::SyncConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  cfg.max_rounds = 100;
  sim::SyncEngine engine(cfg);
  engine.set_wire(&wire);
  engine.set_recovery_plan(&rec);
  engine.set_actor(0, std::make_unique<BurstActor>(10));
  auto* sink = new CountingActor();
  engine.set_actor(1, std::unique_ptr<sim::Actor>(sink));
  engine.run([] { return false; });
  EXPECT_EQ(sink->received, 10);
  EXPECT_EQ(engine.metrics().recovery_retransmit_messages(), 0u);
  EXPECT_EQ(engine.metrics().recovery_dead_messages(), 0u);
  EXPECT_EQ(engine.metrics().recovery_duplicate_messages(), 0u);
  EXPECT_EQ(engine.metrics().recovery_acked_messages(), 10u);
  // 10 data sends + 10 acks on the books.
  EXPECT_EQ(engine.metrics().total_messages(), 20u);
}

TEST(RecoveryEngineTest, CountersStayZeroWithTheLayerOff) {
  // Recovery off + a lossy link: the layer must be fully inert — no acks,
  // no tracked sends, every recovery counter zero.
  FaultPlan loss;
  loss.loss = 0.40;
  const sim::Wire wire = flat_wire();
  sim::SyncConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  cfg.max_rounds = 100;
  sim::SyncEngine engine(cfg);
  engine.set_wire(&wire);
  engine.set_fault_plan(&loss);
  engine.set_actor(0, std::make_unique<BurstActor>(10));
  auto* sink = new CountingActor();
  engine.set_actor(1, std::unique_ptr<sim::Actor>(sink));
  engine.run([] { return false; });
  EXPECT_EQ(engine.recovery_state(), nullptr);
  EXPECT_EQ(engine.metrics().recovery_retransmit_messages(), 0u);
  EXPECT_EQ(engine.metrics().recovery_retransmit_bits(), 0u);
  EXPECT_EQ(engine.metrics().recovery_acked_messages(), 0u);
  EXPECT_EQ(engine.metrics().recovery_dead_messages(), 0u);
  EXPECT_EQ(engine.metrics().recovery_duplicate_messages(), 0u);
  EXPECT_EQ(engine.metrics().total_messages(), 10u);  // data only, no acks
}

// Identical (fault, recovery, seed, config) => identical run, on either
// engine: the recovery layer must not perturb determinism.
TEST(RecoveryEngineTest, RecoveredAerRunsAreReproducible) {
  for (const aer::Model model :
       {aer::Model::kSyncRushing, aer::Model::kAsync}) {
    aer::AerConfig cfg;
    cfg.n = 64;
    cfg.seed = 20260730;
    cfg.model = model;
    cfg.fault_plan = exp::fault_plan_factory("lossy-5pct");
    cfg.recovery_plan = exp::recovery_plan_factory("arq-fast");
    const aer::AerReport a = aer::run_aer(cfg);
    const aer::AerReport b = aer::run_aer(cfg);
    EXPECT_EQ(a.total_messages, b.total_messages) << aer::model_name(model);
    EXPECT_EQ(a.total_bits, b.total_bits) << aer::model_name(model);
    EXPECT_EQ(a.recovery_retransmit_msgs, b.recovery_retransmit_msgs)
        << aer::model_name(model);
    EXPECT_EQ(a.recovery_retransmit_bits, b.recovery_retransmit_bits)
        << aer::model_name(model);
    EXPECT_EQ(a.recovery_acked_msgs, b.recovery_acked_msgs)
        << aer::model_name(model);
    EXPECT_EQ(a.recovery_dup_msgs, b.recovery_dup_msgs)
        << aer::model_name(model);
    EXPECT_EQ(a.decided_count, b.decided_count) << aer::model_name(model);
    EXPECT_DOUBLE_EQ(a.completion_time, b.completion_time)
        << aer::model_name(model);
    EXPECT_GT(a.recovery_retransmit_msgs, 0u) << aer::model_name(model);
  }
}

// The headline contract: layering ARQ under the protocol restores the
// paper's reliable-channel assumption. Across pinned seeds at 5% loss the
// recovered runs agree at least as often as the raw ones, never decide
// wrong, and pay a measured retransmission overhead.
TEST(RecoveryEngineTest, RecoveryRestoresAgreementUnderLoss) {
  for (const aer::Model model :
       {aer::Model::kSyncRushing, aer::Model::kAsync}) {
    std::size_t raw_agreements = 0, recovered_agreements = 0;
    std::uint64_t total_retransmits = 0;
    for (std::uint64_t s = 0; s < 5; ++s) {
      aer::AerConfig cfg;
      cfg.n = 64;
      cfg.seed = exp::trial_seed(20130722, /*point_index=*/0, s);
      cfg.model = model;
      cfg.max_rounds = 60;
      cfg.max_time = 60.0;
      cfg.fault_plan = exp::fault_plan_factory("lossy-5pct");
      const aer::AerReport raw = aer::run_aer(cfg);
      cfg.recovery_plan = exp::recovery_plan_factory("arq-patient");
      const aer::AerReport recovered = aer::run_aer(cfg);

      // Safety on both sides: any decision is the common string.
      EXPECT_EQ(raw.decided_count, raw.decided_gstring);
      EXPECT_EQ(recovered.decided_count, recovered.decided_gstring);
      raw_agreements += raw.agreement ? 1 : 0;
      recovered_agreements += recovered.agreement ? 1 : 0;
      total_retransmits += recovered.recovery_retransmit_msgs;
    }
    // Almost every recovered run agrees (a fast run can still end before
    // the patient RTO rescues a late drop), and never fewer than raw.
    EXPECT_GE(recovered_agreements, 4u) << aer::model_name(model);
    EXPECT_GE(recovered_agreements, raw_agreements) << aer::model_name(model);
    EXPECT_GT(total_retransmits, 0u) << aer::model_name(model);
  }
}

// ----- scenario registry and grid axis ---------------------------------------

TEST(RecoveryScenarioTest, GridRecoveryAxisExpandsOutermost) {
  aer::AerConfig base;
  base.n = 64;
  exp::Grid grid;
  grid.strategies = {"none", "wrong"};
  grid.faults = {"none", "lossy-5pct"};
  grid.recoveries = {"off", "arq-fast"};
  EXPECT_EQ(grid.points(), 8u);
  const auto points = exp::expand_grid(base, grid);
  ASSERT_EQ(points.size(), 8u);
  EXPECT_EQ(points[0].recovery, "off");
  EXPECT_EQ(points[4].recovery, "arq-fast");  // recovery varies slowest
  EXPECT_EQ(points[4].fault, "none");
  EXPECT_EQ(points[4].strategy, "none");
  EXPECT_NE(points[4].label().find("recovery=arq-fast"), std::string::npos);
  // An unset recovery axis keeps labels identical to the pre-recovery
  // format — the committed goldens and baselines depend on that.
  const auto plain = exp::expand_grid(base, exp::Grid{});
  EXPECT_EQ(plain[0].label().find("recovery="), std::string::npos);
}

TEST(RecoveryScenarioTest, SweepRecoveryAxisEngagesTheLayerPerPoint) {
  aer::AerConfig base;
  base.n = 48;
  base.seed = 20130722;
  base.max_rounds = 60;
  base.max_time = 60.0;
  exp::Grid grid;
  grid.faults = {"lossy-5pct"};
  grid.recoveries = {"off", "arq-fast"};
  exp::Sweep sweep(base, grid, 2);
  const auto results = sweep.run();
  ASSERT_EQ(results.size(), 2u);
  // The off point keeps every recovery stat at zero; the arq point pays a
  // measured retransmission overhead in msgs and bits.
  EXPECT_EQ(results[0].aggregate.recovery_retransmit_msgs.mean, 0.0);
  EXPECT_EQ(results[0].aggregate.recovery_acked_msgs, 0.0);
  EXPECT_GT(results[1].aggregate.recovery_retransmit_msgs.mean, 0.0);
  EXPECT_GT(results[1].aggregate.recovery_retransmit_bits.mean, 0.0);
  EXPECT_GT(results[1].aggregate.recovery_acked_msgs, 0.0);
}

}  // namespace
}  // namespace fba
