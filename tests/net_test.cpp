// Tests for the simulated network: engine timing models, authenticated
// sends, bit accounting, adversary scheduling hooks, rushing semantics.
#include <gtest/gtest.h>

#include <memory>

#include "adversary/adversary.h"
#include "net/async_engine.h"
#include "net/sync_engine.h"

namespace fba::sim {
namespace {

// Minimal test fixtures: a ping message and simple actors.

Message ping_msg(std::uint32_t tag) {
  Message m;
  m.kind = MessageKind::kPing;  // 16 fixed payload bits (kind table)
  m.phase = tag;
  return m;
}

Wire test_wire() {
  Wire w;
  w.node_id_bits = 10;
  w.label_bits = 20;
  w.fixed_string_bits = 40;
  return w;
}

/// Sends one ping to a fixed destination at start, records deliveries.
class PingActor final : public Actor {
 public:
  PingActor(NodeId target, bool reply) : target_(target), reply_(reply) {}

  void on_start(Context& ctx) override { ctx.send(target_, ping_msg(1)); }
  void on_message(Context& ctx, const Envelope& env) override {
    deliveries.push_back(env);
    delivery_times.push_back(ctx.now());
    if (reply_ && env.src != ctx.self()) {
      ctx.send(env.src, ping_msg(2));
    }
  }

  std::vector<Envelope> deliveries;
  std::vector<double> delivery_times;

 private:
  NodeId target_;
  bool reply_;
};

class IdleActor final : public Actor {
 public:
  void on_start(Context&) override {}
  void on_message(Context&, const Envelope& env) override {
    received.push_back(env);
  }
  std::vector<Envelope> received;
};

TEST(SyncEngineTest, DeliversNextRound) {
  SyncConfig cfg;
  cfg.n = 4;
  cfg.seed = 1;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* a = new PingActor(1, false);
  auto* b = new IdleActor();
  engine.set_actor(0, std::unique_ptr<Actor>(a));
  engine.set_actor(1, std::unique_ptr<Actor>(b));
  engine.set_actor(2, std::make_unique<IdleActor>());
  engine.set_actor(3, std::make_unique<IdleActor>());

  const auto result = engine.run([&] { return !b->received.empty(); });
  EXPECT_TRUE(result.completed);
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_EQ(b->received[0].src, 0u);
  EXPECT_DOUBLE_EQ(b->received[0].send_time, 0.0);
  EXPECT_EQ(result.rounds, 1u);  // sent round 0, delivered round 1
}

TEST(SyncEngineTest, StopsWhenQuiescent) {
  SyncConfig cfg;
  cfg.n = 2;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_actor(0, std::make_unique<IdleActor>());
  engine.set_actor(1, std::make_unique<IdleActor>());
  const auto result = engine.run([] { return false; });
  EXPECT_TRUE(result.quiescent);
  EXPECT_EQ(result.rounds, 0u);
}

TEST(SyncEngineTest, PingPongAlternatesRounds) {
  SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 10;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* a = new PingActor(1, true);
  auto* b = new PingActor(0, true);
  engine.set_actor(0, std::unique_ptr<Actor>(a));
  engine.set_actor(1, std::unique_ptr<Actor>(b));
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(result.rounds, 10u);  // endless ping-pong hits the cap
  // Each actor delivered once per round.
  EXPECT_GE(a->deliveries.size(), 9u);
}

TEST(SyncEngineTest, MetricsChargeHeaderPlusPayload) {
  SyncConfig cfg;
  cfg.n = 2;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_actor(0, std::make_unique<PingActor>(1, false));
  engine.set_actor(1, std::make_unique<IdleActor>());
  engine.run([] { return false; });
  // 16 payload + (4 kind tag + 10 node id) header.
  EXPECT_EQ(engine.metrics().total_bits(), 30u);
  EXPECT_EQ(engine.metrics().total_messages(), 1u);
  EXPECT_EQ(engine.metrics().messages_of(MessageKind::kPing), 1u);
}

TEST(SyncEngineTest, RejectsOutOfRangeSend) {
  SyncConfig cfg;
  cfg.n = 2;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_actor(0, std::make_unique<PingActor>(5, false));  // bad target
  engine.set_actor(1, std::make_unique<IdleActor>());
  EXPECT_THROW(engine.run([] { return false; }), ConfigError);
}

TEST(AsyncEngineTest, DeliversWithinDelayBound) {
  AsyncConfig cfg;
  cfg.n = 3;
  cfg.seed = 2;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* b = new IdleActor();
  engine.set_actor(0, std::make_unique<PingActor>(1, false));
  engine.set_actor(1, std::unique_ptr<Actor>(b));
  engine.set_actor(2, std::make_unique<IdleActor>());
  const auto result = engine.run([] { return false; });
  EXPECT_TRUE(result.quiescent);
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_GT(result.time, 0.0);
  EXPECT_LE(result.time, 1.0);  // one message, delay in (0, 1]
}

TEST(AsyncEngineTest, TimeAdvancesMonotonically) {
  AsyncConfig cfg;
  cfg.n = 2;
  cfg.seed = 3;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* a = new PingActor(1, true);
  auto* b = new PingActor(0, true);
  engine.set_actor(0, std::unique_ptr<Actor>(a));
  engine.set_actor(1, std::unique_ptr<Actor>(b));
  std::size_t count = 0;
  engine.run([&] { return ++count > 50; });
  for (std::size_t i = 1; i < b->delivery_times.size(); ++i) {
    EXPECT_GE(b->delivery_times[i], b->delivery_times[i - 1]);
  }
}

// ----- adversary plumbing ------------------------------------------------------

/// Records observations; can send junk from corrupt nodes on a schedule.
class SpyStrategy final : public adv::Strategy {
 public:
  void on_observe(adv::AdvContext&, const Envelope& env) override {
    observed.push_back(env);
  }
  void on_deliver_to_corrupt(adv::AdvContext& ctx,
                             const Envelope& env) override {
    delivered_to_corrupt.push_back(env);
    if (reply_from_corrupt) {
      ctx.send_from(env.dst, env.src, ping_msg(99));
    }
  }
  void on_round(adv::AdvContext& ctx, Round round, bool rushing) override {
    round_calls.emplace_back(round, rushing);
    round_observed_counts.push_back(observed.size());
    (void)ctx;
  }

  std::vector<Envelope> observed;
  std::vector<Envelope> delivered_to_corrupt;
  std::vector<std::pair<Round, bool>> round_calls;
  std::vector<std::size_t> round_observed_counts;
  bool reply_from_corrupt = false;
};

TEST(AdversaryTest, ObservesEveryMessage) {
  SyncConfig cfg;
  cfg.n = 3;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  SpyStrategy spy;
  engine.set_strategy(&spy);
  engine.set_actor(0, std::make_unique<PingActor>(1, false));
  engine.set_actor(1, std::make_unique<PingActor>(2, false));
  engine.set_actor(2, std::make_unique<IdleActor>());
  engine.run([] { return false; });
  EXPECT_EQ(spy.observed.size(), 2u);
}

TEST(AdversaryTest, CorruptNodesRouteToStrategy) {
  SyncConfig cfg;
  cfg.n = 3;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  SpyStrategy spy;
  spy.reply_from_corrupt = true;
  engine.set_strategy(&spy);
  engine.set_corrupt({1});
  auto* a = new PingActor(1, false);
  engine.set_actor(0, std::unique_ptr<Actor>(a));
  // Corrupt node 1 needs no actor.
  engine.set_actor(2, std::make_unique<IdleActor>());
  engine.run([] { return false; });
  ASSERT_EQ(spy.delivered_to_corrupt.size(), 1u);
  EXPECT_EQ(spy.delivered_to_corrupt[0].src, 0u);
  // The corrupt reply reached node 0's actor.
  ASSERT_EQ(a->deliveries.size(), 1u);
  EXPECT_EQ(a->deliveries[0].src, 1u);
  const Message* ping = a->deliveries[0].msg.as(MessageKind::kPing);
  ASSERT_NE(ping, nullptr);
  EXPECT_EQ(ping->phase, 99u);
}

TEST(AdversaryTest, CannotForgeCorrectSender) {
  SyncConfig cfg;
  cfg.n = 3;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_corrupt({1});
  engine.set_actor(0, std::make_unique<IdleActor>());
  engine.set_actor(2, std::make_unique<IdleActor>());
  adv::AdvContext ctx(engine);
  EXPECT_THROW(ctx.send_from(0, 2, ping_msg(1)), ConfigError);
}

TEST(AdversaryTest, RushingOrderingSeesSameRoundTraffic) {
  // Rushing: when on_round(r) fires, the round-r sends of correct nodes have
  // already been observed. Non-rushing: they have not.
  for (const bool rushing : {true, false}) {
    SyncConfig cfg;
    cfg.n = 2;
    cfg.rushing_adversary = rushing;
    cfg.max_rounds = 3;
    SyncEngine engine(cfg);
    const Wire wire = test_wire();
    engine.set_wire(&wire);
    SpyStrategy spy;
    engine.set_strategy(&spy);
    engine.set_actor(0, std::make_unique<PingActor>(1, false));
    engine.set_actor(1, std::make_unique<IdleActor>());
    engine.run([] { return false; });
    ASSERT_FALSE(spy.round_calls.empty());
    EXPECT_EQ(spy.round_calls[0].second, rushing);
    // At the round-0 adversary turn, the start-of-round ping (1 message) is
    // visible iff rushing.
    EXPECT_EQ(spy.round_observed_counts[0], rushing ? 1u : 0u);
  }
}

/// Delay policy that stretches everything to the bound.
class MaxDelayStrategy final : public adv::Strategy {
 public:
  SimTime choose_delay(adv::AdvContext&, const Envelope&) override {
    return 1.0;
  }
};

TEST(AdversaryTest, AsyncDelayIsClampedToReliabilityBound) {
  AsyncConfig cfg;
  cfg.n = 2;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  MaxDelayStrategy delays;
  engine.set_strategy(&delays);
  auto* b = new IdleActor();
  engine.set_actor(0, std::make_unique<PingActor>(1, false));
  engine.set_actor(1, std::unique_ptr<Actor>(b));
  const auto result = engine.run([] { return false; });
  ASSERT_EQ(b->received.size(), 1u);
  EXPECT_DOUBLE_EQ(result.time, 1.0);
}

TEST(AdversaryTest, MaxCorruptRespectsBound) {
  EXPECT_EQ(adv::max_corrupt(100, 0.02), 31u);
  EXPECT_LT(adv::max_corrupt(3000), 1000u);
  // The paper's bound is STRICT (t < (1/3 - eps) n): when (1/3 - eps) n is
  // exactly integral, floor() lands on the bound itself, and the previous
  // implementation returned it. These products are FP-exact (1/3 - 1/12 =
  // 1/4 after rounding twice the same way), pinning the step-down fix.
  EXPECT_EQ(adv::max_corrupt(8, 1.0 / 3.0 - 0.25), 1u);   // bound = 2.0
  EXPECT_EQ(adv::max_corrupt(4, 1.0 / 3.0 - 0.25), 0u);   // bound = 1.0
  EXPECT_EQ(adv::max_corrupt(12, 1.0 / 3.0 - 0.25), 2u);  // bound = 3.0
  Rng rng(1);
  auto corrupt = adv::random_corruption(100, 31, rng);
  EXPECT_EQ(corrupt.size(), 31u);
  std::set<NodeId> uniq(corrupt.begin(), corrupt.end());
  EXPECT_EQ(uniq.size(), 31u);
}

// The runtime-corruption primitive itself: corrupt_now lands exactly once
// per still-correct node, refuses to overspend the budget, stamps the
// timeline, and silences the victim's actor from that instant on.
TEST(AdversaryTest, CorruptNowEnforcesBudgetAndSilencesVictim) {
  class FlipAtRound final : public adv::Strategy {
   public:
    void on_round(adv::AdvContext& ctx, Round round, bool) override {
      if (round != 3) return;
      landed = ctx.corrupt_now(1);              // budget 1: lands
      relanded = ctx.corrupt_now(1);            // already corrupt: refused
      overspent = ctx.corrupt_now(2);           // budget exhausted: refused
      out_of_range = ctx.corrupt_now(99);       // no such node: refused
      spent = ctx.corruptions_spent();
    }
    void on_deliver_to_corrupt(adv::AdvContext&,
                               const sim::Envelope&) override {
      ++rerouted;
    }
    bool landed = false, relanded = true, overspent = true,
         out_of_range = true;
    std::size_t spent = 0, rerouted = 0;
  };

  SyncConfig cfg;
  cfg.n = 3;
  cfg.seed = 1;
  cfg.max_rounds = 8;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  FlipAtRound strategy;
  engine.set_strategy(&strategy);
  engine.set_corruption_budget(1);
  // 0 and 1 ping-pong forever; 2 idles.
  auto* a = new PingActor(1, true);
  auto* b = new PingActor(0, true);
  engine.set_actor(0, std::unique_ptr<Actor>(a));
  engine.set_actor(1, std::unique_ptr<Actor>(b));
  engine.set_actor(2, std::make_unique<IdleActor>());
  engine.run([] { return false; });

  EXPECT_TRUE(strategy.landed);
  EXPECT_FALSE(strategy.relanded);
  EXPECT_FALSE(strategy.overspent);
  EXPECT_FALSE(strategy.out_of_range);
  EXPECT_EQ(strategy.spent, 1u);
  EXPECT_EQ(engine.corruptions_spent(), 1u);
  EXPECT_TRUE(engine.is_corrupt(1));
  EXPECT_FALSE(engine.is_corrupt(0));
  EXPECT_DOUBLE_EQ(engine.first_corruption_time(), engine.last_corruption_time());
  EXPECT_GT(engine.first_corruption_time(), 0.0);
  // Node 1's actor went silent at the flip: deliveries to it stop growing
  // (they reroute to the strategy instead), so node 0 stops hearing echoes.
  EXPECT_LT(b->deliveries.size(), 6u);
  EXPECT_GT(strategy.rerouted, 0u);
}

TEST(EngineTest, DecisionCallbackFires) {
  class Decider final : public Actor {
   public:
    void on_start(Context& ctx) override { ctx.decide(7); }
    void on_message(Context&, const Envelope&) override {}
  };
  SyncConfig cfg;
  cfg.n = 2;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_actor(0, std::make_unique<Decider>());
  engine.set_actor(1, std::make_unique<IdleActor>());
  std::vector<std::tuple<NodeId, StringId, double>> decisions;
  engine.set_decision_callback([&](NodeId n, StringId s, double t) {
    decisions.emplace_back(n, s, t);
  });
  engine.run([] { return true; });
  ASSERT_EQ(decisions.size(), 1u);
  EXPECT_EQ(std::get<0>(decisions[0]), 0u);
  EXPECT_EQ(std::get<1>(decisions[0]), 7u);
}

// ----- horizon culling edge cases -------------------------------------------
//
// Events landing exactly ON the horizon (at == max_rounds / max_time) must
// run; events strictly beyond it are charged-but-culled, and the culls
// suppress the quiescence stop so reported round/time counts match an
// engine that had kept them queued.

/// Schedules one timer with a fixed delay at start; counts fires.
class OneTimerActor final : public Actor {
 public:
  explicit OneTimerActor(double delay) : delay_(delay) {}
  void on_start(Context& ctx) override { ctx.schedule_timer(delay_, 7); }
  void on_message(Context&, const Envelope&) override {}
  void on_timer(Context&, std::uint64_t) override { ++fires; }
  int fires = 0;

 private:
  double delay_;
};

/// Sends one ping to node 1 during a chosen round's on_round step.
class RoundSenderActor final : public Actor {
 public:
  explicit RoundSenderActor(Round send_round) : send_round_(send_round) {}
  void on_start(Context&) override {}
  void on_message(Context&, const Envelope&) override {}
  void on_round(Context& ctx, Round round) override {
    if (round == send_round_) ctx.send(1, ping_msg(9));
  }

 private:
  Round send_round_;
};

TEST(HorizonTest, SyncTimerExactlyAtMaxRoundsFires) {
  SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 3;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* timer = new OneTimerActor(3.0);  // fires at round 3 == max_rounds
  engine.set_actor(0, std::unique_ptr<Actor>(timer));
  engine.set_actor(1, std::make_unique<IdleActor>());
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(timer->fires, 1);
  EXPECT_EQ(result.rounds, 3u);
}

TEST(HorizonTest, SyncTimerBeyondMaxRoundsIsCulledAndSuppressesQuiescence) {
  SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 3;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* timer = new OneTimerActor(4.0);  // could only fire at round 4
  engine.set_actor(0, std::unique_ptr<Actor>(timer));
  engine.set_actor(1, std::make_unique<IdleActor>());
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(timer->fires, 0);
  // An engine that had queued the timer would run its round clock out to
  // the horizon; the cull compensation must report the same.
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.rounds, 3u);
}

TEST(HorizonTest, SyncMessageDeliveredExactlyAtMaxRounds) {
  SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 3;
  cfg.min_rounds = 3;  // round-scheduled sender: no traffic until round 2
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  // Sent during round 2, delivered during round 3 == max_rounds.
  engine.set_actor(0, std::make_unique<RoundSenderActor>(2));
  auto* sink = new IdleActor();
  engine.set_actor(1, std::unique_ptr<Actor>(sink));
  engine.run([] { return false; });
  EXPECT_EQ(sink->received.size(), 1u);
}

TEST(HorizonTest, SyncSendDuringFinalRoundIsCulled) {
  SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 3;
  cfg.min_rounds = 3;  // keep the round clock running to the final round
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  // Sent during round 3 == max_rounds: delivery round 4 is past the horizon.
  engine.set_actor(0, std::make_unique<RoundSenderActor>(3));
  auto* sink = new IdleActor();
  engine.set_actor(1, std::unique_ptr<Actor>(sink));
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(sink->received.size(), 0u);
  // Charged, never delivered: the bits are on the books...
  EXPECT_EQ(engine.metrics().total_messages(), 1u);
  // ...and the cull suppresses the quiescence report.
  EXPECT_FALSE(result.quiescent);
}

// MaxDelayStrategy (defined above) also makes async delivery times exact,
// which the horizon tests below rely on.

TEST(HorizonTest, AsyncEventExactlyAtMaxTimeIsProcessed) {
  AsyncConfig cfg;
  cfg.n = 2;
  cfg.max_time = 1.0;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_actor(0, std::make_unique<PingActor>(1, false));
  auto* sink = new IdleActor();
  engine.set_actor(1, std::unique_ptr<Actor>(sink));
  MaxDelayStrategy strategy;
  engine.set_strategy(&strategy);
  const auto result = engine.run([] { return false; });
  // Delivery at exactly max_time still runs (cull is strictly-beyond).
  EXPECT_EQ(sink->received.size(), 1u);
  EXPECT_TRUE(result.quiescent);
  EXPECT_DOUBLE_EQ(result.time, 1.0);
}

TEST(HorizonTest, AsyncEventBeyondMaxTimeIsCulledAndSuppressesQuiescence) {
  AsyncConfig cfg;
  cfg.n = 2;
  cfg.max_time = 0.5;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_actor(0, std::make_unique<PingActor>(1, false));
  auto* sink = new IdleActor();
  engine.set_actor(1, std::unique_ptr<Actor>(sink));
  MaxDelayStrategy strategy;  // delivery would land at 1.0 > max_time
  engine.set_strategy(&strategy);
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(sink->received.size(), 0u);
  EXPECT_EQ(engine.metrics().total_messages(), 1u);  // charged anyway
  EXPECT_FALSE(result.quiescent);
  EXPECT_EQ(result.deliveries, 0u);
}

TEST(HorizonTest, AsyncTimerExactlyAtMaxTimeFires) {
  AsyncConfig cfg;
  cfg.n = 2;
  cfg.max_time = 2.0;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  auto* timer = new OneTimerActor(2.0);  // fires at exactly max_time
  engine.set_actor(0, std::unique_ptr<Actor>(timer));
  engine.set_actor(1, std::make_unique<IdleActor>());
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(timer->fires, 1);
  EXPECT_EQ(result.timer_fires, 1u);
  EXPECT_TRUE(result.quiescent);
}

// ---- fault windows ending exactly on the horizon ----------------------------
//
// Fault windows are [start, end) exclusive and drop decisions happen at
// SEND time. When the heal/up edge coincides with the run horizon, a send
// inside the window is still eaten even though its delivery would land at
// the healed edge instant — and a send at the edge instant itself passes
// the fault check (only to meet the horizon cull on delivery).

/// Sends one ping at start and a second from a timer at a chosen delay.
class TimerSenderActor final : public Actor {
 public:
  explicit TimerSenderActor(double delay) : delay_(delay) {}
  void on_start(Context& ctx) override {
    ctx.send(1, ping_msg(1));
    ctx.schedule_timer(delay_, 1);
  }
  void on_message(Context&, const Envelope&) override {}
  void on_timer(Context& ctx, std::uint64_t) override {
    ctx.send(1, ping_msg(2));
  }

 private:
  double delay_;
};

TEST(HorizonTest, SyncFaultWindowHealingAtHorizonDropsFinalRoundSend) {
  // n=2 with cut_fraction 0.5 puts one node on each side: the (0, 1) pair
  // is always cut while the window is active.
  FaultPlan plan;
  plan.partitions.push_back({.start = 0, .heal = 3, .cut_fraction = 0.5});
  SyncConfig cfg;
  cfg.n = 2;
  cfg.max_rounds = 3;
  cfg.min_rounds = 3;
  SyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_fault_plan(&plan);
  // Sent during round 2 (inside [0, 3)), delivery round 3 == heal ==
  // max_rounds: the drop is decided at send time, so it never arrives.
  engine.set_actor(0, std::make_unique<RoundSenderActor>(2));
  auto* sink = new IdleActor();
  engine.set_actor(1, std::unique_ptr<Actor>(sink));
  engine.run([] { return false; });
  EXPECT_EQ(sink->received.size(), 0u);
  EXPECT_EQ(engine.metrics().fault_dropped_messages(), 1u);
  EXPECT_EQ(engine.metrics().drops_of(FaultCause::kPartition), 1u);
}

TEST(HorizonTest, AsyncChurnUpAtMaxTimeIsExclusiveAtTheEdge) {
  // Every node is down for [0, 1): the start-time send drops as churn. The
  // timer fires at exactly up == max_time == 1.0, where the node is back
  // up ([down, up) exclusive): that send passes the fault check and is
  // charged, then culled by the horizon on delivery — never fault-dropped.
  FaultPlan plan;
  plan.churns.push_back({.down = 0, .up = 1.0, .fraction = 1.0});
  AsyncConfig cfg;
  cfg.n = 2;
  cfg.max_time = 1.0;
  AsyncEngine engine(cfg);
  const Wire wire = test_wire();
  engine.set_wire(&wire);
  engine.set_fault_plan(&plan);
  engine.set_actor(0, std::make_unique<TimerSenderActor>(1.0));
  auto* sink = new IdleActor();
  engine.set_actor(1, std::unique_ptr<Actor>(sink));
  const auto result = engine.run([] { return false; });
  EXPECT_EQ(sink->received.size(), 0u);
  EXPECT_EQ(result.deliveries, 0u);
  EXPECT_EQ(engine.metrics().total_messages(), 2u);  // both charged
  EXPECT_EQ(engine.metrics().fault_dropped_messages(), 1u);
  EXPECT_EQ(engine.metrics().drops_of(FaultCause::kChurn), 1u);
}

// ---- round-drain event core -------------------------------------------------

Envelope tagged_env(NodeId src, NodeId dst, std::uint32_t tag) {
  Envelope env;
  env.src = src;
  env.dst = dst;
  env.msg = ping_msg(tag);
  return env;
}

/// Fills a queue with an interleaved mix of messages and timers across
/// several ticks and priority lanes (same content for every call).
void fill_queue(EventQueue& q) {
  for (std::uint32_t tick = 1; tick <= 4; ++tick) {
    for (std::uint32_t i = 0; i < 5; ++i) {
      const std::uint32_t pri = (tick + i) % EventQueue::kNumPriorities;
      if (i == 3) {
        q.push_timer(tick, pri, /*node=*/i, /*token=*/tick * 100 + i);
      } else {
        q.push_message(tick, pri, tagged_env(i, i + 1, tick * 10 + i));
      }
    }
  }
}

std::string event_signature(const EventQueue::Event& ev) {
  std::string s = std::to_string(ev.at) + "/" + std::to_string(ev.pri) + "/" +
                  std::to_string(ev.seq);
  if (ev.is_timer) {
    s += "/timer:" + std::to_string(ev.timer_token);
  } else {
    s += "/msg:" + std::to_string(ev.env.msg.phase);
  }
  return s;
}

/// drain_due must visit exactly the events pop() returns, in the same
/// (at, pri, seq) order — in both storage modes.
void check_drain_matches_pop(EventQueue::Mode mode) {
  EventQueue popped(mode);
  EventQueue drained(mode);
  fill_queue(popped);
  fill_queue(drained);

  for (SimTime until = 1; until <= 4; ++until) {
    std::vector<std::string> pop_sigs, drain_sigs;
    while (!popped.empty() && popped.next_at() <= until) {
      pop_sigs.push_back(event_signature(popped.pop()));
    }
    drained.drain_due(until, [&](const EventQueue::Event& ev) {
      drain_sigs.push_back(event_signature(ev));
    });
    EXPECT_EQ(drain_sigs, pop_sigs) << "tick " << until;
    EXPECT_EQ(drained.size(), popped.size());
  }
  EXPECT_TRUE(popped.empty());
  EXPECT_TRUE(drained.empty());
}

TEST(EventQueueTest, DrainDueMatchesPopOrderInBucketMode) {
  check_drain_matches_pop(EventQueue::Mode::kBuckets);
}

TEST(EventQueueTest, DrainDueMatchesPopOrderInCalendarMode) {
  check_drain_matches_pop(EventQueue::Mode::kCalendar);
}

TEST(EventQueueTest, PeakSizeTracksHighWater) {
  EventQueue q(EventQueue::Mode::kBuckets);
  EXPECT_EQ(q.peak_size(), 0u);
  fill_queue(q);  // 20 events
  EXPECT_EQ(q.peak_size(), 20u);
  q.drain_due(4, [](const EventQueue::Event&) {});
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.peak_size(), 20u);  // high water survives the drain...
  q.clear();
  EXPECT_EQ(q.peak_size(), 0u);  // ...and resets with the queue.
}

}  // namespace
}  // namespace fba::sim
