#include "net/sync_engine.h"

#include <algorithm>
#include <cmath>

#include "adversary/adversary.h"

namespace fba::sim {

namespace {

// Same-round delivery classes (EventQueue pri). Messages before timers; a
// rushing adversary's corrupt-origin traffic before correct traffic.
constexpr std::uint32_t kPriCorruptSend = 0;
constexpr std::uint32_t kPriSend = 1;
constexpr std::uint32_t kPriTimer = 2;

}  // namespace

SyncEngine::SyncEngine(const SyncConfig& config)
    : EngineBase(config.n, config.seed),
      config_(config),
      queue_(EventQueue::Mode::kBuckets) {}

void SyncEngine::reset(const SyncConfig& config) {
  reset_base(config.n, config.seed);
  config_ = config;
  current_round_ = 0;
  queue_.clear();
  beyond_horizon_ = 0;
  burst_source_ = nullptr;
  round_progress_ = nullptr;
}

void SyncEngine::queue_envelope(const Envelope& env, RecoveryTag rec) {
  // Sent during round r, delivered during round r+1 — plus any whole rounds
  // of fault-layer jitter. Horizon culling: a message that could only be
  // delivered after the last executable round is charged but not queued.
  const auto extra = env.fault_delay > 0
                         ? static_cast<Round>(std::ceil(env.fault_delay))
                         : Round{0};
  const Round at = current_round_ + 1 + extra;
  if (at > config_.max_rounds) {
    ++beyond_horizon_;
    return;
  }
  // The delivery class is decided at send time: a runtime corruption
  // (corrupt_now) upgrades only the victim's *future* sends — messages it
  // sent while still correct keep the correct-traffic lane.
  const bool rushed = config_.rushing_adversary && corrupt_[env.src];
  queue_.push_message(static_cast<SimTime>(at),
                      rushed ? kPriCorruptSend : kPriSend, env, rec);
}

void SyncEngine::queue_recovery_timer(double delay, std::uint64_t token) {
  const auto rounds = static_cast<Round>(std::max(1.0, std::ceil(delay)));
  const Round at = current_round_ + rounds;
  if (at > config_.max_rounds) {
    ++beyond_horizon_;
    return;
  }
  queue_.push_timer(static_cast<SimTime>(at), kPriTimer, kRecoveryTimerNode,
                    token);
}

void SyncEngine::queue_burst(const Envelope& env) {
  FBA_ASSERT(burst_source_ != nullptr, "queue_burst without a burst source");
  // Bursts carry no fault-layer jitter (they are only used fault-free), so
  // delivery is plain next-round. Same horizon cull as queue_envelope: the
  // caller already charged the expanded sends, and one suppressed descriptor
  // is enough to keep the quiescence stop honest.
  const Round at = current_round_ + 1;
  if (at > config_.max_rounds) {
    ++beyond_horizon_;
    return;
  }
  const bool rushed = config_.rushing_adversary && corrupt_[env.src];
  queue_.push_burst(static_cast<SimTime>(at),
                    rushed ? kPriCorruptSend : kPriSend, env);
}

void SyncEngine::queue_timer(NodeId node, double delay, std::uint64_t token) {
  const auto rounds = static_cast<Round>(std::max(1.0, std::ceil(delay)));
  const Round at = current_round_ + rounds;
  if (at > config_.max_rounds) {  // could only fire after the horizon
    ++beyond_horizon_;
    return;
  }
  queue_.push_timer(static_cast<SimTime>(at), kPriTimer, node, token);
}

SyncResult SyncEngine::run(const std::function<bool()>& done) {
  SyncResult result;

  strategy_setup();
  // Round 0: every correct node's initial step.
  const bool rushing = config_.rushing_adversary;
  auto adversary_turn = [&](Round round) {
    if (strategy_ != nullptr) {
      adv::AdvContext actx(*this);
      strategy_->on_round(actx, round, rushing);
    }
  };

  if (!rushing) adversary_turn(0);
  for (NodeId id = 0; id < n_; ++id) start_actor(id);
  if (rushing) adversary_turn(0);

  while (current_round_ < config_.max_rounds) {
    if (done()) {
      result.completed = true;
      break;
    }
    // Culled beyond-horizon events suppress the quiescence stop: an engine
    // that queued them would keep its round clock running to max_rounds.
    if (queue_.empty() && beyond_horizon_ == 0 &&
        current_round_ >= config_.min_rounds) {
      result.quiescent = true;
      break;
    }
    ++current_round_;

    if (!rushing) adversary_turn(current_round_);
    // Drain the whole round in place: corrupt-origin sends, correct sends,
    // then due timers, each class in FIFO order. Burst descriptors are
    // re-expanded at delivery time.
    auto dispatch = [&](const EventQueue::Event& ev) {
      if (ev.is_timer) {
        // The sentinel check must come before fire_timer: the recovery
        // sublayer's timer node indexes no actor or corrupt-set entry.
        if (ev.timer_node == kRecoveryTimerNode) {
          on_recovery_timeout(ev.timer_token);
        } else {
          fire_timer(ev.timer_node, ev.timer_token);
        }
      } else if (ev.is_burst) {
        burst_source_->expand(ev.env, *this);
      } else {
        deliver(ev.env, ev.rec());
      }
    };
    queue_.drain_due(static_cast<SimTime>(current_round_), dispatch);
    for (NodeId id = 0; id < n_; ++id) {
      if (corrupt_[id]) continue;
      Context ctx(*this, id, now(), node_rng(id));
      actors_[id]->on_round(ctx, current_round_);
    }
    if (rushing) adversary_turn(current_round_);
    if (round_progress_) round_progress_(current_round_, queue_.size());
  }

  if (!result.completed && done()) result.completed = true;
  result.rounds = current_round_;
  return result;
}

}  // namespace fba::sim
