// Reliable-channel recovery sublayer: per-link ack/retransmit under both
// engines' one shared send path (EngineBase::send_from).
//
// The paper (Section 2.1) assumes reliable authenticated channels; the
// fault layer (net/fault.h) breaks that assumption on purpose. This layer
// re-earns it at runtime and makes the cost measurable in the paper's own
// currency, bits/node: every recoverable send is tracked in a pooled slot,
// armed with a retransmit timer (engine timer machinery, not actor timers),
// and retransmitted — through the fault layer again, so a retransmission is
// just as exposed to loss/partition/churn as the original — until the
// receiving engine's ack lands or the bounded retry budget runs out, after
// which the send is declared dead and counted.
//
// Timeouts adapt: the initial RTO comes from the engine's delay model (the
// sync engines' fixed 2-round data+ack pipeline; the async engine's delay
// bound), acked first-attempt round trips feed a smoothed RTT estimate
// (retransmitted sends are never sampled — Karn's rule — since their acks
// cannot be attributed to one attempt), and each retry backs off
// exponentially up to a cap.
//
// Everything is engine-level transport: actors and adversary strategies
// never see acks or duplicate deliveries, and with the layer off (the
// default RecoveryPlan) every engine behaves bit-identically to a build
// without it.
#pragma once

#include <cstdint>
#include <vector>

#include "net/envelope.h"
#include "support/types.h"

namespace fba::sim {

/// Pure configuration of the recovery sublayer; carried by value in run
/// configs (aer::AerConfig) like FaultPlan. Default-constructed = off.
struct RecoveryPlan {
  bool enabled = false;

  /// Initial retransmission timeout. 0 = auto: the engine's RTO floor (the
  /// shortest interval that cannot fire before an in-flight ack under that
  /// engine's delay model). Explicit values are clamped to that floor too —
  /// a sub-floor RTO would retransmit messages whose acks are still in
  /// flight on a loss-free link.
  double rto_initial = 0;
  /// Upper bound on the backed-off RTO (rounds / time units).
  double rto_cap = 32.0;
  /// Multiplicative backoff per retry.
  double backoff = 2.0;
  /// Retransmissions allowed per send before it is declared dead.
  std::size_t max_retries = 8;

  /// Smoothed-RTT update gain (srtt += gain * (sample - srtt)).
  double srtt_gain = 0.125;
  /// Adaptive RTO = clamp(srtt * srtt_mult, floor, rto_cap).
  double srtt_mult = 1.5;

  bool empty() const { return !enabled; }
};

/// Runtime state of the recovery sublayer for one engine run: a flat pooled
/// slot table (no steady-state allocation — slots grow amortized and are
/// reused through a free list), the receiver-side dedup generations, and
/// the global smoothed-RTT estimate. Owned by EngineBase; all policy
/// decisions live here, all side effects (metrics, requeueing, timer
/// scheduling) stay in the engine.
class RecoveryState {
 public:
  /// (Re)initializes for a fresh run, keeping pool capacity (trial-arena
  /// reuse). `rto_floor` is the owning engine's delay-model floor.
  void configure(const RecoveryPlan& plan, std::size_t n, double rto_floor);

  /// Registers one recoverable send and returns its tag; the caller arms a
  /// retransmit timer for timer_token(tag) after current_rto(tag).
  RecoveryTag track(const Envelope& env, double now);

  /// The armed timer's token: engines stash it in a sentinel timer event
  /// (kRecoveryTimerNode) and hand it back to on_timer_token on firing.
  static std::uint64_t timer_token(RecoveryTag tag) {
    return (static_cast<std::uint64_t>(tag.slot1) << 16) | tag.gen;
  }
  static RecoveryTag tag_of_token(std::uint64_t token) {
    return RecoveryTag{static_cast<std::uint32_t>(token >> 16),
                       static_cast<std::uint16_t>(token & 0xffffu)};
  }

  /// Retransmit timer fired. kStale: the slot was acked (and possibly
  /// reused) since the timer was armed — ignore (lazy cancellation).
  /// kRetry: the slot's retry count and RTO were advanced; resend
  /// envelope_of(tag) and re-arm after current_rto(tag). kDead: the retry
  /// budget is exhausted; the slot was freed — count the loss.
  enum class TimeoutAction { kStale, kRetry, kDead };
  TimeoutAction on_timeout(RecoveryTag tag);

  /// An ack for `tag` reached the sender. Returns false for a stale ack
  /// (slot already freed or reused — a duplicate ack after a retransmit
  /// race). On success frees the slot and, for first-attempt sends, feeds
  /// the round trip into the smoothed RTO (Karn's rule).
  bool on_ack(RecoveryTag tag, double now);

  /// Receiver-side dedup: true exactly once per (slot, gen) — the first
  /// copy is delivered to the actor, retransmitted duplicates are
  /// suppressed (but still acked, since the previous ack may have been
  /// lost).
  bool should_deliver(RecoveryTag tag);

  /// The tracked envelope (valid while the slot is live — between track()
  /// and the freeing ack/death). send_time is rewritten to the retransmit
  /// time by note_resend.
  const Envelope& envelope_of(RecoveryTag tag) const;
  /// Stamps the retransmission's send time (the engine re-runs the fault
  /// and observe taps against this time).
  void note_resend(RecoveryTag tag, double now);

  /// The slot's current (backed-off) RTO.
  double current_rto(RecoveryTag tag) const;

  std::size_t live_slots() const { return live_; }
  const RecoveryPlan& plan() const { return plan_; }

 private:
  struct Slot {
    Envelope env;
    double sent_at = 0;  ///< first-attempt send time (RTT sampling).
    double rto = 0;
    std::uint32_t retries = 0;
    std::uint16_t gen = 0;  ///< persists across reuse; 0 never issued.
    bool live = false;
  };
  Slot& slot_of(RecoveryTag tag);
  const Slot& slot_of(RecoveryTag tag) const;
  void free_slot(std::uint32_t index);

  RecoveryPlan plan_;
  double rto_floor_ = 1.0;
  double rto_base_ = 1.0;  ///< adaptive initial RTO for new sends.
  double srtt_ = 0;        ///< 0 = no sample yet.

  std::vector<Slot> slots_;
  std::vector<std::uint32_t> free_;  ///< released slot indices (LIFO).
  /// Slots at or above this index have not been handed out since the last
  /// configure(), so configure() resets only the ones below it.
  std::uint32_t fresh_ = 0;
  /// Receiver dedup: last gen delivered per slot, compared with
  /// wrap-safe serial arithmetic (a slot cycles through gens as it is
  /// reused; a newer gen is a new send, an equal/older one a duplicate).
  std::vector<std::uint16_t> delivered_gen_;
  std::size_t live_ = 0;
};

}  // namespace fba::sim
