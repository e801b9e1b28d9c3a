#include "net/recovery.h"

#include <algorithm>

namespace fba::sim {

namespace {

/// Wrap-safe "g is strictly newer than ref" over the u16 generation ring.
bool gen_after(std::uint16_t g, std::uint16_t ref) {
  return static_cast<std::int16_t>(static_cast<std::uint16_t>(g - ref)) > 0;
}

}  // namespace

void RecoveryState::configure(const RecoveryPlan& plan, std::size_t n,
                              double rto_floor) {
  plan_ = plan;
  rto_floor_ = rto_floor;
  const double cap = std::max(plan_.rto_cap, rto_floor_);
  rto_base_ = plan_.rto_initial > 0
                  ? std::clamp(plan_.rto_initial, rto_floor_, cap)
                  : rto_floor_;
  srtt_ = 0;
  live_ = 0;
  // Keep pool capacity across trials. Gens restart at 0 so reruns are
  // deterministic; track() rewrites every other field, and slots at or
  // above fresh_ are untouched since their own reset, so only the last
  // run's slots need it. Pre-size the pool to the typical in-flight window
  // (~4 messages per node) so warm steady state never allocates; overflow
  // grows geometrically via track().
  for (std::uint32_t i = 0; i < fresh_; ++i) {
    slots_[i].gen = 0;
    slots_[i].live = false;
    delivered_gen_[i] = 0;
  }
  fresh_ = 0;
  free_.clear();
  const std::size_t reserve = std::max<std::size_t>(64, 4 * n);
  if (slots_.size() < reserve) {
    slots_.resize(reserve);
    delivered_gen_.resize(reserve);
  }
  free_.reserve(slots_.size());
}

RecoveryState::Slot& RecoveryState::slot_of(RecoveryTag tag) {
  FBA_ASSERT(tag.slot1 >= 1 && tag.slot1 <= slots_.size(),
             "recovery tag indexes outside the slot pool");
  return slots_[tag.slot1 - 1];
}

const RecoveryState::Slot& RecoveryState::slot_of(RecoveryTag tag) const {
  FBA_ASSERT(tag.slot1 >= 1 && tag.slot1 <= slots_.size(),
             "recovery tag indexes outside the slot pool");
  return slots_[tag.slot1 - 1];
}

RecoveryTag RecoveryState::track(const Envelope& env, double now) {
  // Released slots first (LIFO), then never-used ones in index order.
  std::uint32_t index = fresh_;
  if (!free_.empty()) {
    index = free_.back();
    free_.pop_back();
  } else if (fresh_++ == slots_.size()) {
    // Amortized growth only when the whole pool is in flight — past the
    // pre-sized window this is rare and never on the warm steady path.
    const std::size_t grown = std::max<std::size_t>(64, slots_.size() * 2);
    slots_.resize(grown);
    delivered_gen_.resize(grown, 0);
    free_.reserve(grown);
  }
  Slot& slot = slots_[index];
  // Gen 0 is the untracked sentinel in delivered_gen_, so skip it on wrap.
  if (++slot.gen == 0) ++slot.gen;
  slot.env = env;
  slot.sent_at = now;
  slot.rto = rto_base_;
  slot.retries = 0;
  slot.live = true;
  ++live_;
  return RecoveryTag{index + 1, slot.gen};
}

void RecoveryState::free_slot(std::uint32_t index) {
  Slot& slot = slots_[index];
  FBA_ASSERT(slot.live, "freeing a recovery slot that is not live");
  slot.live = false;
  --live_;
  free_.push_back(index);
}

RecoveryState::TimeoutAction RecoveryState::on_timeout(RecoveryTag tag) {
  Slot& slot = slot_of(tag);
  if (!slot.live || slot.gen != tag.gen) return TimeoutAction::kStale;
  if (slot.retries >= plan_.max_retries) {
    free_slot(tag.slot1 - 1);
    return TimeoutAction::kDead;
  }
  ++slot.retries;
  const double cap = std::max(plan_.rto_cap, rto_floor_);
  slot.rto = std::min(slot.rto * plan_.backoff, cap);
  return TimeoutAction::kRetry;
}

bool RecoveryState::on_ack(RecoveryTag tag, double now) {
  if (tag.slot1 == 0 || tag.slot1 > slots_.size()) return false;
  Slot& slot = slots_[tag.slot1 - 1];
  if (!slot.live || slot.gen != tag.gen) return false;  // stale / duplicate
  if (slot.retries == 0) {
    // Karn's rule: only unambiguous (first-attempt) round trips feed the
    // estimator. One global srtt, not per link — every link shares the
    // engine's delay model.
    const double sample = std::max(now - slot.sent_at, 0.0);
    srtt_ = srtt_ == 0 ? sample
                       : srtt_ + plan_.srtt_gain * (sample - srtt_);
    const double cap = std::max(plan_.rto_cap, rto_floor_);
    rto_base_ = std::clamp(srtt_ * plan_.srtt_mult, rto_floor_, cap);
    if (plan_.rto_initial > 0) {
      rto_base_ = std::max(rto_base_,
                           std::clamp(plan_.rto_initial, rto_floor_, cap));
    }
  }
  free_slot(tag.slot1 - 1);
  return true;
}

bool RecoveryState::should_deliver(RecoveryTag tag) {
  FBA_ASSERT(tag.slot1 >= 1 && tag.slot1 <= delivered_gen_.size(),
             "recovery delivery tag outside the slot pool");
  std::uint16_t& last = delivered_gen_[tag.slot1 - 1];
  if (last != 0 && !gen_after(tag.gen, last)) return false;
  last = tag.gen;
  return true;
}

const Envelope& RecoveryState::envelope_of(RecoveryTag tag) const {
  const Slot& slot = slot_of(tag);
  FBA_ASSERT(slot.live && slot.gen == tag.gen,
             "envelope_of on a freed or reused recovery slot");
  return slot.env;
}

void RecoveryState::note_resend(RecoveryTag tag, double now) {
  Slot& slot = slot_of(tag);
  FBA_ASSERT(slot.live && slot.gen == tag.gen,
             "note_resend on a freed or reused recovery slot");
  slot.env.send_time = now;
  slot.env.fault_delay = 0;  // the fault layer re-stamps the retransmission
}

double RecoveryState::current_rto(RecoveryTag tag) const {
  const Slot& slot = slot_of(tag);
  return slot.rto;
}

}  // namespace fba::sim
