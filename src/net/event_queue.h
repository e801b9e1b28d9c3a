// EventQueue: the shared pending-event core under both engines.
//
// Events (message deliveries and timer firings) live by value in slabs that
// are reused in place — no per-event heap allocation on the steady-state
// path. Ordering key is (at, pri, seq):
//   - `at`  — delivery time (sim time in the async engine, round number in
//             the sync engine);
//   - `pri` — same-timestamp delivery class, the engines' timing-policy
//             lever (the sync engine delivers rushing-adversary traffic
//             first and timers last within a round; the async engine uses a
//             single class);
//   - `seq` — push order, so delivery is FIFO among equal (at, pri).
//
// Two storage modes, chosen by the owning engine's timing model:
//   - kCalendar — an exact-order calendar ring for continuous timestamps
//                 (async engine). The async model bounds every message delay
//                 by one time unit, so pending events sit in a window a few
//                 units wide. The ring cuts time into slots of
//                 1/kSlotsPerUnit; each slot is an intrusive list over one
//                 chunked, pointer-stable event slab. Entering a slot sorts
//                 its small (at, pri<<56|seq, index) keys, and pops follow a
//                 cursor through them; a push into the slot being drained is
//                 inserted after the cursor by binary search. Events beyond
//                 the ring's span (far recovery timers) wait in an overflow
//                 min-heap of keys and move into the ring as it advances. An
//                 occupancy bitmap skips empty slots. Pop order is exactly
//                 (at, pri, seq), nothing 104 bytes wide is ever sifted.
//   - kBuckets  — a calendar ring of per-timestamp buckets with one lane per
//                 priority class; for integral timestamps (sync rounds).
//                 O(1) push, O(1)-per-event batched pop, nothing is ever
//                 sifted — a round with a million pending messages drains at
//                 memcpy speed. Ring slots (and their lane capacity) are
//                 reused in place as time advances, so the steady state
//                 performs no allocation at all.
//
// The engines are thin timing policies over this core: they decide each
// event's (at, pri) and consume the ordered stream via pop() or the batched
// pop_due() (sync: one call drains a whole round into a reusable scratch
// vector).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "net/envelope.h"
#include "support/types.h"

namespace fba::sim {

class EventQueue {
 public:
  enum class Mode {
    kCalendar,  ///< continuous timestamps, exact-order calendar ring.
    kBuckets,   ///< integral timestamps, per-round calendar buckets.
  };

  /// Priority classes supported in bucket mode (lanes per bucket).
  static constexpr std::uint32_t kNumPriorities = 3;

  struct Event {
    SimTime at = 0;
    std::uint32_t pri = 0;
    /// Recovery-layer tag of a tracked delivery (net/recovery.h), split
    /// across the struct's two natural padding holes so adding it keeps
    /// sizeof(Event) unchanged (the deterministic memory account charges
    /// queue_peak * sizeof(Event)). 0/0 = untracked.
    std::uint32_t rec_slot1 = 0;
    std::uint64_t seq = 0;  ///< assigned by push; FIFO tie-break.
    bool is_timer = false;
    bool is_burst = false;  ///< env is a burst descriptor (push_burst).
    std::uint16_t rec_gen = 0;  ///< second half of the recovery tag.
    NodeId timer_node = 0;
    std::uint64_t timer_token = 0;
    Envelope env;  ///< valid when !is_timer.

    RecoveryTag rec() const { return RecoveryTag{rec_slot1, rec_gen}; }
  };

  explicit EventQueue(Mode mode = Mode::kCalendar) : mode_(mode) {
    heads_.fill(kNil);
  }

  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }

  /// Empties the queue and rewinds the clock to tick 0, keeping the event
  /// slab / ring buckets and their lane capacity (trial-arena reuse).
  void clear();

  /// Earliest (at, pri, seq) pending event's timestamp. Queue must be
  /// non-empty. Non-const: in calendar mode it may advance the ring to the
  /// next occupied slot, which the following pop() then drains.
  SimTime next_at();

  /// Queues a message delivery at (at, pri). `rec` is the recovery-layer
  /// tag of a tracked send (default: untracked).
  void push_message(SimTime at, std::uint32_t pri, const Envelope& env,
                    RecoveryTag rec = {});

  /// Queues a timer firing at (at, pri).
  void push_timer(SimTime at, std::uint32_t pri, NodeId node,
                  std::uint64_t token);

  /// Queues a burst descriptor: one event standing for a batch of same-kind
  /// deliveries the consumer re-expands at delivery time (the scale path's
  /// replacement for the Fw1 d^2 fan-out — n*d burst events instead of
  /// n*d^3 queued envelopes). `env` carries the template message; dst is
  /// ignored. Ordering is a single (at, pri, seq) slot, which matches the
  /// per-send path exactly because the expanded sends were consecutive
  /// seqs there too.
  void push_burst(SimTime at, std::uint32_t pri, const Envelope& env);

  /// Removes and returns the next event in (at, pri, seq) order.
  Event pop();

  /// Batched pop: drains every event with at <= until into `out` (cleared
  /// first) in delivery order. Returns the number of events moved. `out`
  /// keeps its capacity across calls, so a reused scratch vector makes the
  /// steady-state round loop allocation-free.
  std::size_t pop_due(SimTime until, std::vector<Event>& out);

  /// In-place drain: visits every event with at <= until in delivery order
  /// without copying the round into a scratch vector — the scale path's
  /// round loop, where a round can hold tens of millions of events. The
  /// visitor may push new events, but only at timestamps strictly beyond
  /// the tick being drained (the sync engine's round discipline; asserted
  /// in bucket mode). Visited events are invalidated after the call.
  template <typename Visitor>
  void drain_due(SimTime until, Visitor&& visit) {
    if (mode_ == Mode::kCalendar) {
      while (size_ > 0 && next_at() <= until) {
        Event ev = pop();
        visit(ev);
      }
      return;
    }
    while (!ring_.empty() && static_cast<SimTime>(base_tick_) <= until) {
      {
        Bucket& bucket = front_bucket();
        if (bucket.count == 0) {
          step_base();
          continue;
        }
        // Claim the tick's lanes by swapping them out: visitor pushes may
        // grow the ring and re-seat every bucket, so no reference into
        // ring_ survives the visit loop.
        size_ -= bucket.count;
        bucket.count = 0;
        for (std::uint32_t p = 0; p < kNumPriorities; ++p) {
          drain_scratch_[p].swap(bucket.lanes[p]);
        }
      }
      for (std::uint32_t p = 0; p < kNumPriorities; ++p) {
        for (Event& ev : drain_scratch_[p]) visit(ev);
      }
      // Re-fetch: grow_ring during the visits moves buckets (head_ resets
      // to 0), but the front bucket still maps to the tick just drained.
      Bucket& bucket = front_bucket();
      FBA_ASSERT(bucket.count == 0,
                 "drain_due visitor pushed into the tick being drained");
      for (std::uint32_t p = 0; p < kNumPriorities; ++p) {
        drain_scratch_[p].clear();
        drain_scratch_[p].swap(bucket.lanes[p]);  // hand capacity back
      }
      step_base();
    }
  }

  /// High-water mark of pending events since the last clear() — the event
  /// core's contribution to a trial's deterministic memory accounting.
  std::size_t peak_size() const { return peak_size_; }

 private:
  void push(Event&& ev);

  // ----- kCalendar ----------------------------------------------------------
  /// Slot width is 1/kSlotsPerUnit time units; the ring spans
  /// kRingSlots / kSlotsPerUnit = 16 units, past the one-unit delay bound,
  /// jitter and all but the longest recovery backoff.
  static constexpr std::uint32_t kSlotsPerUnit = 64;
  static constexpr std::uint32_t kRingSlots = 1024;
  static constexpr std::uint32_t kChunkEvents = 64;
  static constexpr std::uint32_t kNil = ~std::uint32_t{0};

  /// Sort key of one slab event: (at, pri << 56 | seq), plus its index.
  struct Key {
    SimTime at;
    std::uint64_t tie;
    std::uint32_t idx;
  };
  // Closure objects rather than functions, so std::sort and the heap
  // algorithms inline the comparison instead of calling through a pointer.
  static constexpr auto key_before = [](const Key& x, const Key& y) {
    return x.at < y.at || (x.at == y.at && x.tie < y.tie);
  };
  static constexpr auto key_after = [](const Key& x, const Key& y) {
    return key_before(y, x);
  };

  Event& slab(std::uint32_t idx) {
    return chunks_[idx / kChunkEvents][idx % kChunkEvents];
  }
  std::uint32_t slab_alloc();
  /// `at` in slot units from the ring's origin. Monotone in `at`, so slots
  /// never reorder events; place() and advance() must agree on it exactly.
  double slot_time(SimTime at) const { return (at - origin_) * kSlotsPerUnit; }
  /// Files a slab event under its slot: the drained slot's sorted keys, a
  /// ring slot's list, or the overflow heap.
  void place(const Key& key);
  /// Moves on to the next occupied slot (or, with the ring empty, rebases
  /// the ring on the overflow's earliest event) and sorts its keys.
  void advance();

  /// Events by value, kChunkEvents per chunk, so growth never moves them.
  /// Chunks are small (6.5 KB), so a short-lived queue (one engine per
  /// run) constructs about as many events as it ever holds.
  std::vector<std::unique_ptr<Event[]>> chunks_;
  /// Per slab index: next event in its slot list, or in the free list.
  std::vector<std::uint32_t> link_;
  std::uint32_t slab_top_ = 0;  ///< indices below it have been handed out.
  std::uint32_t free_head_ = kNil;
  /// The ring holds absolute slots (cur_, cur_ + kRingSlots), slot k covering
  /// times [origin_ + k / kSlotsPerUnit, origin_ + (k + 1) / kSlotsPerUnit).
  /// Slot cur_ itself lives in keys_, sorted, and drains from pos_.
  std::array<std::uint32_t, kRingSlots> heads_;
  std::array<std::uint64_t, kRingSlots / 64> occupied_{};
  std::uint64_t cur_ = 0;
  SimTime origin_ = 0;
  std::vector<Key> keys_;
  std::size_t pos_ = 0;
  /// Min-heap (by key_after) of events at or past the ring's end.
  std::vector<Key> overflow_;

  // ----- kBuckets -----------------------------------------------------------
  /// One integral timestamp's pending events, one lane per priority class.
  struct Bucket {
    std::array<std::vector<Event>, kNumPriorities> lanes;
    std::size_t count = 0;
  };
  Bucket& bucket_at(std::uint64_t tick);
  Bucket& front_bucket() { return ring_[head_]; }
  void step_base();  ///< recycle the base bucket in place, advance one tick.
  void grow_ring(std::size_t min_slots);

  Mode mode_;
  std::size_t size_ = 0;
  std::size_t peak_size_ = 0;
  std::uint64_t next_seq_ = 0;

  // kBuckets state: power-of-two ring of buckets covering ticks
  // [base_tick_, base_tick_ + ring_.size()); head_ indexes base_tick_'s slot.
  std::vector<Bucket> ring_;
  std::size_t head_ = 0;
  std::uint64_t base_tick_ = 0;
  /// drain_due's per-tick lane holder (capacity is handed back per tick).
  std::array<std::vector<Event>, kNumPriorities> drain_scratch_;
};

}  // namespace fba::sim
