#include "net/event_queue.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <utility>

namespace fba::sim {

namespace {
constexpr std::size_t kInitialRingSlots = 8;
}  // namespace

void EventQueue::clear() {
  size_ = 0;
  peak_size_ = 0;
  next_seq_ = 0;
  slab_top_ = 0;
  free_head_ = kNil;
  heads_.fill(kNil);
  occupied_.fill(0);
  cur_ = 0;
  origin_ = 0;
  keys_.clear();
  pos_ = 0;
  overflow_.clear();
  for (Bucket& bucket : ring_) {
    for (auto& lane : bucket.lanes) lane.clear();  // keeps lane capacity
    bucket.count = 0;
  }
  head_ = 0;
  base_tick_ = 0;
}

void EventQueue::grow_ring(std::size_t min_slots) {
  std::size_t slots = std::max<std::size_t>(ring_.size() * 2,
                                            kInitialRingSlots);
  while (slots < min_slots) slots *= 2;
  std::vector<Bucket> bigger(slots);
  // Re-seat existing buckets at their new positions (tick order preserved;
  // base_tick_ maps to slot 0 of the new ring).
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    bigger[i] = std::move(ring_[(head_ + i) % ring_.size()]);
  }
  ring_ = std::move(bigger);
  head_ = 0;
}

EventQueue::Bucket& EventQueue::bucket_at(std::uint64_t tick) {
  FBA_ASSERT(tick >= base_tick_, "bucketed push into the past");
  const std::uint64_t offset = tick - base_tick_;
  if (offset >= ring_.size()) grow_ring(offset + 1);
  return ring_[(head_ + offset) % ring_.size()];
}

void EventQueue::step_base() {
  Bucket& bucket = ring_[head_];
  for (auto& lane : bucket.lanes) lane.clear();  // keeps lane capacity
  bucket.count = 0;
  head_ = (head_ + 1) % ring_.size();
  ++base_tick_;
}

void EventQueue::push(Event&& ev) {
  if (mode_ == Mode::kCalendar) {
    FBA_ASSERT(std::isfinite(ev.at), "calendar event time must be finite");
    FBA_ASSERT(ev.pri < 256 && next_seq_ < (std::uint64_t{1} << 56),
               "calendar key overflows pri << 56 | seq");
  }
  ev.seq = next_seq_++;
  ++size_;
  if (size_ > peak_size_) peak_size_ = size_;
  if (mode_ == Mode::kCalendar) {
    const Key key{ev.at, std::uint64_t{ev.pri} << 56 | ev.seq, slab_alloc()};
    slab(key.idx) = std::move(ev);
    place(key);
    return;
  }
  FBA_ASSERT(ev.pri < kNumPriorities, "bucketed priority class out of range");
  const auto tick = static_cast<std::uint64_t>(ev.at);
  FBA_ASSERT(static_cast<SimTime>(tick) == ev.at,
             "bucketed timestamps must be integral");
  Bucket& bucket = bucket_at(tick);
  const std::uint32_t pri = ev.pri;
  bucket.lanes[pri].push_back(std::move(ev));
  ++bucket.count;
}

void EventQueue::push_message(SimTime at, std::uint32_t pri,
                              const Envelope& env, RecoveryTag rec) {
  Event ev;
  ev.at = at;
  ev.pri = pri;
  ev.rec_slot1 = rec.slot1;
  ev.rec_gen = rec.gen;
  ev.env = env;
  push(std::move(ev));
}

void EventQueue::push_timer(SimTime at, std::uint32_t pri, NodeId node,
                            std::uint64_t token) {
  Event ev;
  ev.at = at;
  ev.pri = pri;
  ev.is_timer = true;
  ev.timer_node = node;
  ev.timer_token = token;
  push(std::move(ev));
}

void EventQueue::push_burst(SimTime at, std::uint32_t pri,
                            const Envelope& env) {
  Event ev;
  ev.at = at;
  ev.pri = pri;
  ev.is_burst = true;
  ev.env = env;
  push(std::move(ev));
}

std::uint32_t EventQueue::slab_alloc() {
  if (free_head_ != kNil) {
    const std::uint32_t idx = free_head_;
    free_head_ = link_[idx];
    return idx;
  }
  if (slab_top_ == link_.size()) {
    FBA_ASSERT(link_.size() <= kNil - kChunkEvents, "event slab is full");
    chunks_.push_back(std::make_unique<Event[]>(kChunkEvents));
    link_.resize(link_.size() + kChunkEvents);
  }
  return slab_top_++;
}

void EventQueue::place(const Key& key) {
  // Compare in the scaled time domain before any conversion, so a far
  // timestamp never reaches the double -> uint64 cast.
  const double scaled = slot_time(key.at);
  if (scaled >= static_cast<double>(cur_ + kRingSlots)) {
    overflow_.push_back(key);
    std::push_heap(overflow_.begin(), overflow_.end(), key_after);
    return;
  }
  if (scaled < static_cast<double>(cur_ + 1)) {
    // The slot being drained (or, for a push into the past, the earliest
    // pending position): sorted insert behind the cursor, shifting the
    // shorter side, so a push at now + 1e-9 moves nothing past the cursor.
    if (pos_ == keys_.size()) {
      keys_.clear();
      pos_ = 0;
    }
    const auto first = keys_.begin() + static_cast<std::ptrdiff_t>(pos_);
    const auto at = std::upper_bound(first, keys_.end(), key, key_before);
    if (pos_ > 0 && at - first < keys_.end() - at) {
      std::move(first, at, first - 1);  // into the consumed key before
      *(at - 1) = key;
      --pos_;
    } else {
      keys_.insert(at, key);
    }
    return;
  }
  const auto slot = static_cast<std::uint64_t>(scaled) % kRingSlots;
  link_[key.idx] = heads_[slot];
  heads_[slot] = key.idx;
  occupied_[slot / 64] |= std::uint64_t{1} << (slot % 64);
}

void EventQueue::advance() {
  keys_.clear();
  pos_ = 0;
  // First occupied slot after cur_, scanning the bitmap cyclically; the
  // start word comes round again last for its bits below the start.
  constexpr std::size_t kWords = kRingSlots / 64;
  const std::size_t start = (cur_ + 1) % kRingSlots;
  std::size_t word = start / 64;
  std::uint64_t bits = occupied_[word] & (~std::uint64_t{0} << (start % 64));
  std::size_t found = kRingSlots;
  for (std::size_t i = 0; i <= kWords; ++i) {
    if (bits != 0) {
      found = word * 64 + static_cast<std::size_t>(std::countr_zero(bits));
      break;
    }
    word = (word + 1) % kWords;
    bits = occupied_[word];
  }
  if (found == kRingSlots) {
    // The ring is empty, so the overflow's earliest event is next: rebase
    // the ring on it and let the migration below file it into slot 0.
    FBA_ASSERT(!overflow_.empty(), "advance() on an empty event queue");
    origin_ = overflow_.front().at;
    cur_ = 0;
  } else {
    cur_ += 1 + (found + kRingSlots - start) % kRingSlots;
  }
  // The ring's end moved: file the overflow events it now covers.
  const double end = static_cast<double>(cur_ + kRingSlots);
  while (!overflow_.empty() && slot_time(overflow_.front().at) < end) {
    std::pop_heap(overflow_.begin(), overflow_.end(), key_after);
    const Key key = overflow_.back();
    overflow_.pop_back();
    place(key);
  }
  const std::size_t slot = cur_ % kRingSlots;
  for (std::uint32_t idx = heads_[slot]; idx != kNil; idx = link_[idx]) {
    const Event& ev = slab(idx);
    keys_.push_back({ev.at, std::uint64_t{ev.pri} << 56 | ev.seq, idx});
  }
  heads_[slot] = kNil;
  occupied_[slot / 64] &= ~(std::uint64_t{1} << (slot % 64));
  if (keys_.size() > 1) std::sort(keys_.begin(), keys_.end(), key_before);
}

SimTime EventQueue::next_at() {
  FBA_ASSERT(size_ > 0, "next_at() on an empty event queue");
  if (mode_ == Mode::kCalendar) {
    if (pos_ == keys_.size()) advance();
    return keys_[pos_].at;
  }
  for (std::size_t i = 0; i < ring_.size(); ++i) {
    if (ring_[(head_ + i) % ring_.size()].count > 0) {
      return static_cast<SimTime>(base_tick_ + i);
    }
  }
  return 0;  // unreachable: size_ > 0
}

EventQueue::Event EventQueue::pop() {
  FBA_ASSERT(size_ > 0, "pop() on an empty event queue");
  --size_;
  if (mode_ == Mode::kCalendar) {
    if (pos_ == keys_.size()) advance();
    const std::uint32_t idx = keys_[pos_++].idx;
    link_[idx] = free_head_;
    free_head_ = idx;
    return std::move(slab(idx));
  }
  while (front_bucket().count == 0) step_base();
  Bucket& bucket = front_bucket();
  // (at, pri, seq) order: the earliest tick's lowest-priority non-empty
  // lane, whose front holds that lane's lowest seq (lanes are push-ordered).
  // Front-erase is O(lane); single pops from buckets are rare (the sync
  // engine drains whole rounds via pop_due), so correctness over speed here.
  for (auto& lane : bucket.lanes) {
    if (lane.empty()) continue;
    Event out = std::move(lane.front());
    lane.erase(lane.begin());
    --bucket.count;
    return out;
  }
  FBA_ASSERT(false, "non-empty bucket has empty lanes");
  return Event{};
}

std::size_t EventQueue::pop_due(SimTime until, std::vector<Event>& out) {
  out.clear();
  if (mode_ == Mode::kCalendar) {
    while (size_ > 0 && next_at() <= until) {
      out.push_back(pop());
    }
    return out.size();
  }
  // Advance one tick at a time and never beyond `until`: base_tick_ must
  // stay at most one past the drained range, since the engine's next round
  // pushes at `until + 1`.
  while (!ring_.empty() && static_cast<SimTime>(base_tick_) <= until) {
    Bucket& bucket = front_bucket();
    for (auto& lane : bucket.lanes) {
      for (Event& ev : lane) out.push_back(std::move(ev));
    }
    size_ -= bucket.count;
    step_base();
  }
  return out.size();
}

}  // namespace fba::sim
