// Tests for the flat message layer: the per-kind bit-size table (golden
// sizes matching the retired virtual bit_size() implementations), the
// kind-checked accessor, kind names, and EventQueue ordering.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "net/event_queue.h"
#include "net/message.h"
#include "support/bitstring.h"
#include "support/random.h"

namespace fba::sim {
namespace {

Wire golden_wire() {
  Wire w;
  w.node_id_bits = 10;
  w.label_bits = 20;
  w.slice_bits = 5;
  w.phase_bits = 3;
  w.value_bits = 7;
  w.fixed_string_bits = 40;
  return w;
}

Message msg_of(MessageKind kind) {
  Message m;
  m.kind = kind;
  return m;
}

TEST(MessageSizeTest, KindTableMatchesGoldenSizes) {
  // Expected values reproduce the old per-payload virtual bit_size()
  // formulas, evaluated at golden_wire(): string=40, label=20, id=10,
  // slice-index=5, phase-index=3, slice-value=7.
  const Wire w = golden_wire();
  const std::vector<std::pair<MessageKind, std::size_t>> golden = {
      {MessageKind::kPush, 40},             // string
      {MessageKind::kPoll, 40 + 20},        // string + label
      {MessageKind::kPull, 40 + 20},        // string + label
      {MessageKind::kFw1, 40 + 20 + 2 * 10},  // string + label + 2 ids
      {MessageKind::kFw2, 40 + 20 + 10},    // string + label + 1 id
      {MessageKind::kAnswer, 40},           // string
      {MessageKind::kContrib, 7 + 5},       // value + slice index
      {MessageKind::kPkValue, 7 + 5 + 3},   // value + slice + phase
      {MessageKind::kPkKing, 7 + 5 + 3},    // value + slice + phase
      {MessageKind::kFinalSlice, 7 + 5},    // value + slice index
      {MessageKind::kPkExchange, 64 + 8},   // fixed
      {MessageKind::kPkDecree, 64 + 8},     // fixed
      {MessageKind::kBcast, 40},            // string
      {MessageKind::kQuery, 0},             // header-only
      {MessageKind::kReply, 40},            // string
      {MessageKind::kSnowQuery, 16},        // fixed round tag
      {MessageKind::kSnowReply, 40 + 16},   // string + round tag
      {MessageKind::kPing, 16},             // fixed
      {MessageKind::kAck, 32},              // fixed recovery cookie
  };
  // The table above must cover every sendable kind exactly once.
  EXPECT_EQ(golden.size(), kNumMessageKinds - 1);  // all but kNone
  for (const auto& [kind, expected] : golden) {
    EXPECT_EQ(message_bit_size(msg_of(kind), w), expected)
        << kind_name(kind);
  }
}

TEST(MessageSizeTest, StringSizesComeFromTheTable) {
  StringTable table;
  Rng rng(7);
  const StringId id = table.intern(BitString::random(23, rng));
  Wire w;
  w.table = &table;
  Message m = msg_of(MessageKind::kPush);
  m.s = id;
  EXPECT_EQ(message_bit_size(m, w), 23u);
}

TEST(MessageSizeTest, HeaderChargesKindTagAndSenderId) {
  const Wire w = golden_wire();
  EXPECT_EQ(w.header_bits(), Wire::kKindTagBits + 10);
}

TEST(MessageAccessorTest, MismatchReturnsNull) {
  Message m = msg_of(MessageKind::kPoll);
  m.s = 3;
  EXPECT_EQ(m.as(MessageKind::kPush), nullptr);
  EXPECT_EQ(m.as(MessageKind::kAnswer), nullptr);
  const Message* poll = m.as(MessageKind::kPoll);
  ASSERT_NE(poll, nullptr);
  EXPECT_EQ(poll, &m);  // kind-checked view of the same value
  EXPECT_EQ(poll->s, 3u);
}

TEST(MessageKindTest, NamesAreUniqueAndNonEmpty) {
  std::set<std::string> names;
  for (std::size_t k = 0; k < kNumMessageKinds; ++k) {
    const std::string name = kind_name(static_cast<MessageKind>(k));
    EXPECT_FALSE(name.empty());
    EXPECT_NE(name, "?");
    EXPECT_TRUE(names.insert(name).second) << "duplicate kind name " << name;
  }
}

// ----- EventQueue ------------------------------------------------------------
// Both storage modes must produce the same (at, pri, seq) delivery order;
// every ordering test runs against the calendar ring and the round buckets.

class EventQueueModes
    : public ::testing::TestWithParam<EventQueue::Mode> {};

INSTANTIATE_TEST_SUITE_P(Modes, EventQueueModes,
                         ::testing::Values(EventQueue::Mode::kCalendar,
                                           EventQueue::Mode::kBuckets));

TEST_P(EventQueueModes, FifoAmongEqualTimestamps) {
  EventQueue q(GetParam());
  for (std::uint32_t i = 0; i < 16; ++i) {
    Envelope env;
    env.src = i;
    q.push_message(1.0, 0, env);
  }
  for (std::uint32_t i = 0; i < 16; ++i) {
    const EventQueue::Event ev = q.pop();
    EXPECT_EQ(ev.env.src, i);  // push order preserved at one timestamp
  }
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueModes, OrdersByTimeThenPriorityThenSeq) {
  EventQueue q(GetParam());
  Envelope env;
  env.src = 1;
  q.push_message(2.0, 0, env);       // later time loses to earlier time
  env.src = 2;
  q.push_message(1.0, 1, env);       // same time: higher pri class later
  env.src = 3;
  q.push_message(1.0, 0, env);
  q.push_timer(1.0, 2, 7, 42);       // timers after messages
  EXPECT_DOUBLE_EQ(q.next_at(), 1.0);

  EXPECT_EQ(q.pop().env.src, 3u);    // (1.0, pri 0)
  EXPECT_EQ(q.pop().env.src, 2u);    // (1.0, pri 1)
  const EventQueue::Event timer = q.pop();
  EXPECT_TRUE(timer.is_timer);       // (1.0, pri 2)
  EXPECT_EQ(timer.timer_node, 7u);
  EXPECT_EQ(timer.timer_token, 42u);
  EXPECT_EQ(q.pop().env.src, 1u);    // (2.0)
}

TEST_P(EventQueueModes, PopDueDrainsBatchInDeliveryOrder) {
  EventQueue q(GetParam());
  Envelope env;
  env.src = 5;
  q.push_message(2.0, 1, env);  // not due yet
  env.src = 1;
  q.push_message(1.0, 1, env);
  q.push_timer(1.0, 2, 9, 1);
  env.src = 0;
  q.push_message(1.0, 0, env);  // corrupt-origin class: delivered first

  std::vector<EventQueue::Event> due;
  EXPECT_EQ(q.pop_due(1.0, due), 3u);
  ASSERT_EQ(due.size(), 3u);
  EXPECT_EQ(due[0].env.src, 0u);
  EXPECT_EQ(due[1].env.src, 1u);
  EXPECT_TRUE(due[2].is_timer);
  EXPECT_EQ(q.size(), 1u);  // the 2.0 message stays queued

  // Order survives interleaved push/pop_due cycles.
  EXPECT_EQ(q.pop_due(2.0, due), 1u);
  EXPECT_EQ(due[0].env.src, 5u);
  EXPECT_TRUE(q.empty());
}

TEST_P(EventQueueModes, RandomizedOrderMatchesStableSort) {
  EventQueue q(GetParam());
  Rng rng(99);
  struct Key {
    double at;
    std::uint32_t pri;
    std::size_t idx;
  };
  std::vector<Key> keys;
  for (std::size_t i = 0; i < 500; ++i) {
    const double at = static_cast<double>(rng.node(8));
    const auto pri = static_cast<std::uint32_t>(rng.node(3));
    Envelope env;
    env.src = static_cast<NodeId>(i);
    q.push_message(at, pri, env);
    keys.push_back({at, pri, i});
  }
  std::stable_sort(keys.begin(), keys.end(), [](const Key& a, const Key& b) {
    if (a.at != b.at) return a.at < b.at;
    return a.pri < b.pri;
  });
  for (const Key& expected : keys) {
    const EventQueue::Event ev = q.pop();
    EXPECT_EQ(ev.env.src, expected.idx);
    EXPECT_EQ(ev.at, expected.at);
  }
}

/// The calendar ring against a reference (at, pri, seq) model, on the async
/// engine's access pattern: continuous timestamps with push and pop
/// interleaved. The push mix covers the slot being drained (now + 1e-9),
/// exact ties with the previous push (which, once time has moved on, lands
/// before the last pop), jitter, timers past the ring's 16-unit span (+64)
/// and near a 10^4 horizon, and a clear() followed by reuse. The pending set
/// is held at 20..300 events, so time runs ~100 units per half and the +64
/// timers come due while the ring is busy (the overflow's migration path);
/// the final drain empties the ring under the far timers (the rebase path).
TEST(EventQueueCalendarTest, InterleavedContinuousOrderMatchesReference) {
  using Ref = std::tuple<SimTime, std::uint32_t, std::uint64_t>;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    EventQueue q(EventQueue::Mode::kCalendar);
    std::set<Ref> ref;
    std::uint64_t seq = 0;
    SimTime now = 0;
    SimTime last_at = 0;
    Rng rng(seed);
    auto pop_and_check = [&] {
      ASSERT_FALSE(ref.empty());
      const Ref expected = *ref.begin();
      ref.erase(ref.begin());
      ASSERT_EQ(q.next_at(), std::get<0>(expected));
      const EventQueue::Event ev = q.pop();
      ASSERT_EQ(ev.at, std::get<0>(expected));
      ASSERT_EQ(ev.pri, std::get<1>(expected));
      ASSERT_EQ(ev.seq, std::get<2>(expected));
      ASSERT_EQ(ev.timer_token, std::get<2>(expected));  // payload intact
      now = ev.at;
    };
    for (int op = 0; op < 40000; ++op) {
      if (op == 20000) {  // clear() mid-run, then reuse from time 0
        q.clear();
        ref.clear();
        seq = 0;
        now = last_at = 0;
      }
      if (ref.size() > 300 || (ref.size() >= 20 && rng.chance(0.5))) {
        pop_and_check();
        continue;
      }
      SimTime at;
      const double kind = rng.uniform();
      if (kind < 0.15) {
        at = now + 1e-9;  // lands in the slot being drained
      } else if (kind < 0.30) {
        at = last_at;  // exact tie with the previous push
      } else if (kind < 0.34) {
        at = now + 64.0 + rng.uniform();  // past the ring's span
      } else if (kind < 0.36) {
        at = 1e4 - rng.uniform();  // near the horizon
      } else if (kind < 0.46) {
        at = now + 2.0 * rng.uniform();  // jitter
      } else {
        at = now + rng.uniform_positive();  // a normalized delay
      }
      const auto pri = static_cast<std::uint32_t>(rng.node(3));
      q.push_timer(at, pri, /*node=*/0, /*token=*/seq);
      ref.emplace(at, pri, seq++);
      last_at = at;
    }
    while (!ref.empty()) pop_and_check();
    EXPECT_TRUE(q.empty());
  }
}

/// Slot indices are computed from `at`, so a non-finite time is refused
/// up front and leaves the queue as it was.
TEST(EventQueueCalendarTest, RejectsNonFiniteTimes) {
  EventQueue q(EventQueue::Mode::kCalendar);
  EXPECT_THROW(q.push_timer(std::numeric_limits<double>::infinity(), 0, 0, 0),
               InvariantError);
  EXPECT_THROW(q.push_timer(std::numeric_limits<double>::quiet_NaN(), 0, 0, 0),
               InvariantError);
  EXPECT_TRUE(q.empty());
  q.push_timer(1e300, 0, 0, 7);  // far but finite: the overflow's rebase
  EXPECT_EQ(q.next_at(), 1e300);
  EXPECT_EQ(q.pop().timer_token, 7u);
}

}  // namespace
}  // namespace fba::sim
