#include "net/event_queue.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace recwild::net {
namespace {

SimTime at_ms(double ms) {
  return SimTime::origin() + Duration::millis(ms);
}

TEST(EventQueue, StartsEmpty) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at_ms(30), [&] { order.push_back(3); });
  q.push(at_ms(10), [&] { order.push_back(1); });
  q.push(at_ms(20), [&] { order.push_back(2); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue q;
  std::vector<int> order;
  q.push(at_ms(5), [&] { order.push_back(1); });
  q.push(at_ms(5), [&] { order.push_back(2); });
  q.push(at_ms(5), [&] { order.push_back(3); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, RankedPushTiesAsIfPushedAtReservation) {
  // Ranks reserved before a plain push at the same time: the ranked events,
  // pushed later and in reverse, still fire first and in rank order; time
  // still orders before rank.
  EventQueue q;
  std::vector<int> order;
  const std::uint64_t first = q.reserve_ranks(3);
  q.push(at_ms(5), [&] { order.push_back(3); });
  q.push_ranked(at_ms(5), first + 1, [&] { order.push_back(2); });
  q.push_ranked(at_ms(5), first, [&] { order.push_back(1); });
  q.push_ranked(at_ms(4), first + 2, [&] { order.push_back(0); });
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EventQueue, PopReportsFireTime) {
  EventQueue q;
  q.push(at_ms(42), [] {});
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, at_ms(42));
}

TEST(EventQueue, NextTimeIsEarliest) {
  EventQueue q;
  q.push(at_ms(9), [] {});
  q.push(at_ms(3), [] {});
  EXPECT_EQ(q.next_time(), at_ms(3));
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.push(at_ms(1), [&] { fired = true; });
  q.cancel(id);
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, CancelledEventSkippedOnPop) {
  EventQueue q;
  std::vector<int> order;
  const EventId id = q.push(at_ms(1), [&] { order.push_back(1); });
  q.push(at_ms(2), [&] { order.push_back(2); });
  q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
}

TEST(EventQueue, CancelIsIdempotent) {
  EventQueue q;
  const EventId id = q.push(at_ms(1), [] {});
  q.cancel(id);
  q.cancel(id);  // no effect, no crash
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelAfterFireIsNoOp) {
  EventQueue q;
  const EventId id = q.push(at_ms(1), [] {});
  q.pop().fn();
  q.cancel(id);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, NextTimeSkipsCancelledFront) {
  EventQueue q;
  const EventId early = q.push(at_ms(1), [] {});
  q.push(at_ms(7), [] {});
  q.cancel(early);
  EXPECT_EQ(q.next_time(), at_ms(7));
}

TEST(EventQueue, SizeCountsLiveOnly) {
  EventQueue q;
  const EventId a = q.push(at_ms(1), [] {});
  q.push(at_ms(2), [] {});
  q.cancel(a);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelHeadThenPopSkipsToNextLive) {
  EventQueue q;
  std::vector<int> order;
  const EventId head = q.push(at_ms(1), [&] { order.push_back(1); });
  q.push(at_ms(2), [&] { order.push_back(2); });
  q.cancel(head);
  EXPECT_EQ(q.next_time(), at_ms(2));
  const auto fired = q.pop();
  EXPECT_EQ(fired.at, at_ms(2));
  fired.fn();
  EXPECT_EQ(order, (std::vector<int>{2}));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, StaleHandleCannotCancelSlotReuse) {
  EventQueue q;
  const EventId old_id = q.push(at_ms(1), [] {});
  q.pop().fn();  // retires the slot; it is now free for reuse
  bool fired = false;
  const EventId new_id = q.push(at_ms(2), [&] { fired = true; });
  EXPECT_NE(old_id, new_id);  // generation differs even if the slot matches
  q.cancel(old_id);           // stale handle: must not touch the new event
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, CancelledHandleCannotCancelSlotReuse) {
  EventQueue q;
  const EventId old_id = q.push(at_ms(1), [] {});
  q.cancel(old_id);
  bool fired = false;
  q.push(at_ms(2), [&] { fired = true; });
  q.cancel(old_id);  // second cancel through a recycled slot: no effect
  EXPECT_EQ(q.size(), 1u);
  while (!q.empty()) q.pop().fn();
  EXPECT_TRUE(fired);
}

TEST(EventQueue, InterleavedPushCancelKeepsOrder) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> doomed;
  // Alternate survivors and victims at mixed times, cancelling as we go so
  // slots recycle mid-stream; survivors must still fire in (time, seq)
  // order with ties broken by original insertion order.
  for (int round = 0; round < 50; ++round) {
    q.push(at_ms((round * 7) % 20), [&order, round] { order.push_back(round); });
    doomed.push_back(
        q.push(at_ms((round * 3) % 20), [&order] { order.push_back(-1); }));
    if (round % 3 == 2) {
      q.cancel(doomed[round - 2]);
      q.cancel(doomed[round - 1]);
      q.cancel(doomed[round]);
    }
  }
  for (const EventId id : doomed) q.cancel(id);  // idempotent for the rest
  SimTime prev = SimTime::origin();
  std::vector<int> seen_at_time;
  while (!q.empty()) {
    const SimTime t = q.next_time();
    EXPECT_GE(t, prev);
    const auto fired = q.pop();
    EXPECT_EQ(fired.at, t);
    fired.fn();
    prev = t;
  }
  // No victim fired, every survivor fired exactly once.
  EXPECT_EQ(order.size(), 50u);
  std::vector<bool> fired_round(50, false);
  for (const int r : order) {
    ASSERT_GE(r, 0);
    EXPECT_FALSE(fired_round[std::size_t(r)]);
    fired_round[std::size_t(r)] = true;
  }
}

TEST(EventQueue, TieOrderSurvivesHeavyCancellation) {
  EventQueue q;
  std::vector<int> order;
  std::vector<EventId> victims;
  for (int i = 0; i < 10; ++i) {
    victims.push_back(q.push(at_ms(5), [&order] { order.push_back(-1); }));
    q.push(at_ms(5), [&order, i] { order.push_back(i); });
  }
  for (const EventId id : victims) q.cancel(id);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, ManyEventsStressOrder) {
  EventQueue q;
  std::vector<double> fire_times;
  for (int i = 999; i >= 0; --i) {
    q.push(at_ms(i % 100), [] {});
  }
  while (!q.empty()) fire_times.push_back(q.pop().at.ms());
  for (std::size_t i = 1; i < fire_times.size(); ++i) {
    EXPECT_LE(fire_times[i - 1], fire_times[i]);
  }
}

}  // namespace
}  // namespace recwild::net
