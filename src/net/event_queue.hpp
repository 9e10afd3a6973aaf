// Event queue for the discrete-event simulation kernel.
//
// Events fire in (time, sequence) order: ties break by scheduling order so
// runs are fully deterministic. Events can be cancelled through the handle
// returned by push().
//
// Storage is a slab of event slots plus a flat 4-ary heap of (time, seq)
// keys — no per-event hash lookups on the hot path. Handles carry a slot
// generation, so cancel() is O(1): it retires the slot and the stale heap
// entry is skipped when it surfaces. A retired slot can be reused
// immediately; its bumped generation makes any outstanding handle or heap
// entry for the old event harmless.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "net/event_fn.hpp"
#include "net/time.hpp"

namespace recwild::net {

/// Opaque cancellation handle: (generation << 32) | slot. Live events always
/// have an odd generation, so the zero-initialized "no event" sentinel that
/// callers rely on never aliases a live event.
using EventId = std::uint64_t;

class EventQueue {
 public:
  /// Schedules `fn` at absolute time `at`. Returns a handle for cancel().
  EventId push(SimTime at, EventFn fn) {
    return push_ranked(at, next_seq_++, std::move(fn));
  }

  /// Reserves `n` consecutive tie-break ranks and returns the first. An
  /// event later pushed with push_ranked() and one of them orders among
  /// equal times exactly as if push() had scheduled it at reservation time.
  std::uint64_t reserve_ranks(std::uint64_t n) noexcept {
    const std::uint64_t first = next_seq_;
    next_seq_ += n;
    return first;
  }

  /// push() with a rank from reserve_ranks(), each used at most once.
  EventId push_ranked(SimTime at, std::uint64_t rank, EventFn fn);

  /// Cancels a pending event; no-op if it already fired or was cancelled.
  void cancel(EventId id);

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return live_; }

  /// Time of the earliest pending event; drops stale heap entries off the
  /// front, hence non-const. Precondition: !empty().
  [[nodiscard]] SimTime next_time();

  /// Pops the earliest live event.
  /// Precondition: !empty().
  struct Fired {
    SimTime at;
    EventFn fn;
  };
  Fired pop();

 private:
  struct Slot {
    EventFn fn;
    /// Odd while the slot holds a live event, even while free/retired.
    std::uint32_t gen = 0;
    /// Next slot in the free list (kNoSlot terminates).
    std::uint32_t next_free = kNoSlot;
  };

  /// Heap key; a stale entry is one whose generation no longer matches its
  /// slot's.
  struct Entry {
    SimTime at;
    std::uint64_t seq;
    std::uint32_t slot;
    std::uint32_t gen;

    [[nodiscard]] bool before(const Entry& o) const noexcept {
      if (at != o.at) return at < o.at;
      return seq < o.seq;
    }
  };

  static constexpr std::uint32_t kNoSlot = ~std::uint32_t{0};

  [[nodiscard]] bool live(const Entry& e) const noexcept {
    return slots_[e.slot].gen == e.gen;
  }

  /// Pops heap entries whose events were cancelled, exposing a live head.
  void drop_stale_head();
  void sift_up(std::size_t i);
  void sift_down(std::size_t i);

  std::vector<Entry> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace recwild::net
