#pragma once
// Hashed timing wheel for connection timers (send-timeout, idle reaping).
//
// One reactor event loop owns one wheel and drives it from its own clock:
// schedule() hashes a deadline into a slot, advance() walks the slots that
// elapsed since the last call and reports the timers that fired. All the
// work is O(1) per schedule/cancel and O(slots traversed) per advance, so
// ten thousand armed idle timers cost the loop nothing until they expire —
// the property a C10K reaper needs that a sorted map does not have.
//
// The wheel is deliberately pure (no threads, no clock reads of its own):
// the caller passes `now` into advance()/next_wakeup(), which makes it
// unit-testable with a synthetic clock and keeps the reactor the only
// component that touches real time.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <unordered_set>
#include <vector>

namespace ncpm::net {

class TimerWheel {
 public:
  using Clock = std::chrono::steady_clock;
  using TimerId = std::uint64_t;

  /// `tick` is the expiry granularity (timers fire up to one tick late);
  /// `slots` x `tick` is one wheel revolution — longer delays survive via a
  /// per-entry round counter, they just ride the wheel more than once.
  explicit TimerWheel(Clock::time_point now,
                      std::chrono::milliseconds tick = std::chrono::milliseconds(20),
                      std::size_t slots = 512);

  /// Arm a timer due `delay` from `now` (minimum one tick out). Returns a
  /// nonzero id usable with cancel(). Taking `now` matters: the cursor can
  /// lag real time by many ticks (an event loop dispatches I/O before
  /// advancing its wheel), and a timer hashed from the stale cursor alone
  /// would fire up to that lag early — the entry is therefore placed
  /// relative to the wheel's time base, so it never fires before
  /// `now + delay` no matter how far behind the cursor is.
  TimerId schedule(Clock::time_point now, std::chrono::milliseconds delay);

  /// Lazy cancel: the entry is dropped when its slot is next visited.
  /// Cancelling an unknown/already-fired/already-cancelled id is a no-op.
  void cancel(TimerId id);

  /// Advance the wheel to `now`, appending every id that expired (in slot
  /// order) to `expired`. Cancelled entries are dropped silently.
  void advance(Clock::time_point now, std::vector<TimerId>& expired);

  /// Time until the next slot that holds any entry, or nullopt when the
  /// wheel is empty (the reactor then sleeps until an eventfd wakeup).
  /// Zero — never negative — when that slot is already overdue (`now` ran
  /// past it without an advance()).
  /// Conservative: a slot holding only multi-round entries still yields a
  /// wakeup — at most one spurious wakeup per revolution.
  std::optional<std::chrono::milliseconds> next_wakeup(Clock::time_point now) const;

  std::size_t armed() const noexcept { return live_.size(); }

 private:
  struct Entry {
    TimerId id;
    std::uint32_t rounds;  ///< revolutions left before this entry fires
  };

  std::chrono::milliseconds tick_;
  std::vector<std::vector<Entry>> slots_;
  std::size_t cursor_ = 0;             ///< slot advance() will visit next
  Clock::time_point next_tick_time_;   ///< when slots_[cursor_] comes due
  TimerId next_id_ = 1;
  /// Ids scheduled and neither fired nor cancelled. Slot entries whose id is
  /// absent are dead (cancelled) and dropped when their slot is visited.
  std::unordered_set<TimerId> live_;
};

}  // namespace ncpm::net
