#include "net/timer_wheel.hpp"

#include <algorithm>

namespace ncpm::net {

TimerWheel::TimerWheel(Clock::time_point now, std::chrono::milliseconds tick,
                       std::size_t slots)
    : tick_(tick.count() < 1 ? std::chrono::milliseconds(1) : tick),
      slots_(slots < 2 ? 2 : slots),
      next_tick_time_(now + tick_) {}

TimerWheel::TimerId TimerWheel::schedule(Clock::time_point now, std::chrono::milliseconds delay) {
  if (delay.count() < 0) delay = std::chrono::milliseconds(0);
  // Slot `cursor_ + t` is visited at next_tick_time_ + (t-1) * tick_: pick
  // the smallest t whose visit time is not before now + delay, rounding up
  // so a timer never fires early. Minimum one tick keeps the entry out of
  // the slot advance() is about to visit. Computed against the wheel's own
  // time base, not the cursor, so ticks that elapsed but have not been
  // advance()d yet (dispatch ran first) cannot eat into the delay.
  const auto due = now + delay;
  std::uint64_t ticks = 1;
  if (due > next_tick_time_) {
    const auto ahead =
        std::chrono::duration_cast<std::chrono::milliseconds>(due - next_tick_time_);
    ticks += static_cast<std::uint64_t>((ahead.count() + tick_.count() - 1) / tick_.count());
  }
  const auto slot = (cursor_ + ticks) % slots_.size();
  const auto rounds = static_cast<std::uint32_t>(ticks / slots_.size());
  const TimerId id = next_id_++;
  slots_[slot].push_back(Entry{id, rounds});
  live_.insert(id);
  return id;
}

void TimerWheel::cancel(TimerId id) { live_.erase(id); }

void TimerWheel::advance(Clock::time_point now, std::vector<TimerId>& expired) {
  while (next_tick_time_ <= now) {
    auto& slot = slots_[cursor_];
    std::size_t keep = 0;
    for (auto& entry : slot) {
      if (live_.count(entry.id) == 0) continue;  // cancelled
      if (entry.rounds > 0) {
        --entry.rounds;
        slot[keep++] = entry;
        continue;
      }
      expired.push_back(entry.id);
      live_.erase(entry.id);
    }
    slot.resize(keep);
    cursor_ = (cursor_ + 1) % slots_.size();
    next_tick_time_ += tick_;
  }
}

std::optional<std::chrono::milliseconds> TimerWheel::next_wakeup(Clock::time_point now) const {
  if (live_.empty()) return std::nullopt;
  for (std::size_t step = 0; step < slots_.size(); ++step) {
    const auto& slot = slots_[(cursor_ + step) % slots_.size()];
    const bool live = std::any_of(slot.begin(), slot.end(),
                                  [&](const Entry& entry) { return live_.count(entry.id) != 0; });
    if (!live) continue;
    // Signed slot offset: `step * tick_` with an unsigned step makes the
    // whole duration unsigned, and an overdue slot (due < now) would wrap to
    // ~1.8e13 ms instead of clamping to 0 below.
    const auto due = next_tick_time_ + static_cast<std::int64_t>(step) * tick_;
    const auto wait = std::chrono::duration_cast<std::chrono::milliseconds>(due - now);
    return wait.count() < 0 ? std::chrono::milliseconds(0) : wait;
  }
  // Not reached while live_ is nonempty (every live id has an entry in some
  // slot); a conservative one-revolution wakeup.
  return std::chrono::duration_cast<std::chrono::milliseconds>(next_tick_time_ - now) +
         std::chrono::milliseconds(static_cast<long>(slots_.size()) * tick_.count());
}

}  // namespace ncpm::net
