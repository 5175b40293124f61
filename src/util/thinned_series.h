// Bounded timeline with stride-doubling thinning, shared by telemetry::Gauge
// and stats::StateSampler. Every stride-th appended item is kept; when kMax
// items accumulate, every other one is dropped and the stride doubles, so an
// arbitrarily long run keeps an evenly thinned series. Off-stride items still
// refresh a provisional last slot, so the series always ends at the newest
// item instead of dropping it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace elastisim::util {

template <typename T, std::size_t kMax>
class ThinnedSeries {
 public:
  void append(const T& item) {
    const bool on_stride = appended_++ % stride_ == 0;
    if (tail_provisional_) {
      items_.back() = item;
    } else {
      items_.push_back(item);
    }
    tail_provisional_ = !on_stride;
    if (items_.size() < kMax) return;
    // Thin to every other item and double the stride — but never lose the
    // newest one: if it sat at an odd index, re-append it.
    const T last = items_.back();
    const bool last_dropped = (items_.size() - 1) % 2 == 1;
    std::size_t write = 0;
    for (std::size_t read = 0; read < items_.size(); read += 2) items_[write++] = items_[read];
    items_.resize(write);
    if (last_dropped) items_.push_back(last);
    stride_ *= 2;
  }

  /// Overwrites the newest item without counting an append.
  void replace_last(const T& item) { items_.back() = item; }

  const std::vector<T>& items() const { return items_; }
  /// Items offered to append(); exceeds items().size() once thinning starts.
  std::uint64_t appended() const { return appended_; }

 private:
  std::vector<T> items_;
  std::uint64_t appended_ = 0;
  std::uint64_t stride_ = 1;
  /// items_.back() is an off-stride item the next append replaces.
  bool tail_provisional_ = false;
};

}  // namespace elastisim::util
