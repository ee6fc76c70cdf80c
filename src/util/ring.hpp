// Fixed-capacity overwrite-oldest ring: the one ring behind the replay
// buffer (rl/replay_buffer.hpp) and the trace and flight recorders
// (obs/thread_rings.hpp).
//
// Elements live in slot order. Slots fill 0, 1, ... until `capacity`
// elements are stored; from then on every push overwrites slot `oldest()`
// and advances it, so `oldest()` stays 0 until the first eviction. A
// checkpoint that stores data() and oldest() restores the exact ring.
//
// A constructed ring reserves nothing: storage grows with the elements, so
// a capacity read from untrusted input (a checkpoint's replay capacity)
// never sizes an allocation by itself. Reset() does reserve the whole
// capacity, for rings whose capacity the program chose (the obs rings), so
// their pushes never reallocate. Capacity 0 stores nothing and counts
// every push as an eviction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <utility>
#include <vector>

namespace mobirescue::util {

template <typename T>
class Ring {
 public:
  explicit Ring(std::size_t capacity = 0) : capacity_(capacity) {}

  /// Appends `value`; when the ring is full it overwrites the oldest
  /// element instead (counted in evictions()).
  void Push(T value) {
    if (data_.size() < capacity_) {
      data_.push_back(std::move(value));
      return;
    }
    ++evictions_;
    if (capacity_ == 0) return;
    data_[oldest_] = std::move(value);
    oldest_ = oldest_ + 1 == capacity_ ? 0 : oldest_ + 1;
  }

  /// Stored elements in slot order (not age order once the ring wrapped).
  const std::vector<T>& data() const { return data_; }
  /// Calls `fn` on every stored element, oldest first.
  template <typename Fn>
  void ForEachOldestFirst(Fn&& fn) const {
    const std::size_t split = oldest_ < data_.size() ? oldest_ : data_.size();
    for (std::size_t i = split; i < data_.size(); ++i) fn(data_[i]);
    for (std::size_t i = 0; i < split; ++i) fn(data_[i]);
  }
  std::size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }
  std::size_t capacity() const { return capacity_; }
  /// The slot the next eviction overwrites; 0 until the first wrap.
  std::size_t oldest() const { return oldest_; }
  /// Pushes that overwrote (or, at capacity 0, discarded) an element.
  std::uint64_t evictions() const { return evictions_; }

  /// Empties the ring, zeroes evictions() and adopts `capacity`, lower or
  /// higher than before, with storage reserved for exactly that many
  /// elements (storage beyond it is released). Pass only a capacity the
  /// program chose.
  void Reset(std::size_t capacity) {
    if (data_.capacity() > capacity) std::vector<T>().swap(data_);
    data_.clear();
    data_.reserve(capacity);
    capacity_ = capacity;
    oldest_ = 0;
    evictions_ = 0;
  }

  /// Replaces the contents with `data` (slot order) and the cursor with
  /// `oldest`. Throws std::invalid_argument when the data exceed the
  /// capacity or the cursor does not name a slot (a cursor of 0 is always
  /// valid, matching a ring that never wrapped).
  void Restore(std::vector<T> data, std::size_t oldest,
               std::uint64_t evictions) {
    if (data.size() > capacity_) {
      throw std::invalid_argument("Ring::Restore: data over capacity");
    }
    if (oldest != 0 && oldest >= capacity_) {
      throw std::invalid_argument("Ring::Restore: cursor out of range");
    }
    data_ = std::move(data);
    oldest_ = oldest;
    evictions_ = evictions;
  }

 private:
  std::size_t capacity_;
  std::size_t oldest_ = 0;
  std::uint64_t evictions_ = 0;
  std::vector<T> data_;
};

}  // namespace mobirescue::util
