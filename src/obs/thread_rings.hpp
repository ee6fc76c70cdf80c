// Per-thread ring sets: the storage behind TraceRecorder and
// FlightRecorder (DESIGN.md §12.2, §16.1).
//
// Each writing thread gets its own util::Ring<T> behind its own mutex, so
// writers never contend with each other; only Collect/Clear/dropped walk
// every ring. The first push from a thread creates its ring under the set
// mutex; after that a one-slot thread-local cache finds it with a single
// integer compare. The cache is keyed by a set id unique in the process
// (per element type), never by address, so a set destroyed and another
// allocated at the same address can never alias a stale ring. There is
// one cache slot per element type: a thread that both records spans and
// emits flight events keeps both rings cached.
//
// Capacity rule: set_capacity() applies to rings created after the call,
// and Clear() applies the current capacity to every existing ring, lower
// or higher than before. A ring reserves its capacity when it is created
// or cleared, so a push never reallocates.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/ring.hpp"

namespace mobirescue::obs {

template <typename T>
class ThreadRings {
 public:
  explicit ThreadRings(std::size_t capacity)
      : id_(NextId()), epoch_ns_(SteadyNowNs()), capacity_(capacity) {}

  ThreadRings(const ThreadRings&) = delete;
  ThreadRings& operator=(const ThreadRings&) = delete;

  /// Appends `make(tid)` to the calling thread's ring, where `tid` is the
  /// ring's small id: 1, 2, ... in ring creation order, stable per thread.
  template <typename Make>
  void Push(Make&& make) {
    Slot* slot = SlotForThisThread();
    T value = make(slot->tid);
    std::lock_guard lock(slot->mu);
    slot->ring.Push(std::move(value));
  }

  /// Every retained element of every ring, ring by ring in slot order.
  /// Safe against concurrent pushes (each ring is locked briefly).
  std::vector<T> Collect() const {
    std::vector<T> out;
    std::lock_guard lock(mu_);
    for (const auto& slot : slots_) {
      std::lock_guard ring_lock(slot->mu);
      out.insert(out.end(), slot->ring.data().begin(),
                 slot->ring.data().end());
    }
    return out;
  }

  /// Elements overwritten (or discarded at capacity 0) since the last
  /// Clear().
  std::uint64_t dropped() const {
    std::uint64_t total = 0;
    std::lock_guard lock(mu_);
    for (const auto& slot : slots_) {
      std::lock_guard ring_lock(slot->mu);
      total += slot->ring.evictions();
    }
    return total;
  }

  /// Empties every ring, resizes it to the current capacity, zeroes the
  /// drop count and restarts the epoch.
  void Clear() {
    std::lock_guard lock(mu_);
    for (const auto& slot : slots_) {
      std::lock_guard ring_lock(slot->mu);
      slot->ring.Reset(capacity_);
    }
    epoch_ns_.store(SteadyNowNs(), std::memory_order_relaxed);
  }

  void set_capacity(std::size_t elements) {
    std::lock_guard lock(mu_);
    capacity_ = elements;
  }
  std::size_t capacity() const {
    std::lock_guard lock(mu_);
    return capacity_;
  }

  /// Nanoseconds since the epoch (monotonic clock).
  std::uint64_t NowNs() const {
    const std::int64_t delta =
        SteadyNowNs() - epoch_ns_.load(std::memory_order_relaxed);
    return delta > 0 ? static_cast<std::uint64_t>(delta) : 0;
  }
  /// Steady-clock time at the epoch.
  std::int64_t epoch_steady_ns() const {
    return epoch_ns_.load(std::memory_order_relaxed);
  }

 private:
  struct Slot {
    mutable std::mutex mu;
    util::Ring<T> ring;    // guarded by mu
    std::uint32_t tid = 0;  // fixed before the slot is published
  };

  static std::int64_t SteadyNowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }
  static std::uint64_t NextId() {
    static std::atomic<std::uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
  }

  Slot* SlotForThisThread() {
    if (t_owner_ == id_) return t_slot_;
    std::lock_guard lock(mu_);
    Slot*& slot = slot_by_thread_[std::this_thread::get_id()];
    if (slot == nullptr) {
      auto fresh = std::make_unique<Slot>();
      fresh->ring.Reset(capacity_);
      fresh->tid = static_cast<std::uint32_t>(slots_.size() + 1);
      slot = fresh.get();
      slots_.push_back(std::move(fresh));
    }
    t_owner_ = id_;
    t_slot_ = slot;
    return slot;
  }

  inline static thread_local std::uint64_t t_owner_ = 0;
  inline static thread_local Slot* t_slot_ = nullptr;

  const std::uint64_t id_;
  std::atomic<std::int64_t> epoch_ns_;
  mutable std::mutex mu_;  // guards slots_, slot_by_thread_, capacity_
  std::vector<std::unique_ptr<Slot>> slots_;
  std::unordered_map<std::thread::id, Slot*> slot_by_thread_;
  std::size_t capacity_;
};

}  // namespace mobirescue::obs
