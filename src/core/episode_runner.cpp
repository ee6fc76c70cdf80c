#include "core/episode_runner.hpp"

#include <algorithm>
#include <chrono>

#include "obs/trace.hpp"

namespace mobirescue::core {

int EpisodeRunner::HardwareJobs() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

std::uint64_t EpisodeRunner::DeriveSeed(std::uint64_t base,
                                        std::uint64_t index) {
  // splitmix64 of the combined key: small bases/indices map to
  // well-separated 64-bit seeds.
  return util::SplitMix64(base + 0x9E3779B97F4A7C15ULL * index);
}

EpisodeRunner::EpisodeRunner(int jobs) {
  jobs_ = jobs <= 0 ? HardwareJobs() : jobs;
  if (jobs_ == 1) return;  // inline mode, no pool
  workers_.reserve(static_cast<std::size_t>(jobs_));
  try {
    for (int i = 0; i < jobs_; ++i) {
      workers_.emplace_back([this] { WorkerLoop(); });
    }
  } catch (const std::system_error&) {
    // Could not start (all) workers: degrade gracefully. Any workers that
    // did start keep serving the queue; with none, run inline.
    if (workers_.empty()) jobs_ = 1;
  }
}

EpisodeRunner::~EpisodeRunner() {
  {
    std::lock_guard lock(mutex_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void EpisodeRunner::WorkerLoop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock lock(mutex_);
      work_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
    {
      std::lock_guard lock(mutex_);
      --in_flight_;
      if (in_flight_ == 0) batch_done_.notify_all();
    }
  }
}

void EpisodeRunner::RunBatch(std::size_t n,
                             const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  std::exception_ptr first_error;
  std::mutex error_mutex;
  auto guarded = [&](std::size_t i) {
    try {
      OBS_SPAN("core.episode");
      const auto t0 = std::chrono::steady_clock::now();
      body(i);
      episodes_counter_.Increment();
      episode_ms_.Observe(std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - t0)
                              .count());
    } catch (...) {
      std::lock_guard lock(error_mutex);
      if (!first_error) first_error = std::current_exception();
    }
  };

  if (jobs_ == 1 || workers_.empty() || n == 1) {
    for (std::size_t i = 0; i < n; ++i) guarded(i);
  } else {
    {
      std::lock_guard lock(mutex_);
      in_flight_ += n;
      for (std::size_t i = 0; i < n; ++i) {
        queue_.emplace_back([&guarded, i] { guarded(i); });
      }
    }
    work_ready_.notify_all();
    std::unique_lock lock(mutex_);
    batch_done_.wait(lock, [this] { return in_flight_ == 0; });
  }
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace mobirescue::core
