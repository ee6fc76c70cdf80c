#include "serve/ingest_queue.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/rng.hpp"

namespace mobirescue::serve {

ShardedIngestQueue::ShardedIngestQueue(IngestQueueConfig config)
    : config_(config), shards_(config.num_shards) {
  if (config.num_shards == 0) {
    throw std::invalid_argument("ShardedIngestQueue: num_shards == 0");
  }
  if (config.shard_capacity == 0) {
    throw std::invalid_argument("ShardedIngestQueue: shard_capacity == 0");
  }
}

std::size_t ShardedIngestQueue::ShardOf(mobility::PersonId person,
                                        std::size_t num_shards) {
  // splitmix64: adjacent person ids land on unrelated shards.
  const std::uint64_t x = util::SplitMix64(
      static_cast<std::uint64_t>(static_cast<std::uint32_t>(person)));
  return static_cast<std::size_t>(x % num_shards);
}

bool ShardedIngestQueue::Push(const mobility::GpsRecord& record) {
  Shard& shard = shards_[ShardOf(record.person, shards_.size())];
  {
    std::lock_guard<std::mutex> lock(shard.mu);
    if (shard.size() >= config_.shard_capacity) {
      if (config_.drop_policy == DropPolicy::kDropNewest) {
        dropped_.Increment();
        dropped_newest_.Increment();
        return false;
      }
      // kDropOldest: evict the head to keep the freshest records. Once a
      // capacity's worth is evicted, erase them, so an undrained shard
      // holds at most twice its capacity (amortised O(1) per push).
      if (++shard.head == config_.shard_capacity) {
        shard.buf.erase(shard.buf.begin(),
                        shard.buf.begin() +
                            static_cast<std::ptrdiff_t>(shard.head));
        shard.head = 0;
      }
      dropped_.Increment();
      dropped_oldest_.Increment();
    }
    shard.buf.push_back(record);
    ++shard.accepted;
  }
  accepted_.Increment();
  return true;
}

std::vector<std::uint64_t> ShardedIngestQueue::ShardAccepted() const {
  std::vector<std::uint64_t> accepted;
  accepted.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    accepted.push_back(shard.accepted);
  }
  return accepted;
}

double ShardedIngestQueue::ShardImbalance() const {
  const std::vector<std::uint64_t> accepted = ShardAccepted();
  std::uint64_t max = 0, total = 0;
  for (const std::uint64_t a : accepted) {
    max = std::max(max, a);
    total += a;
  }
  if (total == 0) return 0.0;
  const double mean =
      static_cast<double>(total) / static_cast<double>(accepted.size());
  return static_cast<double>(max) / mean;
}

std::size_t ShardedIngestQueue::DrainInto(
    std::vector<mobility::GpsRecord>& out) {
  std::size_t n = 0;
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    const std::size_t depth = shard.size();
    out.insert(out.end(), shard.buf.begin() + static_cast<std::ptrdiff_t>(shard.head),
               shard.buf.end());
    shard.buf.clear();
    shard.head = 0;
    n += depth;
  }
  drained_.Increment(n);
  return n;
}

std::vector<std::size_t> ShardedIngestQueue::Depths() const {
  std::vector<std::size_t> depths;
  depths.reserve(shards_.size());
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    depths.push_back(shard.size());
  }
  return depths;
}

IngestCounters ShardedIngestQueue::counters() const {
  IngestCounters c;
  c.accepted = accepted_.Value();
  c.dropped = dropped_.Value();
  c.dropped_newest = dropped_newest_.Value();
  c.dropped_oldest = dropped_oldest_.Value();
  c.drained = drained_.Value();
  return c;
}

}  // namespace mobirescue::serve
